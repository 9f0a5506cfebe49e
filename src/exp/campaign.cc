#include "exp/campaign.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>
#include <unordered_set>

#ifndef _WIN32
#include <csignal>
#include <fcntl.h>
#include <sys/file.h>
#include <sys/wait.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif
#endif

#include "common/logging.hh"

namespace aero
{

namespace
{

constexpr const char *kSchema = "aero-campaign/2";
constexpr const char *kSchemaClaims = "aero-claims/1";
constexpr const char *kClaimsFile = "claims.jsonl";
constexpr const char *kCompactedFile = "journal.compacted.jsonl";

/** FNV-1a 64-bit over @p text, rendered as 16 hex digits. */
std::string
hashHex(const std::string &text)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/** Render a config value for a mismatch message, clipped for sanity. */
std::string
renderValue(const Json *v)
{
    if (!v)
        return "(absent)";
    std::string s = v->dump();
    constexpr std::size_t kMax = 96;
    if (s.size() > kMax)
        s = s.substr(0, kMax) + "...";
    return s;
}

/**
 * Dotted path and values of the first leaf on which two config
 * documents disagree ("requests: 2000 vs 1500",
 * "spec.workloads[1]: \"hm\" vs \"usr\""); empty when the documents are
 * equal (the fingerprint then differs only through the campaign name —
 * possible only via journal surgery).
 */
std::string
firstMismatch(const Json &stored, const Json &current,
              const std::string &path)
{
    const auto label = [&](const std::string &leaf) {
        return path.empty() ? leaf : path + "." + leaf;
    };
    if (stored.isObject() && current.isObject()) {
        std::vector<std::string> keys;
        const auto collect = [&](const Json &doc) {
            for (std::size_t i = 0; i < doc.size(); ++i) {
                const std::string &name = doc.member(i).first;
                if (std::find(keys.begin(), keys.end(), name) ==
                    keys.end())
                    keys.push_back(name);
            }
        };
        collect(current);
        collect(stored);
        for (const auto &key : keys) {
            const Json *a = stored.find(key);
            const Json *b = current.find(key);
            if (a && b) {
                if (*a == *b)
                    continue;
                const std::string deeper =
                    firstMismatch(*a, *b, label(key));
                if (!deeper.empty())
                    return deeper;
            }
            return detail::concat(label(key), ": ", renderValue(a),
                                  " vs ", renderValue(b));
        }
        return "";
    }
    if (stored.isArray() && current.isArray()) {
        if (stored.size() != current.size()) {
            return detail::concat(path, ": ", stored.size(),
                                  " item(s) vs ", current.size());
        }
        for (std::size_t i = 0; i < stored.size(); ++i) {
            if (stored.at(i) == current.at(i))
                continue;
            return firstMismatch(stored.at(i), current.at(i),
                                 detail::concat(path, "[", i, "]"));
        }
        return "";
    }
    if (stored == current)
        return "";
    return detail::concat(path, ": ", renderValue(&stored), " vs ",
                          renderValue(&current));
}

/** Read a whole file (empty string when it does not exist). */
std::string
readFileOrEmpty(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return "";
    std::ostringstream content;
    content << in.rdbuf();
    if (in.bad())
        AERO_FATAL("failed reading checkpoint '", path, "'");
    return content.str();
}

/** Worker journal files inside @p dir, in sorted (merge) order. */
std::vector<std::string>
listJournalFiles(const std::string &dir)
{
    std::vector<std::string> files;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir)) {
        if (!entry.is_regular_file())
            continue;
        const std::string name = entry.path().filename().string();
        if (name.rfind("journal.", 0) == 0 && name.size() > 14 &&
            name.compare(name.size() - 6, 6, ".jsonl") == 0)
            files.push_back(entry.path().string());
    }
    std::sort(files.begin(), files.end());
    return files;
}

/** Is @p pid a live process (or at least one we cannot signal)? */
bool
pidAlive(long long pid)
{
#ifndef _WIN32
    if (pid <= 0)
        return false;
    if (::kill(static_cast<pid_t>(pid), 0) == 0)
        return true;
    return errno == EPERM;
#else
    (void)pid;
    return false;
#endif
}

/** The final line of a JSON-lines file, when a crash or an append still
 *  in flight left it torn. */
struct TornTail
{
    std::size_t lineNo = 0;  //!< 0: the text ends on an intact line
    bool parsed = false;     //!< complete JSON, only the newline missing
    Json row;                //!< the line's JSON when parsed
    std::string error;       //!< why the line is not intact
};

/**
 * The one JSON-lines walker every journal and claims reader shares.
 * Hands each intact line — parsed and newline-terminated — to @p onRow
 * in order and returns the byte offset just past the last of them.
 * Only the final line may be torn (empty, unparseable, or missing its
 * newline, as a crash or an append still in flight leaves it): the walk
 * stops there and describes it in @p torn. A bad line anywhere else is
 * fatal naming @p path: "not a <what>" on line 1, "corrupt" after it.
 */
std::uint64_t
walkLines(const std::string &path, const std::string &text,
          const char *what,
          const std::function<void(const Json &, std::size_t)> &onRow,
          TornTail *torn)
{
    std::uint64_t good = 0;
    std::size_t lineNo = 0;
    while (good < text.size()) {
        const std::size_t newline = text.find('\n', good);
        const bool terminated = newline != std::string::npos;
        const std::size_t end = terminated ? newline : text.size();
        lineNo += 1;
        Json row;
        Json::ParseError err;
        const bool parsed =
            end > good &&
            Json::parse(text.substr(good, end - good), &row, &err);
        if (parsed && terminated) {
            onRow(row, lineNo);
            good = end + 1;
            continue;
        }
        const std::string why = end == good ? "empty record"
                                : parsed    ? "missing newline"
                                            : err.toString();
        if (end + 1 < text.size()) {
            if (lineNo == 1)
                AERO_FATAL("'", path, "' is not a ", what, ": line 1: ", why);
            AERO_FATAL(what, " '", path, "' is corrupt: line ", lineNo, ": ",
                       why);
        }
        torn->lineNo = lineNo;
        torn->parsed = parsed;
        torn->row = std::move(row);
        torn->error = why;
        break;
    }
    return good;
}

/** The (campaign, fingerprint, config) every file of a journal carries. */
struct JournalPin
{
    std::string campaign;
    std::string fp;  //!< empty: adopt the first header checked
    Json config;
};

/**
 * The one journal header check: @p row must be an aero-campaign/2
 * header for @p pin's campaign and fingerprint (adopted from @p row
 * while the pin is empty). Fatal naming @p file and, for a changed
 * configuration, the first field that differs. Returns the header's
 * worker id.
 */
std::string
checkHeader(const std::string &file, const Json &row, std::size_t lineNo,
            JournalPin &pin)
{
    const Json *schema = row.find("schema");
    if (!schema || !schema->isString() || schema->asString() != kSchema) {
        AERO_FATAL("'", file, "' is not an ", kSchema, " journal (line ",
                   lineNo, ")");
    }
    const Json *name = row.find("campaign");
    const Json *fp = row.find("fingerprint");
    const Json *worker = row.find("worker");
    const Json *config = row.find("config");
    if (!name || !name->isString() || !fp || !fp->isString() ||
        !worker || !worker->isString() || !config || !config->isObject()) {
        AERO_FATAL("checkpoint '", file, "' has a malformed header (line ",
                   lineNo, ")");
    }
    if (pin.fp.empty()) {
        pin = JournalPin{name->asString(), fp->asString(), *config};
    } else if (name->asString() != pin.campaign) {
        AERO_FATAL("checkpoint '", file, "' belongs to campaign '",
                   name->asString(), "', expected '", pin.campaign,
                   "' — refusing to merge another campaign's journal");
    } else if (fp->asString() != pin.fp) {
        const std::string field = firstMismatch(*config, pin.config, "");
        AERO_FATAL("checkpoint '", file, "' was written for a different '",
                   pin.campaign, "' campaign configuration (fingerprint ",
                   fp->asString(), ", expected ", pin.fp, "): ",
                   field.empty() ? "stored configuration matches — "
                                   "journal corrupt?"
                                 : field);
    }
    return worker->asString();
}

/** One journal.*.jsonl file as mergeJournal() read it. */
struct JournalFileScan
{
    std::string path;
    std::string worker;  //!< the header's worker id; empty: no header
    std::size_t records = 0;
    std::uint64_t goodBytes = 0;  //!< end of the last intact line
};

using RecordFn = std::function<void(const Json &key, const Json &payload)>;

/**
 * The one directory merge that journal load, compaction and status
 * share. Walks every journal.*.jsonl file in @p dir in sorted order,
 * checks each header against @p pin and hands every record — each must
 * carry the pinned fingerprint — to @p onRecord in merge order, so a
 * last-wins map resolves a duplicate key to the last file's payload.
 * A torn final line is skipped with a warning. In @p ownFile, the file
 * the caller appends to and so truncates, a torn first line must still
 * parse as this campaign's header: anything else is a file that is not
 * a journal, which must fail loudly rather than be truncated.
 */
std::vector<JournalFileScan>
mergeJournal(const std::string &dir, JournalPin &pin,
             const std::string &ownFile, const RecordFn &onRecord)
{
    std::vector<JournalFileScan> scans;
    for (const auto &file : listJournalFiles(dir)) {
        JournalFileScan scan;
        scan.path = file;
        TornTail torn;
        const auto onRow = [&](const Json &row, std::size_t lineNo) {
            if (lineNo == 1) {
                scan.worker = checkHeader(file, row, lineNo, pin);
                return;
            }
            const Json *fp = row.find("fingerprint");
            const Json *key = row.find("key");
            const Json *payload = row.find("payload");
            if (!fp || !fp->isString() || !key || !payload) {
                AERO_FATAL("checkpoint '", file,
                           "' has a malformed record on line ", lineNo);
            }
            if (fp->asString() != pin.fp) {
                AERO_FATAL("checkpoint '", file, "': record on line ",
                           lineNo, " carries fingerprint ", fp->asString(),
                           ", expected ", pin.fp,
                           " — refusing to splice records from a "
                           "different campaign");
            }
            scan.records += 1;
            onRecord(*key, *payload);
        };
        scan.goodBytes = walkLines(file, readFileOrEmpty(file),
                                   "campaign journal", onRow, &torn);
        const bool own = file == ownFile;
        if (torn.lineNo == 1 && torn.parsed)
            checkHeader(file, torn.row, 1, pin);
        else if (torn.lineNo == 1 && own)
            AERO_FATAL("'", file, "' is not a campaign journal: line 1: ",
                       torn.error);
        if (torn.lineNo > 0) {
            AERO_WARN("checkpoint '", file, "': ",
                      own ? "dropping" : "ignoring", " torn ",
                      torn.lineNo == 1 ? "header" : "record", " on line ",
                      torn.lineNo, " (", torn.error, ")");
        }
        scans.push_back(std::move(scan));
    }
    return scans;
}

/** mergeJournal() for the read-only tools: fatal without a journal. */
std::vector<JournalFileScan>
mergeExistingJournal(const std::string &dir, JournalPin &pin,
                     const RecordFn &onRecord)
{
    std::error_code ec;
    if (!std::filesystem::is_directory(dir, ec))
        AERO_FATAL("no campaign journal directory at '", dir, "'");
    auto scans = mergeJournal(dir, pin, "", onRecord);
    if (pin.fp.empty()) {
        AERO_FATAL("no campaign journal in '", dir,
                   "': no journal.*.jsonl file has a header");
    }
    return scans;
}

/** claims.jsonl as readClaims() found it. */
struct ClaimsScan
{
    bool sawHeader = false;
    std::uint64_t goodBytes = 0;  //!< end of the last intact line
    /** First-claim order, last claim per key wins; live and completed
     *  are left for the caller. */
    std::vector<CampaignClaimStatus> claims;
    std::unordered_map<std::string, std::size_t> indexByKey;
};

/**
 * The one claims-file reader: the header and every claim must carry
 * fingerprint @p fp. A torn final line is a crash mid-claim (or, read
 * without the lock, a claim still in flight): it never took effect.
 */
ClaimsScan
readClaims(const std::string &path, const std::string &text,
           const std::string &fp)
{
    ClaimsScan scan;
    TornTail torn;
    const auto onRow = [&](const Json &row, std::size_t lineNo) {
        const Json *rowFp = row.find("fingerprint");
        if (lineNo == 1) {
            const Json *schema = row.find("schema");
            if (!schema || !schema->isString() ||
                schema->asString() != kSchemaClaims || !rowFp ||
                !rowFp->isString()) {
                AERO_FATAL("'", path, "' is not an ", kSchemaClaims,
                           " claims file (line 1)");
            }
            if (rowFp->asString() != fp) {
                AERO_FATAL("claims file '", path,
                           "' belongs to a different campaign "
                           "configuration (fingerprint ",
                           rowFp->asString(), ", expected ", fp, ")");
            }
            scan.sawHeader = true;
            return;
        }
        const Json *key = row.find("key");
        const Json *worker = row.find("worker");
        const Json *pid = row.find("pid");
        if (!rowFp || !rowFp->isString() || !key || !worker ||
            !worker->isString() || !pid || !pid->isNumeric()) {
            AERO_FATAL("claims file '", path,
                       "' has a malformed claim on line ", lineNo);
        }
        if (rowFp->asString() != fp) {
            AERO_FATAL("claims file '", path, "': claim on line ", lineNo,
                       " carries fingerprint ", rowFp->asString(),
                       ", expected ", fp);
        }
        CampaignClaimStatus claim;
        claim.key = *key;
        claim.worker = worker->asString();
        claim.pid = static_cast<long long>(pid->asInt64());
        const auto [it, fresh] =
            scan.indexByKey.emplace(key->dump(), scan.claims.size());
        if (fresh)
            scan.claims.push_back(std::move(claim));
        else
            scan.claims[it->second] = std::move(claim);
    };
    scan.goodBytes = walkLines(path, text, "claims file", onRow, &torn);
    return scan;
}

} // namespace

std::string
CampaignJournal::fingerprint(const std::string &campaign,
                             const Json &config)
{
    return hashHex(campaign + '\n' + config.dump());
}

CampaignJournal::CampaignJournal(std::string path, std::string name,
                                 Json config, JournalOptions opts)
    : journalPath(std::move(path)), campaign(std::move(name)),
      fp(fingerprint(campaign, config)), configJson(std::move(config)),
      options(std::move(opts))
{
    const auto idChar = [](unsigned char c) {
        return std::isalnum(c) || c == '.' || c == '_' || c == '-';
    };
    if (options.workerId.empty() ||
        !std::all_of(options.workerId.begin(), options.workerId.end(),
                     idChar)) {
        AERO_FATAL("journal worker id '", options.workerId,
                   "' may only contain letters, digits, and '._-' (at "
                   "least one)");
    }
    if (const char *env = std::getenv("AERO_JOURNAL_FSYNC")) {
        if (std::strcmp(env, "1") == 0)
            options.fsyncRecords = true;
        else if (std::strcmp(env, "0") == 0)
            options.fsyncRecords = false;
        else
            AERO_FATAL("AERO_JOURNAL_FSYNC must be 0 or 1, got '", env,
                       "'");
    }

    namespace fs = std::filesystem;
    const fs::path dir(journalPath);
    std::error_code ec;
    if (!fs::exists(dir, ec)) {
        // A bad journal path must fail naming the path, not surface
        // later as a raw stream failure once the first record is flushed.
        const auto parent = dir.parent_path();
        if (!parent.empty() && !fs::is_directory(parent, ec)) {
            AERO_FATAL("cannot create checkpoint '", journalPath,
                       "': parent directory '", parent.string(),
                       "' does not exist");
        }
        // Forked workers race to create the directory; losing the race
        // to a sibling is success.
        fs::create_directory(dir, ec);
        if (!fs::is_directory(dir)) {
            AERO_FATAL("cannot create checkpoint '", journalPath, "': ",
                       ec.message());
        }
    } else if (!fs::is_directory(dir, ec)) {
        AERO_FATAL("checkpoint '", journalPath,
                   "' exists and is not a journal directory (an ",
                   kSchema, " journal is a directory of "
                   "journal.<worker>.jsonl files)");
    }
    appendPath =
        (dir / ("journal." + options.workerId + ".jsonl")).string();

    JournalPin pin{campaign, fp, configJson};
    std::uint64_t keepBytes = 0;
    bool sawHeader = false;
    const auto scans = mergeJournal(
        journalPath, pin, appendPath,
        [this](const Json &key, const Json &payload) {
            insert(key, payload);
        });
    for (const auto &scan : scans) {
        if (scan.path == appendPath) {
            keepBytes = scan.goodBytes;
            sawHeader = !scan.worker.empty();
        }
    }
    openForAppend(keepBytes, /*writeHeader=*/!sawHeader);
}

CampaignJournal::~CampaignJournal()
{
    if (out)
        std::fclose(out);
#ifndef _WIN32
    if (claimsFd >= 0)
        ::close(claimsFd);
#endif
}

std::size_t
CampaignJournal::cachedCount() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return entries.size();
}

bool
CampaignJournal::has(const Json &key) const
{
    std::lock_guard<std::mutex> lock(mutex);
    return indexByKey.count(key.dump()) > 0;
}

Json
CampaignJournal::cached(const Json &key) const
{
    std::lock_guard<std::mutex> lock(mutex);
    const auto it = indexByKey.find(key.dump());
    AERO_CHECK(it != indexByKey.end(), "no journaled record for key ",
               key.dump());
    return entries[it->second].second;
}

void
CampaignJournal::forEachCached(
    const std::function<void(const Json &, const Json &)> &fn) const
{
    std::lock_guard<std::mutex> lock(mutex);
    for (const auto &[key, payload] : entries)
        fn(key, payload);
}

std::size_t
CampaignJournal::recordSyncCount() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return recordSyncs;
}

std::size_t
CampaignJournal::claimSyncCount() const
{
    std::lock_guard<std::mutex> lock(claimsMutex);
    return claimSyncs;
}

void
CampaignJournal::insert(Json key, Json payload)
{
    const std::string canonical = key.dump();
    const auto it = indexByKey.find(canonical);
    if (it != indexByKey.end()) {
        // Duplicate keys come from journal surgery or from a reaped
        // claim recomputed by another worker; last wins, matching what
        // a replaying reader would observe.
        entries[it->second].second = std::move(payload);
        return;
    }
    indexByKey.emplace(canonical, entries.size());
    entries.emplace_back(std::move(key), std::move(payload));
}

void
CampaignJournal::openForAppend(std::uint64_t keepBytes, bool writeHeader)
{
    std::error_code ec;
    const auto size = std::filesystem::file_size(appendPath, ec);
    if (!ec && size > keepBytes) {
        std::filesystem::resize_file(appendPath, keepBytes, ec);
        if (ec) {
            AERO_FATAL("cannot truncate torn tail of '", appendPath,
                       "': ", ec.message());
        }
    }
    out = std::fopen(appendPath.c_str(), "ab");
    if (!out)
        AERO_FATAL("cannot open checkpoint '", appendPath,
                   "' for appending");
#ifndef _WIN32
    // The worker file is this process's exclusive append target: a
    // second live process under the same worker id would interleave
    // torn lines. The advisory lock dies with the process, so a
    // SIGKILLed worker never wedges the next resume; a briefly
    // lingering orphan (its parent just died) gets a grace period.
    bool locked = false;
    for (int attempt = 0; attempt < 20; ++attempt) {
        if (::flock(::fileno(out), LOCK_EX | LOCK_NB) == 0) {
            locked = true;
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    if (!locked) {
        AERO_FATAL("worker '", options.workerId,
                   "' is already active on journal '", journalPath,
                   "' (another live process holds the lock on '",
                   appendPath, "')");
    }
#endif
    if (writeHeader) {
        Json header = Json::object();
        header["schema"] = kSchema;
        header["campaign"] = campaign;
        header["fingerprint"] = fp;
        header["worker"] = options.workerId;
        header["config"] = configJson;
        append(header);
    }
}

void
CampaignJournal::append(const Json &row)
{
    const std::string line = row.dump() + '\n';
    if (std::fwrite(line.data(), 1, line.size(), out) != line.size() ||
        std::fflush(out) != 0) {
        AERO_FATAL("failed writing checkpoint '", appendPath, "'");
    }
    if (options.fsyncRecords) {
#ifndef _WIN32
        if (::fsync(::fileno(out)) != 0) {
            AERO_FATAL("fsync failed on checkpoint '", appendPath,
                       "': ", std::strerror(errno));
        }
#endif
        recordSyncs += 1;
    }
}

void
CampaignJournal::record(const Json &key, Json payload)
{
    Json row = Json::object();
    row["fingerprint"] = fp;
    row["key"] = key;
    row["payload"] = payload;
    std::lock_guard<std::mutex> lock(mutex);
    append(row);
    insert(key, std::move(payload));
}

void
CampaignJournal::ensureClaimsFile()
{
#ifndef _WIN32
    if (claimsFd >= 0)
        return;
    const std::string path =
        (std::filesystem::path(journalPath) / kClaimsFile).string();
    claimsFd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (claimsFd < 0) {
        AERO_FATAL("cannot open claims file '", path, "': ",
                   std::strerror(errno));
    }
#endif
}

bool
CampaignJournal::tryClaim(const Json &key)
{
    if (!options.claims)
        return true;
#ifdef _WIN32
    return true;
#else
    std::lock_guard<std::mutex> lock(claimsMutex);
    ensureClaimsFile();
    const std::string path =
        (std::filesystem::path(journalPath) / kClaimsFile).string();
    if (::flock(claimsFd, LOCK_EX) != 0) {
        AERO_FATAL("cannot lock claims file '", path, "': ",
                   std::strerror(errno));
    }
    // flock() is advisory and per-open-file-description: the
    // process-level lock above serializes our own threads, the flock
    // serializes sibling worker processes.
    struct Unlock
    {
        int fd;
        ~Unlock() { ::flock(fd, LOCK_UN); }
    } unlock{claimsFd};

    // Re-read the whole claims file under the lock: claims appended by
    // siblings since our last look must be visible before we decide.
    const std::string text = readFileOrEmpty(path);
    const ClaimsScan scan = readClaims(path, text, fp);
    const auto it = scan.indexByKey.find(key.dump());
    if (it != scan.indexByKey.end()) {
        const CampaignClaimStatus &claim = scan.claims[it->second];
        if (claim.worker != options.workerId && pidAlive(claim.pid))
            return false;  // a live sibling owns this task
    }
    // Ours: either unclaimed, already ours (a resumed worker re-claims
    // under its current pid), or stale — the claiming pid is dead and
    // the task was never journaled, so reap it and take over. Every
    // claim is written under the lock, so a torn tail is a dead
    // writer's: cut it off, or our claim would fuse onto it.
    if (scan.goodBytes < text.size() &&
        ::ftruncate(claimsFd, static_cast<off_t>(scan.goodBytes)) != 0) {
        AERO_FATAL("cannot truncate torn tail of claims file '", path,
                   "': ", std::strerror(errno));
    }
    std::string lines;
    if (!scan.sawHeader) {
        Json header = Json::object();
        header["schema"] = kSchemaClaims;
        header["campaign"] = campaign;
        header["fingerprint"] = fp;
        lines += header.dump() + '\n';
    }
    Json row = Json::object();
    row["fingerprint"] = fp;
    row["key"] = key;
    row["worker"] = options.workerId;
    row["pid"] = static_cast<std::int64_t>(::getpid());
    lines += row.dump() + '\n';
    const off_t fileEnd = ::lseek(claimsFd, 0, SEEK_END);
    if (fileEnd < 0 ||
        ::write(claimsFd, lines.data(), lines.size()) !=
            static_cast<ssize_t>(lines.size()) ||
        ::fsync(claimsFd) != 0) {
        AERO_FATAL("failed writing claims file '", path, "': ",
                   std::strerror(errno));
    }
    claimSyncs += 1;
    return true;
#endif
}

CompactStats
compactCampaignJournal(const std::string &path)
{
    namespace fs = std::filesystem;
    CompactStats stats;
    JournalPin pin;
    std::deque<std::pair<Json, Json>> merged;
    std::unordered_map<std::string, std::size_t> indexByKey;
    const auto scans = mergeExistingJournal(
        path, pin, [&](const Json &key, const Json &payload) {
            stats.recordsIn += 1;
            const auto [it, fresh] =
                indexByKey.emplace(key.dump(), merged.size());
            if (fresh)
                merged.emplace_back(key, payload);
            else
                merged[it->second].second = payload;
        });
    stats.recordsOut = merged.size();

    const std::string outPath = (fs::path(path) / kCompactedFile).string();
    const std::string tmpPath = (fs::path(path) / ".compact.tmp").string();
    std::FILE *outFile = std::fopen(tmpPath.c_str(), "wb");
    if (!outFile)
        AERO_FATAL("cannot write compacted journal '", tmpPath, "'");
    Json header = Json::object();
    header["schema"] = kSchema;
    header["campaign"] = pin.campaign;
    header["fingerprint"] = pin.fp;
    header["worker"] = "compacted";
    header["config"] = pin.config;
    std::string body = header.dump() + '\n';
    for (const auto &[key, payload] : merged) {
        Json row = Json::object();
        row["fingerprint"] = pin.fp;
        row["key"] = key;
        row["payload"] = payload;
        body += row.dump() + '\n';
    }
    const bool wrote =
        std::fwrite(body.data(), 1, body.size(), outFile) ==
            body.size() &&
        std::fflush(outFile) == 0;
#ifndef _WIN32
    const bool synced = wrote && ::fsync(::fileno(outFile)) == 0;
#else
    const bool synced = wrote;
#endif
    std::fclose(outFile);
    if (!synced)
        AERO_FATAL("failed writing compacted journal '", tmpPath, "'");
    std::error_code ec;
    fs::rename(tmpPath, outPath, ec);
    if (ec) {
        AERO_FATAL("cannot rename compacted journal into place ('",
                   tmpPath, "' -> '", outPath, "'): ", ec.message());
    }
    // The compacted file now supersedes every merged input; removal is
    // safe at any point (a crash here only leaves files whose records
    // the merge reproduces by dedup on the next open). A file without
    // a header contributed nothing and is left as it is.
    for (const auto &scan : scans) {
        if (scan.worker.empty())
            continue;
        stats.files += 1;
        if (scan.path != outPath)
            fs::remove(scan.path, ec);
    }
    fs::remove(fs::path(path) / kClaimsFile, ec);
    return stats;
}

CampaignStatus
campaignStatus(const std::string &path)
{
    CampaignStatus status;
    status.path = path;
    JournalPin pin;
    std::unordered_set<std::string> keys;
    const auto scans = mergeExistingJournal(
        path, pin,
        [&](const Json &key, const Json &) { keys.insert(key.dump()); });
    status.campaign = pin.campaign;
    status.fingerprint = pin.fp;
    for (const auto &scan : scans) {
        if (scan.worker.empty())
            continue;  // a worker still writing its header
        status.workers.push_back(CampaignWorkerStatus{
            std::filesystem::path(scan.path).filename().string(),
            scan.worker, scan.records});
        status.records += scan.records;
    }
    status.distinctKeys = keys.size();

    const std::string claimsPath =
        (std::filesystem::path(path) / kClaimsFile).string();
    status.claims =
        readClaims(claimsPath, readFileOrEmpty(claimsPath), pin.fp).claims;
    for (auto &claim : status.claims) {
        claim.live = pidAlive(claim.pid);
        claim.completed = keys.count(claim.key.dump()) > 0;
    }
    return status;
}

std::string
formatCampaignStatus(const CampaignStatus &status)
{
    std::string out = detail::concat(
        "campaign '", status.campaign, "' (", kSchema, ") at ",
        status.path, "\n  fingerprint ", status.fingerprint, "\n  ",
        status.distinctKeys, " distinct task(s) journaled (",
        status.records, " record(s) across ", status.workers.size(),
        " file(s))\n");
    for (const auto &ws : status.workers) {
        out += detail::concat("    ", ws.file, " (worker ", ws.worker,
                              "): ", ws.records, " record(s)\n");
    }
    if (status.claims.empty())
        return out;
    std::size_t pending = 0;
    for (const auto &claim : status.claims)
        pending += claim.completed ? 0 : 1;
    out += detail::concat("  ", status.claims.size(), " claim(s), ",
                          pending, " pending\n");
    for (const auto &claim : status.claims) {
        out += detail::concat(
            "    ", claim.key.dump(), " -> worker ", claim.worker,
            " (pid ", claim.pid, ", ", claim.live ? "live" : "dead",
            "), ", claim.completed ? "completed" : "pending", "\n");
    }
    return out;
}

int
forkCampaignWorkers(int n)
{
    if (n <= 1)
        return -1;
#ifdef _WIN32
    AERO_FATAL("multi-process campaigns need POSIX fork(); run "
               "single-process or shard across machines instead");
#else
    std::vector<pid_t> children;
    children.reserve(static_cast<std::size_t>(n));
    for (int k = 0; k < n; ++k) {
        const pid_t pid = ::fork();
        if (pid < 0) {
            AERO_FATAL("fork() failed for campaign worker ", k, ": ",
                       std::strerror(errno));
        }
        if (pid == 0) {
#ifdef __linux__
            // Die with the driver: a SIGKILLed campaign must not leak
            // orphan workers that fight the next resume for journal
            // file locks.
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            if (::getppid() == 1)
                std::_Exit(127);  // driver died before prctl took hold
#endif
            return k;
        }
        children.push_back(pid);
    }
    int failures = 0;
    for (const pid_t pid : children) {
        int status = 0;
        if (::waitpid(pid, &status, 0) < 0 ||
            !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
            failures += 1;
        }
    }
    if (failures > 0) {
        AERO_WARN(failures, " of ", n, " campaign worker(s) did not "
                  "exit cleanly; completing their remaining tasks "
                  "in-process from the journal");
    }
    return -1;
#endif
}

} // namespace aero
