#!/usr/bin/env python3
"""Self-test of the replay benchmark harness.

Runs every workload in workloads.json on the tiny() drive at a few
hundred requests, untraced and traced, and asserts that

  * the last output line is the result object with exactly the keys
    correct / attempted / failed / metrics, and the run is correct;
  * the metric names and units printed match BENCHMARK.json's
    end_to_end (untraced) and per_layer (traced) lists;
  * every check, deliberately broken, raises failed_ratio above 0;
  * with only BENCHMARK.json and perfbench/ present, run.py fails
    without printing a result.

    python3 perfbench/selftest.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TINY = ["--drive", "tiny", "--requests", "300", "--seconds", "1"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

failures = []


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def run(args, cwd=ROOT):
    r = subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                       capture_output=True, text=True, timeout=900)
    lines = r.stdout.strip().splitlines()
    result = None
    if r.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return r, result


def failed_ratio_line(stdout):
    for line in stdout.splitlines():
        parts = line.split()
        if parts and parts[0] == "failed_ratio":
            return float(parts[1])
    return None


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    workloads = json.loads((HERE / "workloads.json").read_text())
    for w in bench["workloads"]:
        expect(w["name"] in workloads["workloads"],
               f"BENCHMARK.json workload {w['name']} is defined")

    for name in workloads["workloads"]:
        for trace in (0, 1):
            r, res = run(["--workload", name, "--seed", "3",
                          "--trace", str(trace)] + TINY)
            tag = f"{name} --trace {trace}"
            expect(res is not None and set(res) == RESULT_KEYS,
                   f"{tag}: result line with exactly {sorted(RESULT_KEYS)}")
            if res is None:
                sys.stderr.write(r.stderr[-2000:])
                continue
            expect(res["correct"] and res["failed"] == 0 and
                   res["attempted"] >= 1, f"{tag}: correct, failed 0")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == want[trace],
                   f"{tag}: metric names and units match BENCHMARK.json")
            expect(all(isinstance(v["value"], (int, float))
                       for v in res["metrics"].values()),
                   f"{tag}: every value is a number")
            expect(failed_ratio_line(r.stdout) == 0.0,
                   f"{tag}: failed_ratio 0 printed")

    for check, trace in (("completion", 0), ("tenants", 0),
                         ("determinism", 0), ("traced_equal", 1)):
        r, res = run(["--workload", "prxy", "--seed", "3", "--trace",
                      str(trace), "--break-check", check] + TINY)
        ratio = failed_ratio_line(r.stdout)
        expect(res is not None and not res["correct"] and
               res["failed"] > 0 and ratio is not None and ratio > 0,
               f"broken check '{check}' raises failed_ratio "
               f"(got {ratio})")

    # The same files alone, without the sources they build from.
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    r, res = run(["--workload", "prxy", "--seed", "3", "--trace", "0",
                  "--seconds", "1"], cwd=bare)
    expect(r.returncode != 0 and not r.stdout.strip(),
           "without the repository sources: non-zero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
