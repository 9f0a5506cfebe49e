/**
 * @file
 * Fail-bit-count-based Erase Latency Prediction (FELP, paper section 4).
 *
 * Given the fail-bit count of the previous verify-read, FELP predicts the
 * minimum pulse time of the next erase loop from the EPT. With the
 * ECC-margin optimization enabled it additionally computes how many slots
 * of erasure may be left *undone*: the expected extra raw bit errors of
 * the leftover must fit inside the block's current ECC-capability margin
 * (requirement - predicted base RBER - safety pad).
 */

#ifndef AERO_CORE_FELP_HH
#define AERO_CORE_FELP_HH

#include <array>
#include <cstddef>

#include "core/ept.hh"
#include "nand/wear_model.hh"

namespace aero
{

struct FelpConfig
{
    bool useEccMargin = true;   //!< false = AERO-CONS behaviour
    double marginPad = 18.0;    //!< bits held back from the margin
    int rberRequirement = 63;   //!< bits per 1 KiB (Fig. 17 sweeps this)
};

struct FelpPrediction
{
    int slots = 7;                 //!< pulse length for the next loop
    double allowedLeftover = 0.0;  //!< slots of incompleteness accepted
    bool reduced = false;          //!< slots < default
    int range = 8;                 //!< fail-bit range index consulted
};

class Felp
{
  public:
    Felp(const ChipParams &params, const WearModel &wear, Ept ept,
         const FelpConfig &cfg);

    /**
     * Predict the next loop's pulse time.
     *
     * @param next_loop  1-based index of the loop being predicted (the
     *                   remainder pulse of shallow erasure is loop 1)
     * @param fail_bits  F from the previous verify-read
     * @param block_pec  the block's nominal PEC (margin sizing)
     */
    FelpPrediction predict(int next_loop, double fail_bits,
                           double block_pec) const;

    /**
     * Slots of leftover whose residual RBER still fits the block's margin
     * (0 when the margin optimization is disabled or exhausted).
     * Memoized per PEC value in a small direct-mapped table, so a block
     * PEC seen before skips the margin bisection; results are identical
     * to recomputing. The memo makes a Felp unsafe to share between
     * threads (each scheme owns its own).
     */
    double allowedLeftoverSlots(double block_pec) const;

    const Ept &ept() const { return table; }
    const FelpConfig &config() const { return cfg; }

  private:
    /** The uncached allowedLeftoverSlots(). */
    double solveLeftoverSlots(double block_pec) const;

    /** One memo line; pec -1 never matches (PECs are non-negative). */
    struct MemoEntry
    {
        double pec = -1.0;
        double slots = 0.0;
    };

    static constexpr std::size_t kMemoEntries = 64;  //!< power of two

    const ChipParams &chip;
    const WearModel &wear;
    Ept table;
    FelpConfig cfg;
    mutable std::array<MemoEntry, kMemoEntries> memo{};
};

} // namespace aero

#endif // AERO_CORE_FELP_HH
