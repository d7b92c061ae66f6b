/**
 * @file
 * Deterministic seeded fault injection for the accelerator datapath.
 *
 * Soft errors (single-event upsets) in the register file, scratchpad,
 * or interconnect of an accelerator silently corrupt values; on a
 * control accelerator such a flip propagates into an actuator command.
 * This engine makes such upsets *injectable and reproducible*: a
 * FaultCampaign describes where/when/how often bits flip, and the
 * decision for each storage access is a pure function of
 * (seed, site, cycle, word) — no internal RNG stream — so a campaign
 * replays bitwise identically regardless of thread scheduling or the
 * order in which robots are solved.
 *
 * Wiring: the solver's fixed-point tape path attaches the engine
 * through FaultInjector::tapeHook() (see MpcProblem::setTapeFaultHook),
 * which upsets the quantized environment words before each tape
 * evaluation. With MpcOptions::accelSelfCheck on, MpcProblem's
 * self-check ladder (fixed/selfcheck.hh) catches and repairs what it
 * strikes.
 */

#ifndef ROBOX_ACCEL_FAULTS_HH
#define ROBOX_ACCEL_FAULTS_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "fixed/fixed.hh"

namespace robox::accel
{

/** Storage structure a fault strikes. Values are bit positions so a
 *  campaign can select sites with a mask (FaultCampaign::siteMask). */
enum class FaultSite : std::uint32_t
{
    RegisterFile = 1u << 0, //!< CU-local result registers.
    Scratchpad = 1u << 1,   //!< Access-engine scratchpad words.
    Interconnect = 1u << 2, //!< Messages between CUs.
};

/**
 * Specification of one reproducible fault campaign.
 *
 * Every field participates in the injection decision, which is a pure
 * hash of (seed, site, cycle, word): two runs with an equal campaign
 * see equal faults.
 */
struct FaultCampaign
{
    /** Seed for the decision hash; distinct seeds give statistically
     *  independent campaigns. */
    std::uint64_t seed = 1;
    /** Probability that any single qualifying access is upset. */
    double upsetRate = 0.0;
    /** OR of FaultSite values that may be struck. */
    std::uint32_t siteMask = static_cast<std::uint32_t>(
                                 FaultSite::RegisterFile) |
                             static_cast<std::uint32_t>(
                                 FaultSite::Scratchpad) |
                             static_cast<std::uint32_t>(
                                 FaultSite::Interconnect);
    /** Restrict strikes to one word index (-1 = any word). */
    std::int64_t targetWord = -1;
    /** Force the flipped bit position (-1 = hash-chosen bit 0..31). */
    int targetBit = -1;
    /** First cycle (inclusive) at which faults may occur. */
    std::uint64_t cycleBegin = 0;
    /** One past the last strikeable cycle (exclusive): an access at
     *  cycle == cycleEnd is never struck, and cycleBegin == cycleEnd
     *  is an empty window that strikes nothing. The default covers
     *  every representable cycle. */
    std::uint64_t cycleEnd = std::uint64_t(-1);
    /** Stop injecting after this many faults (0 = unlimited). The
     *  budget is consulted before each access, so exactly maxFaults
     *  flips land: the access that would be flip maxFaults + 1 passes
     *  through unmodified even if its hash qualifies. */
    std::uint64_t maxFaults = 0;

    bool operator==(const FaultCampaign &o) const = default;
};

/** Record of one injected upset, for logs and reproducibility checks. */
struct InjectedFault
{
    std::uint64_t cycle = 0;
    FaultSite site = FaultSite::RegisterFile;
    std::uint64_t word = 0;
    int bit = 0;
    std::int32_t before = 0; //!< Raw Q14.17 word before the flip.
    std::int32_t after = 0;  //!< Raw word after the flip.

    bool operator==(const InjectedFault &o) const = default;
};

/**
 * Applies a FaultCampaign to a stream of storage accesses.
 *
 * Not thread safe: the fault log and maxFaults budget are plain
 * members. Give each concurrently-solved robot its own injector (the
 * decision function is stateless, so injectors sharing a campaign
 * behave as one campaign split across robots when their words/cycles
 * are disjoint).
 */
class FaultInjector
{
  public:
    explicit FaultInjector(const FaultCampaign &campaign)
        : campaign_(campaign)
    {}

    /**
     * Filter one storage access. Returns the value with at most one
     * bit flipped; logs the fault when a flip happens.
     *
     * @param value The fault-free word being stored/moved.
     * @param site Which structure the word lives in.
     * @param cycle Logical time of the access (the tape-eval counter
     *              for the solver hook). Any monotone access index
     *              works as long as both runs of a campaign use the
     *              same convention.
     * @param word Address of the access within the site.
     */
    Fixed access(Fixed value, FaultSite site, std::uint64_t cycle,
                 std::uint64_t word);

    /**
     * Pure decision function: would (site, cycle, word) be struck
     * under this campaign, ignoring the maxFaults budget? Exposed so
     * tests can audit determinism without mutating the injector.
     * Returns the bit to flip, or -1 for no fault.
     */
    int faultBitAt(FaultSite site, std::uint64_t cycle,
                   std::uint64_t word) const;

    /** All faults injected so far, in access order. */
    const std::vector<InjectedFault> &log() const { return log_; }

    /** Number of faults injected so far. */
    std::uint64_t faultsInjected() const { return log_.size(); }

    /** Forget all injected faults (campaign unchanged), so one
     *  injector can serve a fresh identical run. */
    void reset() { log_.clear(); }

    const FaultCampaign &campaign() const { return campaign_; }

    /**
     * Adapt this injector to MpcProblem::setTapeFaultHook: the
     * returned callable upsets the quantized environment words of one
     * tape evaluation (treated as Scratchpad accesses, word = slot
     * index) and returns how many faults it injected.
     */
    std::function<std::uint64_t(std::vector<Fixed> &, std::uint64_t)>
    tapeHook();

  private:
    FaultCampaign campaign_;
    std::vector<InjectedFault> log_;
};

} // namespace robox::accel

#endif // ROBOX_ACCEL_FAULTS_HH
