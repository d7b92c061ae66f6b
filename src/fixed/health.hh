/**
 * @file
 * NumericHealth: a per-run report of fixed-point numeric integrity.
 *
 * The Q14.17 accelerator datapath trades dynamic range for speed, which
 * is exactly the regime where silent saturation, division blow-ups, and
 * soft errors (bit flips) corrupt control outputs without any exception
 * firing. Every fixed-point execution engine in RoboX — the functional
 * accelerator simulator (accel/functional.hh) and the solver's
 * fixed-point tape path (MpcOptions::fixedPointTapes) — fills one of
 * these reports per run so the control layer can decide whether the
 * result is trustworthy.
 *
 * This header lives in src/fixed (below both mpc and accel in the
 * dependency graph) so the solver can embed a NumericHealth in
 * SolveStats while the accelerator library renders it through
 * accel::formatNumericHealth without creating a dependency cycle.
 */

#ifndef ROBOX_FIXED_HEALTH_HH
#define ROBOX_FIXED_HEALTH_HH

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "fixed/fixed.hh"
#include "fixed/selfcheck.hh"

namespace robox
{

/**
 * Numeric-integrity statistics of one fixed-point execution (one
 * functional-simulator run, or one accelerator-path solve()).
 *
 * Saturation / div-by-zero counts come from the Fixed arithmetic
 * flags; peak magnitude is tracked by the executing engine over every
 * value it stores; the cross-check fields are filled when a
 * double-precision golden model ran alongside the fixed-point path
 * (MpcOptions::crossCheckFixedPoint).
 */
struct NumericHealth
{
    /** Saturating-arithmetic events (includes div-by-zero and NaN
     *  conversions; see Fixed::saturationCount). */
    std::uint64_t saturations = 0;
    /** Division-by-zero events (subset of saturations). */
    std::uint64_t divByZeros = 0;
    /** Fixed-point tape evaluations covered by this report. */
    std::uint64_t tapeEvals = 0;
    /** Faults injected by an attached accel::FaultInjector. */
    std::uint64_t faultsInjected = 0;

    /** Peak |value| observed across all stored fixed-point words. */
    double peakAbs = 0.0;

    /** Golden-model comparisons performed (0 = cross-check off). */
    std::uint64_t crossChecks = 0;
    /** Max |fixed - golden| over all compared words. */
    double maxAbsError = 0.0;
    /** Words whose divergence exceeded the warn band. */
    std::uint64_t toleranceWarnings = 0;
    /** Words whose divergence exceeded the fail band. A non-zero
     *  count classifies the run as numerically degraded. */
    std::uint64_t toleranceBreaches = 0;

    /** On-line detection/recovery counters (parity, ladder rungs);
     *  see fixed/selfcheck.hh. All zero when self-checking execution
     *  is disabled. */
    SelfCheckStats selfCheck;

    /** Fraction of the representable Q14.17 magnitude ever used;
     *  values near 1.0 mean the workload is about to saturate. */
    double rangeUtilization() const { return peakAbs / Fixed::maxAbs; }

    /** True when the golden cross-check classified the run as
     *  diverged beyond the fail tolerance band. */
    bool degraded() const { return toleranceBreaches > 0; }

    /** Track one stored value's magnitude. */
    void
    trackValue(double v)
    {
        double a = std::abs(v);
        if (a > peakAbs)
            peakAbs = a;
    }

    /** Accumulate another report into this one (e.g. per-robot reports
     *  into a batch aggregate). */
    void
    merge(const NumericHealth &o)
    {
        saturations += o.saturations;
        divByZeros += o.divByZeros;
        tapeEvals += o.tapeEvals;
        faultsInjected += o.faultsInjected;
        peakAbs = std::max(peakAbs, o.peakAbs);
        crossChecks += o.crossChecks;
        maxAbsError = std::max(maxAbsError, o.maxAbsError);
        toleranceWarnings += o.toleranceWarnings;
        toleranceBreaches += o.toleranceBreaches;
        selfCheck.merge(o.selfCheck);
    }

    /** Bitwise equality; fault campaigns assert reproducibility with
     *  this. */
    bool operator==(const NumericHealth &o) const = default;
};

} // namespace robox

#endif // ROBOX_FIXED_HEALTH_HH
