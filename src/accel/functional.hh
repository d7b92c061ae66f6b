/**
 * @file
 * Functional execution of a mapped tape on the accelerator.
 *
 * The cycle simulator answers "how long"; this engine answers "is the
 * mapping correct": it executes a tape's scalar operations in Q14.17
 * on the CUs chosen by Algorithm 1, moving values between CUs only
 * where the communication map says a transfer happens. An operand that
 * was never delivered to its consumer's CU is a mapping bug and
 * panics. The outputs must equal Tape::evalFixed bit-for-bit, which
 * the tests assert for every benchmark tape. Fault injection and the
 * self-check ladder live in the solver's tape path (MpcProblem), not
 * here.
 *
 * Modeling note: the CU namespace queues are functionally modeled as
 * local value stores; the 8-entry addressable window is a scheduling
 * constraint the static scheduler meets with pop/rewrite traffic and
 * is accounted for in the timing model, not here.
 */

#ifndef ROBOX_ACCEL_FUNCTIONAL_HH
#define ROBOX_ACCEL_FUNCTIONAL_HH

#include <cstddef>
#include <vector>

#include "accel/config.hh"
#include "fixed/fixed.hh"
#include "fixed/fixed_math.hh"
#include "fixed/health.hh"
#include "sym/tape.hh"

namespace robox::accel
{

/** Result of a functional run. */
struct FunctionalResult
{
    std::vector<Fixed> outputs;       //!< One value per tape output.
    std::size_t transfersApplied = 0; //!< Inter-CU deliveries used.
    std::size_t localReads = 0;       //!< Operands already resident.

    /** Numeric-integrity report for this run: saturation/div-by-zero
     *  deltas and peak magnitude over every stored word. */
    NumericHealth health;
    /** Peak |value| ever stored per tape slot, for per-variable range
     *  utilization (slot i of the tape -> slotPeakAbs[i]). */
    std::vector<double> slotPeakAbs;
};

/**
 * Map a tape with Algorithm 1 and execute it functionally.
 *
 * @param tape The compiled tape (scalar ops only, by construction).
 * @param inputs Values for the tape's variable slots.
 * @param fm LUT configuration for the nonlinear operations.
 * @param config Accelerator shape (number of CCs/CUs).
 */
FunctionalResult executeTapeMapped(const sym::Tape &tape,
                                   const std::vector<Fixed> &inputs,
                                   const FixedMath &fm,
                                   const AcceleratorConfig &config);

} // namespace robox::accel

#endif // ROBOX_ACCEL_FUNCTIONAL_HH
