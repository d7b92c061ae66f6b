/**
 * @file
 * Self-checking execution vocabulary: the parity bit and the
 * per-run SelfCheckStats report.
 *
 * The fault-injection harness (accel/faults.hh) makes accelerator
 * upsets injectable; this header names how the solver's fixed-point
 * tape path catches and repairs them on-line. With
 * MpcOptions::accelSelfCheck on, MpcProblem gives every quantized
 * environment word a parity bit at host write time and checks it when
 * the accelerator reads the word. A detection climbs one escalating
 * recovery ladder: re-execute the evaluation, reload the program image
 * and re-execute, then fall back to the CPU double-precision path. A
 * strike so degrades service within one control period instead of
 * silently poisoning an actuator command.
 *
 * Like fixed/health.hh, this lives below mpc in the dependency graph:
 * the solver embeds a SelfCheckStats in its NumericHealth.
 */

#ifndef ROBOX_FIXED_SELFCHECK_HH
#define ROBOX_FIXED_SELFCHECK_HH

#include <cstdint>

namespace robox
{

/** Even parity bit (0/1) of a 32-bit storage word. */
inline int
parity32(std::uint32_t word)
{
    word ^= word >> 16;
    word ^= word >> 8;
    word ^= word >> 4;
    word ^= word >> 2;
    word ^= word >> 1;
    return static_cast<int>(word & 1u);
}

/**
 * Detection/recovery counters of one self-checked execution. Embedded
 * in NumericHealth so the report rides SolveStats into BatchReport and
 * batchMetricsJson without new plumbing.
 */
struct SelfCheckStats
{
    std::uint64_t parityChecks = 0; //!< Words parity-verified on read.
    std::uint64_t parityErrors = 0; //!< Words caught corrupted.
    std::uint64_t reexecutions = 0; //!< Ladder rung 1 resolutions.
    std::uint64_t reloads = 0;      //!< Ladder rung 2 resolutions.
    std::uint64_t cpuFallbacks = 0; //!< Ladder rung 3 resolutions.

    /** Accumulate another report (e.g. per-robot into a batch). */
    void
    merge(const SelfCheckStats &o)
    {
        parityChecks += o.parityChecks;
        parityErrors += o.parityErrors;
        reexecutions += o.reexecutions;
        reloads += o.reloads;
        cpuFallbacks += o.cpuFallbacks;
    }

    bool operator==(const SelfCheckStats &o) const = default;
};

} // namespace robox

#endif // ROBOX_FIXED_SELFCHECK_HH
