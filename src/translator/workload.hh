/**
 * @file
 * WorkloadBuilder: lowers one interior-point solver iteration of an
 * MpcProblem into a macro dataflow graph plus a memory-traffic budget.
 *
 * This is the Program Translator's architectural half (Sec. VII): the
 * solver template is "invariant yet parameterized" code, so one
 * iteration expands into a fixed graph shape whose sizes are set by the
 * robot dimensions and horizon. The M-DFG covers all six workload
 * phases per iteration:
 *
 *   dynamics/cost/constraint tape evaluation per stage (SCALAR nodes,
 *   embarrassingly parallel across stages), stage Hessian assembly
 *   (GROUP dot products), the Riccati backward factorization (Cholesky
 *   chains and matrix products; sequential across stages), and the
 *   forward rollout with slack/dual updates.
 *
 * Because the schedule is statically repeated every iteration and every
 * controller invocation, a graph built for a slice of `stages` stages
 * plus the true stage count lets accel::extrapolate scale the slice's
 * cycles linearly to the full horizon. That scaling is approximate: it
 * also scales the slice's one-time fill and drain, and overstates
 * cycles by +0.39% to +2.44% at N = 1024 against a full simulation.
 */

#ifndef ROBOX_TRANSLATOR_WORKLOAD_HH
#define ROBOX_TRANSLATOR_WORKLOAD_HH

#include <cstdint>

#include "mdfg/mdfg.hh"
#include "mpc/problem.hh"

namespace robox::translator
{

/** One solver iteration lowered to an M-DFG. */
struct Workload
{
    mdfg::Graph graph;

    int stages = 0;       //!< Stages materialized in the graph.
    int horizon = 0;      //!< True horizon length N.
    int nx = 0;
    int nu = 0;

    /** External memory traffic per materialized stage (bytes, 32-bit
     *  words): trajectory, references, slacks/duals in; updates out. */
    std::uint64_t bytesInPerStage = 0;
    std::uint64_t bytesOutPerStage = 0;
    /** Traffic independent of the horizon (references, terminal). */
    std::uint64_t bytesFixed = 0;

    /**
     * Per-stage intermediate working set (Jacobians, Hessian blocks,
     * gains) in bytes. When horizon * working set exceeds the on-chip
     * memory, the access engine must spill and refetch these between
     * the assembly and factorization phases (drives Fig. 12).
     */
    std::uint64_t bytesWorkingSetPerStage = 0;

    /** Total scalar-equivalent operations in the graph. */
    std::uint64_t totalOps() const { return graph.stats().totalOps; }
};

/**
 * Build the M-DFG of one solver iteration.
 *
 * @param problem The compiled MPC problem.
 * @param stages Number of horizon stages to materialize (defaults to
 *        the full horizon; pass a smaller slice for long horizons and
 *        extrapolate cycle counts linearly, which is approximate because
 *        the slice's one-time fill and drain scale with it).
 */
Workload buildSolverIteration(const mpc::MpcProblem &problem,
                              int stages = -1);

} // namespace robox::translator

#endif // ROBOX_TRANSLATOR_WORKLOAD_HH
