/**
 * @file
 * Workload profiling: extracts the operation/byte counts that drive the
 * baseline platform models from a compiled MPC problem.
 *
 * The profile comes from the same M-DFG the accelerator executes, so
 * the baselines and RoboX are compared on an identical workload: total
 * scalar-equivalent flops per solver iteration, the serial (Riccati)
 * fraction, and the per-iteration working-set traffic in doubles.
 */

#ifndef ROBOX_PERFMODEL_PROFILE_HH
#define ROBOX_PERFMODEL_PROFILE_HH

#include "mpc/problem.hh"
#include "perfmodel/platforms.hh"

namespace robox::perfmodel
{

/**
 * Profile one MPC problem.
 *
 * @param problem The compiled problem.
 * @param iterations IPM iterations per controller invocation (use the
 *        solver's measured count, or the benchmark default).
 * @param slice_stages Stage slice used to build the M-DFG (scaled
 *        linearly to the full horizon, as in the accelerator flow,
 *        which overstates op counts by 0.08-0.45% at N = 256-1024).
 *        Clamped into [1, horizon]; non-positive values additionally
 *        trip a debug assertion.
 */
WorkloadProfile profileProblem(const mpc::MpcProblem &problem,
                               int iterations, int slice_stages = 32);

} // namespace robox::perfmodel

#endif // ROBOX_PERFMODEL_PROFILE_HH
