/**
 * @file
 * Implementation of MPC workload profiling.
 */

#include "perfmodel/profile.hh"

#include <algorithm>

#include "support/logging.hh"
#include "translator/workload.hh"

namespace robox::perfmodel
{

WorkloadProfile
profileProblem(const mpc::MpcProblem &problem, int iterations,
               int slice_stages)
{
    // A non-positive slice would build an empty M-DFG and then divide
    // by zero in the horizon rescale below. Catch it loudly in debug
    // builds and clamp into [1, horizon] in release builds.
    robox_assert_dbg(slice_stages > 0);
    int slice = std::clamp(slice_stages, 1, problem.horizon());
    translator::Workload wl =
        translator::buildSolverIteration(problem, slice);
    mdfg::GraphStats stats = wl.graph.stats();

    double scale = static_cast<double>(problem.horizon()) / slice;

    WorkloadProfile profile;
    profile.iterations = iterations;
    profile.horizon = problem.horizon();
    profile.flopsPerIteration = stats.totalOps * scale;

    // Baselines run in double precision: 8 bytes per word, and the
    // stage intermediates are written once and read once per iteration.
    double ws_bytes_double = 2.0 * wl.bytesWorkingSetPerStage;
    profile.workingSetBytes = ws_bytes_double * problem.horizon();
    profile.bytesPerIteration = 2.0 * profile.workingSetBytes;

    return profile;
}

} // namespace robox::perfmodel
