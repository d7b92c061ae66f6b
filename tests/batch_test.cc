/**
 * @file
 * Tests for the batched multi-robot MPC engine: determinism of the
 * worker pool against serial solves, warm-start behavior through the
 * batch interface, and the allocation-free steady-state contract.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "dsl/sema.hh"
#include "mpc/batch.hh"
#include "support/alloc_hook.hh"

namespace robox::mpc
{
namespace
{

const char *kDoubleIntegrator = R"(
System DoubleIntegrator( param a_max ) {
  state pos, vel;
  input acc;
  pos.dt = vel;
  vel.dt = acc;
  acc.lower_bound <= -a_max;
  acc.upper_bound <= a_max;
  Task moveTo( reference target, param w_pos, param w_u ) {
    penalty track, effort;
    track.running = pos - target;
    track.weight <= w_pos;
    effort.running = acc;
    effort.weight <= w_u;
    penalty final_pos, final_vel;
    final_pos.terminal = pos - target;
    final_pos.weight <= 10 * w_pos;
    final_vel.terminal = vel;
    final_vel.weight <= w_pos;
  }
}
reference target;
DoubleIntegrator plant(1.0);
plant.moveTo(target, 1.0, 0.05);
)";

MpcOptions
smallOptions(int horizon = 20)
{
    MpcOptions opt;
    opt.horizon = horizon;
    opt.dt = 0.1;
    opt.maxIterations = 60;
    return opt;
}

/** Distinct per-robot initial states and references. */
void
makeFleetInputs(std::size_t robots, std::vector<Vector> &states,
                std::vector<Vector> &refs)
{
    states.clear();
    refs.clear();
    for (std::size_t i = 0; i < robots; ++i) {
        double s = static_cast<double>(i);
        states.push_back(Vector{0.1 * s, -0.03 * s});
        refs.push_back(Vector{1.0 + 0.2 * s});
    }
}

// The determinism contract: a batch of 8 robots on 4 worker threads is
// bitwise identical to 8 serial solves, across several warm-started
// control periods.
TEST(Batch, MatchesSerialSolvesBitwise)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    const MpcOptions opt = smallOptions();
    constexpr std::size_t kRobots = 8;

    BatchController batch(model, opt, kRobots, 4);
    std::vector<IpmSolver> serial;
    serial.reserve(kRobots);
    for (std::size_t i = 0; i < kRobots; ++i)
        serial.emplace_back(model, opt);

    std::vector<Vector> states, refs;
    makeFleetInputs(kRobots, states, refs);

    for (int round = 0; round < 3; ++round) {
        const auto &results = batch.solveAll(states, refs);
        ASSERT_EQ(results.size(), kRobots);
        for (std::size_t i = 0; i < kRobots; ++i) {
            const IpmSolver::Result serial_result =
                serial[i].solve(states[i], refs[i]);
            const IpmSolver::Result &batched = results[i];
            EXPECT_EQ(batched.iterations, serial_result.iterations);
            EXPECT_EQ(batched.converged, serial_result.converged);
            EXPECT_EQ(batched.objective, serial_result.objective);
            ASSERT_EQ(batched.u0.size(), serial_result.u0.size());
            for (std::size_t j = 0; j < batched.u0.size(); ++j)
                EXPECT_EQ(batched.u0[j], serial_result.u0[j]);

            // Full planned trajectories, not just the first input.
            const auto &bxs = batch.solver(i).stateTrajectory();
            const auto &sxs = serial[i].stateTrajectory();
            ASSERT_EQ(bxs.size(), sxs.size());
            for (std::size_t k = 0; k < bxs.size(); ++k)
                for (std::size_t j = 0; j < bxs[k].size(); ++j)
                    EXPECT_EQ(bxs[k][j], sxs[k][j]);
        }
        // Advance every robot a little so the next round warm-starts.
        for (std::size_t i = 0; i < kRobots; ++i) {
            states[i][0] += 0.01;
            states[i][1] += 0.005;
        }
    }

    const BatchReport &report = batch.report();
    EXPECT_EQ(report.robots, kRobots);
    EXPECT_EQ(report.batches, 3u);
    EXPECT_EQ(report.solves, 3u * kRobots);
    EXPECT_GT(report.totalIterations, 0u);
    EXPECT_GT(report.totalKktFlops, 0u);
    EXPECT_GT(report.lastBatchSeconds, 0.0);
    EXPECT_GT(report.robotsPerSecond, 0.0);
}

// An inline (single-thread) controller must behave identically too.
TEST(Batch, InlineControllerMatchesThreaded)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    const MpcOptions opt = smallOptions();
    constexpr std::size_t kRobots = 4;

    BatchController inline_batch(model, opt, kRobots, 1);
    BatchController threaded(model, opt, kRobots, 3);
    EXPECT_EQ(inline_batch.numThreads(), 0u);
    EXPECT_EQ(threaded.numThreads(), 3u);

    std::vector<Vector> states, refs;
    makeFleetInputs(kRobots, states, refs);
    const auto &a = inline_batch.solveAll(states, refs);
    const auto &b = threaded.solveAll(states, refs);
    for (std::size_t i = 0; i < kRobots; ++i) {
        EXPECT_EQ(a[i].objective, b[i].objective);
        for (std::size_t j = 0; j < a[i].u0.size(); ++j)
            EXPECT_EQ(a[i].u0[j], b[i].u0[j]);
    }
}

// Warm starting carries through solveAll: a repeat of the same batch
// needs no more iterations than the cold one, and resetAll() drops the
// warm start again.
TEST(Batch, WarmStartReducesBatchIterations)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    BatchController batch(model, smallOptions(30), 4, 2);

    std::vector<Vector> states, refs;
    makeFleetInputs(4, states, refs);

    auto batch_iterations = [&] {
        std::uint64_t total = 0;
        for (std::size_t i = 0; i < batch.numRobots(); ++i)
            total += static_cast<std::uint64_t>(
                batch.solver(i).lastStats().iterations);
        return total;
    };

    batch.solveAll(states, refs);
    std::uint64_t cold = batch_iterations();
    batch.solveAll(states, refs);
    std::uint64_t warm = batch_iterations();
    EXPECT_LT(warm, cold);

    batch.resetAll();
    batch.solveAll(states, refs);
    EXPECT_EQ(batch_iterations(), cold);
}

// The allocation-free contract: solve() performs zero heap
// allocations from the first (cold) solve on, with either KKT backend
// (checked by the counting operator-new hook).
TEST(Batch, SteadyStateSolveIsAllocationFree)
{
    if (!support::allocCountingActive())
        GTEST_SKIP() << "allocation counting hook not linked";

    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    for (KktSolver backend : {KktSolver::Riccati, KktSolver::Dense}) {
        MpcOptions opt = smallOptions();
        opt.kktSolver = backend;
        IpmSolver solver(model, opt);
        const Vector ref{1.0};
        solver.solve(Vector{0.0, 0.0}, ref);
        EXPECT_EQ(solver.lastStats().heapAllocations, 0u); // Cold start.
        solver.solve(Vector{0.01, 0.02}, ref);
        solver.solve(Vector{0.02, 0.04}, ref);
        EXPECT_EQ(solver.lastStats().heapAllocations, 0u);
    }
}

TEST(Batch, SteadyStateBatchIsAllocationFree)
{
    if (!support::allocCountingActive())
        GTEST_SKIP() << "allocation counting hook not linked";

    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    BatchController batch(model, smallOptions(), 4, 2);
    std::vector<Vector> states, refs;
    makeFleetInputs(4, states, refs);
    batch.solveAll(states, refs);
    batch.solveAll(states, refs);
    batch.solveAll(states, refs);
    EXPECT_EQ(batch.report().lastBatchAllocations, 0u);
}

} // namespace
} // namespace robox::mpc
