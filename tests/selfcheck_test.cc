/**
 * @file
 * Tests for self-checking execution: the solver's fixed-point tape
 * path catching parity upsets and climbing its recovery ladder
 * (re-execute, reload, CPU fallback), the AccelFault routing through
 * BatchController, and the cycle simulator's watchdogs and hard cycle
 * cap.
 */

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "accel/faults.hh"
#include "accel/simulator.hh"
#include "accel/trace.hh"
#include "compiler/mapper.hh"
#include "dsl/sema.hh"
#include "fixed/selfcheck.hh"
#include "mpc/batch.hh"
#include "mpc/failsafe.hh"
#include "mpc/ipm.hh"
#include "mpc/status.hh"
#include "robots/robots.hh"
#include "translator/workload.hh"

namespace robox
{
namespace
{

using accel::AcceleratorConfig;
using accel::FaultCampaign;
using accel::FaultInjector;

mpc::MpcProblem
makeProblem(const std::string &name, int horizon)
{
    const robots::Benchmark &bench = robots::benchmark(name);
    dsl::ModelSpec model = robots::analyzeBenchmark(bench);
    mpc::MpcOptions opt = bench.options;
    opt.horizon = horizon;
    return mpc::MpcProblem(model, opt);
}

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
  }
}
reference target;
DoubleIntegrator plant(1.0);
plant.moveTo(target, 1.0, 0.05);
)";

mpc::MpcOptions
selfCheckOptions()
{
    mpc::MpcOptions opt;
    opt.horizon = 12;
    opt.dt = 0.1;
    opt.fixedPointTapes = true;
    opt.crossCheckFixedPoint = true;
    opt.accelSelfCheck = true;
    return opt;
}

// ---------------------------------------------------------------------
// Cycle-simulator watchdogs and the hard cycle cap.
// ---------------------------------------------------------------------

TEST(SelfCheck, WatchdogBudgetZeroChangesNothing)
{
    mpc::MpcProblem prob = makeProblem("Quadrotor", 8);
    translator::Workload wl = translator::buildSolverIteration(prob, 8);
    AcceleratorConfig cfg;
    compiler::ProgramMap map = compiler::mapGraph(wl.graph, cfg);

    const accel::CycleStats base = accel::simulate(wl, map, cfg);
    EXPECT_EQ(base.watchdogTrips(), 0u);
    EXPECT_FALSE(base.cycleLimitHit);

    // Arming the watchdog is observation only: timing is unchanged.
    AcceleratorConfig armed = cfg;
    armed.watchdogBudgetCycles = 1;
    const accel::CycleStats watched = accel::simulate(wl, map, armed);
    EXPECT_EQ(watched.cycles, base.cycles);
    EXPECT_EQ(watched.computeCycles, base.computeCycles);
}

TEST(SelfCheck, TightWatchdogBudgetTripsOnCongestedInterconnect)
{
    mpc::MpcProblem prob = makeProblem("Quadrotor", 8);
    AcceleratorConfig cfg;
    cfg.watchdogBudgetCycles = 1;
    translator::Workload wl = translator::buildSolverIteration(prob, 8);
    compiler::ProgramMap map = compiler::mapGraph(wl.graph, cfg);

    accel::Trace trace;
    const accel::CycleStats stats =
        accel::simulate(wl, map, cfg, &trace);
    EXPECT_GT(stats.watchdogTrips(), 0u);

    // Each trip leaves an accel-category instant marker in the trace.
    bool found = false;
    for (const accel::TraceMarker &m : trace.markers())
        found = found || m.name.rfind("watchdog:", 0) == 0;
    EXPECT_TRUE(found);
}

TEST(SelfCheck, HardCycleCapBreaksRunawaySimulations)
{
    mpc::MpcProblem prob = makeProblem("Quadrotor", 8);
    AcceleratorConfig cfg;
    translator::Workload wl = translator::buildSolverIteration(prob, 8);
    compiler::ProgramMap map = compiler::mapGraph(wl.graph, cfg);
    const accel::CycleStats full = accel::simulate(wl, map, cfg);
    ASSERT_GT(full.cycles, 100u);

    AcceleratorConfig capped = cfg;
    capped.maxSimCycles = 100;
    accel::Trace trace;
    const accel::CycleStats cut =
        accel::simulate(wl, map, capped, &trace);
    EXPECT_TRUE(cut.cycleLimitHit);
    EXPECT_LT(cut.cycles, full.cycles);

    bool found = false;
    for (const accel::TraceMarker &m : trace.markers())
        found = found || m.name == "cycle-limit";
    EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------
// Solver integration: the ladder inside the fixed-point tape path.
// ---------------------------------------------------------------------

TEST(SelfCheck, SolverWithSelfCheckAndNoFaultsMatchesBaselineBitwise)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    mpc::MpcOptions base = selfCheckOptions();
    base.accelSelfCheck = false;
    mpc::IpmSolver plain(model, base);
    mpc::IpmSolver checked(model, selfCheckOptions());

    auto a = plain.solve(Vector{0.1, -0.05}, Vector{1.0});
    auto b = checked.solve(Vector{0.1, -0.05}, Vector{1.0});
    EXPECT_EQ(a.status, b.status);
    ASSERT_EQ(a.u0.size(), b.u0.size());
    for (std::size_t i = 0; i < a.u0.size(); ++i)
        EXPECT_EQ(a.u0[i], b.u0[i]);
    EXPECT_EQ(checked.lastStats().numeric.selfCheck.parityErrors, 0u);
    EXPECT_EQ(checked.lastStats().numeric.selfCheck.cpuFallbacks, 0u);
}

TEST(SelfCheck, SolverRecoversTransientUpsetsSilently)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    mpc::IpmSolver solver(model, selfCheckOptions());

    // Two strikes total on environment word 0 (bit 21 = +-16.0 in
    // Q14.17): each is caught by parity and retried; the retry budget
    // outlasts the fault budget, so the solve is never condemned.
    FaultCampaign campaign;
    campaign.seed = 5;
    campaign.upsetRate = 1.0;
    campaign.targetWord = 0;
    campaign.targetBit = 21;
    campaign.maxFaults = 2;
    FaultInjector injector(campaign);
    solver.setTapeFaultHook(injector.tapeHook());

    auto result = solver.solve(Vector{0.01, 0.0}, Vector{1.0});
    EXPECT_EQ(result.status, mpc::SolveStatus::Converged);
    const SelfCheckStats &sc = solver.lastStats().numeric.selfCheck;
    EXPECT_EQ(sc.parityErrors, 2u);
    EXPECT_GE(sc.reexecutions, 1u);
    EXPECT_EQ(sc.cpuFallbacks, 0u);
    EXPECT_EQ(solver.lastStats().numeric.toleranceBreaches, 0u);
    EXPECT_FALSE(solver.problem().accelFaultDetected());
    // The recovered solve saw no corruption downstream of detection.
    EXPECT_EQ(solver.lastStats().numeric.faultsInjected, 2u);
}

TEST(SelfCheck, PersistentUpsetsSurfaceAsAccelFault)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    mpc::IpmSolver solver(model, selfCheckOptions());

    FaultCampaign campaign;
    campaign.seed = 9;
    campaign.upsetRate = 1.0;
    campaign.targetWord = 0;
    campaign.targetBit = 21;
    FaultInjector injector(campaign);
    solver.setTapeFaultHook(injector.tapeHook());

    auto result = solver.solve(Vector{0.01, 0.0}, Vector{1.0});
    EXPECT_EQ(result.status, mpc::SolveStatus::AccelFault);
    EXPECT_FALSE(mpc::statusUsable(result.status));
    const SelfCheckStats &sc = solver.lastStats().numeric.selfCheck;
    EXPECT_GT(sc.cpuFallbacks, 0u);
    EXPECT_GT(sc.reexecutions, 0u);
    EXPECT_GT(sc.reloads, 0u);
    EXPECT_TRUE(solver.problem().accelFaultDetected());
    // The condemned command is still finite and box-feasible.
    for (std::size_t i = 0; i < result.u0.size(); ++i) {
        EXPECT_TRUE(std::isfinite(result.u0[i]));
        EXPECT_GE(result.u0[i], -1.0 - 1e-9);
        EXPECT_LE(result.u0[i], 1.0 + 1e-9);
    }

    // Detaching the hook restores clean solves and clears the verdict.
    solver.setTapeFaultHook(nullptr);
    auto recovered = solver.solve(Vector{0.02, 0.0}, Vector{1.0});
    EXPECT_EQ(recovered.status, mpc::SolveStatus::Converged);
    EXPECT_FALSE(solver.problem().accelFaultDetected());
}

TEST(SelfCheck, HealthAndBatchRouteAccelFaultLikeOtherVerdicts)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    constexpr std::size_t kRobots = 3;
    constexpr std::size_t kStruck = 1;
    mpc::BatchController batch(model, selfCheckOptions(), kRobots, 2);

    FaultCampaign campaign;
    campaign.seed = 9;
    campaign.upsetRate = 1.0;
    campaign.targetWord = 0;
    campaign.targetBit = 21;
    FaultInjector injector(campaign);
    batch.solver(kStruck).setTapeFaultHook(injector.tapeHook());

    std::vector<Vector> states, refs;
    for (std::size_t i = 0; i < kRobots; ++i) {
        states.push_back(Vector{0.05 * double(i), 0.0});
        refs.push_back(Vector{1.0});
    }
    const auto &results = batch.solveAll(states, refs);
    EXPECT_EQ(results[kStruck].status, mpc::SolveStatus::AccelFault);

    const mpc::BatchReport &report = batch.report();
    EXPECT_EQ(report.lastBatch(mpc::SolveStatus::AccelFault), 1u);
    EXPECT_EQ(report.accelFaults, 1u);
    EXPECT_GT(report.lastBatchSelfCheck.parityErrors, 0u);
    EXPECT_GT(report.selfCheck.cpuFallbacks, 0u);

    const std::string json = mpc::batchMetricsJson(report, false);
    EXPECT_NE(json.find("accelFaults"), std::string::npos);
    EXPECT_NE(json.find("parityErrors"), std::string::npos);
    EXPECT_NE(json.find("accelCpuFallbacks"), std::string::npos);
}

} // namespace
} // namespace robox
