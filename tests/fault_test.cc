/**
 * @file
 * Fault-injection harness and numeric-health tests: deterministic
 * seeded bit flips in the accelerator datapath, the functional
 * simulator's health report, and the solver's golden cross-check /
 * NumericDegraded detection and failsafe recovery — including the
 * bitwise reproducibility contract for whole closed-loop campaigns.
 */

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "accel/faults.hh"
#include "accel/functional.hh"
#include "accel/report.hh"
#include "core/controller.hh"
#include "dsl/sema.hh"
#include "fixed/fixed.hh"
#include "fixed/fixed_math.hh"
#include "fixed/health.hh"
#include "mpc/batch.hh"
#include "mpc/failsafe.hh"
#include "mpc/ipm.hh"
#include "mpc/simulate.hh"
#include "mpc/status.hh"
#include "robots/robots.hh"

namespace robox
{
namespace
{

using accel::FaultCampaign;
using accel::FaultInjector;
using accel::FaultSite;
using accel::InjectedFault;

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
fixedPointOptions()
{
    mpc::MpcOptions opt;
    opt.horizon = 12;
    opt.dt = 0.1;
    opt.fixedPointTapes = true;
    opt.crossCheckFixedPoint = true;
    return opt;
}

// ---------------------------------------------------------------------
// FaultInjector: the decision function and the access filter.
// ---------------------------------------------------------------------

TEST(FaultInjector, DecisionIsAPureFunctionOfTheCampaign)
{
    FaultCampaign campaign;
    campaign.seed = 42;
    campaign.upsetRate = 0.25;
    FaultInjector a(campaign);
    FaultInjector b(campaign);

    int hits = 0;
    for (FaultSite site : {FaultSite::RegisterFile, FaultSite::Scratchpad,
                           FaultSite::Interconnect}) {
        for (std::uint64_t cycle = 0; cycle < 40; ++cycle) {
            for (std::uint64_t word = 0; word < 16; ++word) {
                const int bit_a = a.faultBitAt(site, cycle, word);
                EXPECT_EQ(bit_a, b.faultBitAt(site, cycle, word));
                if (bit_a >= 0) {
                    EXPECT_LT(bit_a, 32);
                    ++hits;
                }
            }
        }
    }
    // 1920 accesses at rate 0.25: the hash must neither starve nor
    // flood the campaign (a loose 3-sigma band around 480).
    EXPECT_GT(hits, 350);
    EXPECT_LT(hits, 620);
}

TEST(FaultInjector, DistinctSeedsGiveDistinctCampaigns)
{
    FaultCampaign campaign;
    campaign.upsetRate = 0.25;
    campaign.seed = 1;
    FaultInjector a(campaign);
    campaign.seed = 2;
    FaultInjector b(campaign);

    int differing = 0;
    for (std::uint64_t cycle = 0; cycle < 64; ++cycle)
        for (std::uint64_t word = 0; word < 8; ++word)
            if (a.faultBitAt(FaultSite::RegisterFile, cycle, word) !=
                b.faultBitAt(FaultSite::RegisterFile, cycle, word))
                ++differing;
    EXPECT_GT(differing, 0);
}

TEST(FaultInjector, TargetWordBitAndCycleWindowAreRespected)
{
    FaultCampaign campaign;
    campaign.seed = 7;
    campaign.upsetRate = 1.0;
    campaign.targetWord = 3;
    campaign.targetBit = 5;
    campaign.cycleBegin = 10;
    campaign.cycleEnd = 20;
    FaultInjector inj(campaign);

    for (std::uint64_t cycle = 0; cycle < 30; ++cycle) {
        for (std::uint64_t word = 0; word < 6; ++word) {
            const int bit =
                inj.faultBitAt(FaultSite::Scratchpad, cycle, word);
            const bool should_hit =
                word == 3 && cycle >= 10 && cycle < 20;
            EXPECT_EQ(bit, should_hit ? 5 : -1)
                << "cycle " << cycle << " word " << word;
        }
    }

    const Fixed value = Fixed::fromDouble(1.0);
    const Fixed flipped =
        inj.access(value, FaultSite::Scratchpad, 12, 3);
    EXPECT_EQ(flipped.raw(), value.raw() ^ (1 << 5));
    ASSERT_EQ(inj.log().size(), 1u);
    EXPECT_EQ(inj.log()[0].cycle, 12u);
    EXPECT_EQ(inj.log()[0].word, 3u);
    EXPECT_EQ(inj.log()[0].bit, 5);
    EXPECT_EQ(inj.log()[0].before, value.raw());
    EXPECT_EQ(inj.log()[0].after, flipped.raw());
}

TEST(FaultInjector, CycleWindowBoundariesAreBeginInclusiveEndExclusive)
{
    FaultCampaign campaign;
    campaign.seed = 13;
    campaign.upsetRate = 1.0;
    campaign.cycleBegin = 10;
    campaign.cycleEnd = 20;
    FaultInjector inj(campaign);

    // The window's own edges: first cycle in, last cycle in, one past.
    EXPECT_GE(inj.faultBitAt(FaultSite::RegisterFile, 10, 0), 0);
    EXPECT_GE(inj.faultBitAt(FaultSite::RegisterFile, 19, 0), 0);
    EXPECT_EQ(inj.faultBitAt(FaultSite::RegisterFile, 20, 0), -1);
    EXPECT_EQ(inj.faultBitAt(FaultSite::RegisterFile, 9, 0), -1);

    // The default cycleEnd = uint64(-1) is itself exclusive, so the
    // final representable cycle is the one cycle a default campaign
    // can never strike.
    FaultCampaign open;
    open.upsetRate = 1.0;
    FaultInjector wide(open);
    EXPECT_GE(wide.faultBitAt(FaultSite::RegisterFile,
                              std::uint64_t(-2), 0),
              0);
    EXPECT_EQ(wide.faultBitAt(FaultSite::RegisterFile,
                              std::uint64_t(-1), 0),
              -1);
}

TEST(FaultInjector, EmptyCycleWindowStrikesNothing)
{
    FaultCampaign campaign;
    campaign.upsetRate = 1.0;
    campaign.cycleBegin = 15;
    campaign.cycleEnd = 15;
    FaultInjector inj(campaign);

    for (std::uint64_t cycle = 0; cycle < 32; ++cycle)
        for (FaultSite site :
             {FaultSite::RegisterFile, FaultSite::Scratchpad,
              FaultSite::Interconnect})
            EXPECT_EQ(inj.faultBitAt(site, cycle, 0), -1)
                << "cycle " << cycle;
    inj.access(Fixed::fromDouble(1.0), FaultSite::Scratchpad, 15, 0);
    EXPECT_TRUE(inj.log().empty());
}

TEST(FaultInjector, BudgetConsultedBeforeAccessLandsExactlyMaxFaults)
{
    FaultCampaign campaign;
    campaign.upsetRate = 1.0;
    campaign.targetBit = 3;
    campaign.maxFaults = 2;
    FaultInjector inj(campaign);

    const Fixed value = Fixed::fromDouble(0.75);
    // Every access qualifies (rate 1.0), yet only the first two flip;
    // the would-be third passes through bit-identical even though its
    // hash qualifies.
    const Fixed first = inj.access(value, FaultSite::RegisterFile, 0, 0);
    const Fixed second = inj.access(value, FaultSite::RegisterFile, 1, 0);
    const Fixed third = inj.access(value, FaultSite::RegisterFile, 2, 0);
    EXPECT_EQ(first.raw(), value.raw() ^ (1 << 3));
    EXPECT_EQ(second.raw(), value.raw() ^ (1 << 3));
    EXPECT_EQ(third.raw(), value.raw());
    EXPECT_EQ(inj.faultsInjected(), 2u);
    EXPECT_GE(inj.faultBitAt(FaultSite::RegisterFile, 2, 0), 0)
        << "decision function must ignore the budget";
}

TEST(FaultInjector, MaxFaultsBudgetStopsInjection)
{
    FaultCampaign campaign;
    campaign.upsetRate = 1.0;
    campaign.maxFaults = 4;
    FaultInjector inj(campaign);

    for (std::uint64_t cycle = 0; cycle < 100; ++cycle)
        inj.access(Fixed::fromDouble(0.5), FaultSite::RegisterFile,
                   cycle, 0);
    EXPECT_EQ(inj.faultsInjected(), 4u);

    inj.reset();
    EXPECT_EQ(inj.faultsInjected(), 0u);
    inj.access(Fixed::fromDouble(0.5), FaultSite::RegisterFile, 0, 0);
    EXPECT_EQ(inj.faultsInjected(), 1u);
}

TEST(FaultInjector, SiteMaskSelectsStructures)
{
    FaultCampaign campaign;
    campaign.upsetRate = 1.0;
    campaign.siteMask = static_cast<std::uint32_t>(FaultSite::Scratchpad);
    FaultInjector inj(campaign);

    for (std::uint64_t cycle = 0; cycle < 16; ++cycle) {
        EXPECT_EQ(inj.faultBitAt(FaultSite::RegisterFile, cycle, 0), -1);
        EXPECT_EQ(inj.faultBitAt(FaultSite::Interconnect, cycle, 0), -1);
        EXPECT_GE(inj.faultBitAt(FaultSite::Scratchpad, cycle, 0), 0);
    }
}

TEST(FaultInjector, ReplayedAccessStreamGivesIdenticalLog)
{
    FaultCampaign campaign;
    campaign.seed = 99;
    campaign.upsetRate = 0.1;

    auto run = [&campaign]() {
        FaultInjector inj(campaign);
        for (std::uint64_t cycle = 0; cycle < 200; ++cycle)
            for (std::uint64_t word = 0; word < 4; ++word)
                inj.access(Fixed::fromDouble(0.01 * double(cycle)),
                           FaultSite::Interconnect, cycle, word);
        return inj.log();
    };

    const std::vector<InjectedFault> first = run();
    const std::vector<InjectedFault> second = run();
    EXPECT_FALSE(first.empty());
    EXPECT_EQ(first, second);
}

// ---------------------------------------------------------------------
// Functional simulator: health reporting.
// ---------------------------------------------------------------------

TEST(FunctionalHealth, FaultFreeRunReportsRangeUtilization)
{
    mpc::MpcProblem prob = makeProblem("Quadrotor", 4);
    const sym::Tape &tape = prob.dynamicsTape();
    std::vector<Fixed> inputs;
    for (int i = 0; i < tape.numVars(); ++i)
        inputs.push_back(Fixed::fromDouble(0.05 * (i + 1) - 0.3));

    accel::FunctionalResult run = accel::executeTapeMapped(
        tape, inputs, FixedMath::instance(), accel::AcceleratorConfig());

    EXPECT_EQ(run.health.tapeEvals, 1u);
    EXPECT_EQ(run.health.faultsInjected, 0u);
    EXPECT_GT(run.health.peakAbs, 0.0);
    EXPECT_GT(run.health.rangeUtilization(), 0.0);
    EXPECT_LE(run.health.rangeUtilization(), 1.0);
    EXPECT_FALSE(run.slotPeakAbs.empty());
    double max_slot = 0.0;
    for (double peak : run.slotPeakAbs) {
        EXPECT_GE(peak, 0.0);
        max_slot = std::max(max_slot, peak);
    }
    EXPECT_DOUBLE_EQ(max_slot, run.health.peakAbs);
}

TEST(NumericHealthReport, FormatsStatsAndCsv)
{
    NumericHealth health;
    health.saturations = 3;
    health.tapeEvals = 7;
    health.faultsInjected = 2;
    health.trackValue(123.0);
    health.crossChecks = 14;
    health.maxAbsError = 0.5;
    health.toleranceBreaches = 1;

    const std::string dump =
        accel::formatNumericHealth("numeric_health", health);
    EXPECT_NE(dump.find("saturations"), std::string::npos);
    EXPECT_NE(dump.find("rangeUtilization"), std::string::npos);
    EXPECT_NE(dump.find("degraded"), std::string::npos);

    const std::string csv =
        accel::formatNumericHealth("numeric_health", health, true);
    EXPECT_NE(csv.find(','), std::string::npos);
}

TEST(NumericHealthReport, MergeAccumulates)
{
    NumericHealth a, b;
    a.saturations = 2;
    a.trackValue(10.0);
    a.crossChecks = 4;
    a.maxAbsError = 0.1;
    b.saturations = 3;
    b.trackValue(20.0);
    b.toleranceBreaches = 1;
    b.maxAbsError = 0.4;

    a.merge(b);
    EXPECT_EQ(a.saturations, 5u);
    EXPECT_DOUBLE_EQ(a.peakAbs, 20.0);
    EXPECT_DOUBLE_EQ(a.maxAbsError, 0.4);
    EXPECT_EQ(a.crossChecks, 4u);
    EXPECT_TRUE(a.degraded());
}

// ---------------------------------------------------------------------
// Solver golden cross-check: detection, recovery, reproducibility.
// ---------------------------------------------------------------------

TEST(CrossCheck, HealthyFixedPointSolveIsNotDegraded)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    mpc::IpmSolver solver(model, fixedPointOptions());

    auto result = solver.solve(Vector{0.0, 0.0}, Vector{1.0});
    EXPECT_EQ(result.status, mpc::SolveStatus::Converged);

    const mpc::SolveStats &stats = solver.lastStats();
    EXPECT_GT(stats.numeric.tapeEvals, 0u);
    EXPECT_GT(stats.numeric.crossChecks, 0u);
    EXPECT_EQ(stats.numeric.toleranceBreaches, 0u);
    EXPECT_EQ(stats.numeric.faultsInjected, 0u);
    EXPECT_FALSE(stats.numeric.degraded());
    EXPECT_GT(stats.numeric.peakAbs, 0.0);
    // Honest Q14.17 rounding stays far inside the fail band.
    EXPECT_LT(stats.numeric.maxAbsError, 0.25);
}

TEST(CrossCheck, PoisonedSolveIsDetectedAsNumericDegraded)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    mpc::IpmSolver solver(model, fixedPointOptions());

    auto healthy = solver.solve(Vector{0.0, 0.0}, Vector{1.0});
    ASSERT_EQ(healthy.status, mpc::SolveStatus::Converged);

    // An SEU campaign that flips bit 21 (a +-16.0 perturbation in
    // Q14.17) of environment word 0 in the next three tape
    // evaluations: large enough to breach the fail band, small enough
    // in extent that the solve itself still finishes.
    FaultCampaign campaign;
    campaign.seed = 5;
    campaign.upsetRate = 1.0;
    campaign.targetWord = 0;
    campaign.targetBit = 21;
    campaign.maxFaults = 3;
    FaultInjector injector(campaign);
    solver.setTapeFaultHook(injector.tapeHook());

    auto poisoned = solver.solve(Vector{0.01, 0.0}, Vector{1.0});
    EXPECT_EQ(poisoned.status, mpc::SolveStatus::NumericDegraded);
    EXPECT_FALSE(mpc::statusUsable(poisoned.status));
    EXPECT_EQ(injector.faultsInjected(), 3u);

    const mpc::SolveStats &stats = solver.lastStats();
    EXPECT_EQ(stats.numeric.faultsInjected, 3u);
    EXPECT_GT(stats.numeric.toleranceBreaches, 0u);
    EXPECT_GT(stats.numeric.maxAbsError, 0.25);
    // Even a mistrusted plan must emit a finite, box-feasible command.
    for (std::size_t i = 0; i < poisoned.u0.size(); ++i) {
        EXPECT_TRUE(std::isfinite(poisoned.u0[i]));
        EXPECT_GE(poisoned.u0[i], -1.0 - 1e-9);
        EXPECT_LE(poisoned.u0[i], 1.0 + 1e-9);
    }

    // Detaching the hook restores healthy solves (warm start was
    // dropped by the degradation, so this exercises the cold path).
    solver.setTapeFaultHook(nullptr);
    auto recovered = solver.solve(Vector{0.02, 0.0}, Vector{1.0});
    EXPECT_EQ(recovered.status, mpc::SolveStatus::Converged);
    EXPECT_EQ(solver.lastStats().numeric.toleranceBreaches, 0u);
}

TEST(CrossCheck, ClosedLoopRecoversThroughFailsafeAndReproduces)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);

    // A sparse continuous campaign: every upset flips bit 21, enough
    // for the cross-check to condemn the affected solves while the
    // failsafe ladder keeps the loop running on backup commands.
    FaultCampaign campaign;
    campaign.seed = 11;
    campaign.upsetRate = 2e-3;
    campaign.targetBit = 21;

    struct Run
    {
        mpc::SimulationResult sim;
        std::vector<InjectedFault> faults;
        NumericHealth lastNumeric;
    };
    auto run_campaign = [&]() {
        mpc::IpmSolver solver(model, fixedPointOptions());
        FaultInjector injector(campaign);
        solver.setTapeFaultHook(injector.tapeHook());
        Run r;
        r.sim = mpc::simulateClosedLoop(solver, Vector{0.0, 0.0},
                                        Vector{1.0}, 30);
        r.faults = injector.log();
        r.lastNumeric = solver.lastStats().numeric;
        return r;
    };

    const Run a = run_campaign();
    const Run b = run_campaign();

    // The campaign actually bites and the failsafe ladder answers.
    EXPECT_FALSE(a.faults.empty());
    EXPECT_GE(a.sim.degradedSteps, 1);
    bool saw_degraded_status = false;
    for (mpc::SolveStatus s : a.sim.statuses)
        saw_degraded_status =
            saw_degraded_status || s == mpc::SolveStatus::NumericDegraded;
    EXPECT_TRUE(saw_degraded_status);

    // The closed loop stays finite and box-feasible throughout.
    for (const Vector &x : a.sim.states)
        for (std::size_t i = 0; i < x.size(); ++i)
            EXPECT_TRUE(std::isfinite(x[i]));
    for (const Vector &u : a.sim.inputs)
        for (std::size_t i = 0; i < u.size(); ++i) {
            EXPECT_TRUE(std::isfinite(u[i]));
            EXPECT_GE(u[i], -1.0 - 1e-9);
            EXPECT_LE(u[i], 1.0 + 1e-9);
        }

    // Bitwise reproducibility: identical faults, identical health,
    // identical trajectories.
    EXPECT_EQ(a.faults, b.faults);
    EXPECT_EQ(a.lastNumeric, b.lastNumeric);
    ASSERT_EQ(a.sim.statuses.size(), b.sim.statuses.size());
    for (std::size_t k = 0; k < a.sim.statuses.size(); ++k)
        EXPECT_EQ(a.sim.statuses[k], b.sim.statuses[k]) << "step " << k;
    ASSERT_EQ(a.sim.states.size(), b.sim.states.size());
    for (std::size_t k = 0; k < a.sim.states.size(); ++k)
        for (std::size_t i = 0; i < a.sim.states[k].size(); ++i)
            EXPECT_EQ(a.sim.states[k][i], b.sim.states[k][i])
                << "step " << k;
    ASSERT_EQ(a.sim.inputs.size(), b.sim.inputs.size());
    for (std::size_t k = 0; k < a.sim.inputs.size(); ++k)
        for (std::size_t i = 0; i < a.sim.inputs[k].size(); ++i)
            EXPECT_EQ(a.sim.inputs[k][i], b.sim.inputs[k][i])
                << "step " << k;
}

TEST(CrossCheck, ControllerSubstitutesBackupOnDegradedSolve)
{
    core::Controller controller(kDoubleIntegrator, fixedPointOptions());

    auto first = controller.step(Vector{0.0, 0.0}, Vector{1.0});
    ASSERT_TRUE(mpc::statusUsable(first.status));
    EXPECT_FALSE(controller.lastNumericHealth().degraded());
    const Vector expected = controller.solver().inputTrajectory()[1];

    FaultCampaign campaign;
    campaign.seed = 17;
    campaign.upsetRate = 1.0;
    campaign.targetWord = 0;
    campaign.targetBit = 21;
    campaign.maxFaults = 3;
    FaultInjector injector(campaign);
    controller.setTapeFaultHook(injector.tapeHook());

    auto degraded = controller.step(Vector{0.01, 0.0}, Vector{1.0});
    EXPECT_TRUE(degraded.degraded);
    EXPECT_EQ(controller.lastStatus(), mpc::SolveStatus::NumericDegraded);
    EXPECT_EQ(controller.consecutiveDegradedSteps(), 1);
    EXPECT_TRUE(controller.lastNumericHealth().degraded());
    EXPECT_EQ(controller.lastNumericHealth().faultsInjected, 3u);
    // The substituted command is the accepted plan's stage-1 input.
    ASSERT_EQ(degraded.u0.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(degraded.u0[i], expected[i]);

    controller.setTapeFaultHook(nullptr);
    auto recovered = controller.step(Vector{0.05, 0.0}, Vector{1.0});
    EXPECT_FALSE(recovered.degraded);
    EXPECT_EQ(controller.consecutiveDegradedSteps(), 0);
}

TEST(CrossCheck, BatchAggregatesNumericEventsPerRobot)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    constexpr std::size_t kRobots = 4;
    constexpr std::size_t kPoisoned = 2;
    mpc::BatchController batch(model, fixedPointOptions(), kRobots, 2);

    FaultCampaign campaign;
    campaign.seed = 3;
    campaign.upsetRate = 1.0;
    campaign.targetWord = 0;
    campaign.targetBit = 21;
    campaign.maxFaults = 3;
    FaultInjector injector(campaign);
    batch.solver(kPoisoned).setTapeFaultHook(injector.tapeHook());

    std::vector<Vector> states, refs;
    for (std::size_t i = 0; i < kRobots; ++i) {
        states.push_back(Vector{0.05 * double(i), 0.0});
        refs.push_back(Vector{1.0});
    }
    const auto &results = batch.solveAll(states, refs);

    const mpc::BatchReport &report = batch.report();
    EXPECT_EQ(results[kPoisoned].status,
              mpc::SolveStatus::NumericDegraded);
    EXPECT_EQ(report.lastBatch(mpc::SolveStatus::NumericDegraded), 1u);
    EXPECT_EQ(report.lastBatchFaultsInjected, 3u);
    std::uint64_t summed_sat = 0;
    for (std::size_t i = 0; i < kRobots; ++i) {
        const mpc::SolveStats &st = batch.solver(i).lastStats();
        summed_sat += st.numeric.saturations;
        if (i != kPoisoned) {
            EXPECT_EQ(st.numeric.faultsInjected, 0u);
            EXPECT_EQ(results[i].status, mpc::SolveStatus::Converged);
        }
    }
    EXPECT_EQ(report.lastBatchSaturations, summed_sat);
}

} // namespace
} // namespace robox
