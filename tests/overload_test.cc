/**
 * @file
 * Tests for the overload-management layer: the sensor gate, the
 * admission ladder's rungs and statuses, bitwise identity of admitted
 * robots under storm, thread-count-independent chaos replay, malformed
 * input handling, and lifetime-report accumulation.
 */

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "core/controller.hh"
#include "dsl/sema.hh"
#include "mpc/batch.hh"
#include "mpc/chaos.hh"
#include "mpc/sensor_gate.hh"
#include "support/logging.hh"

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
  }
}
reference target;
DoubleIntegrator plant(1.0);
plant.moveTo(target, 1.0, 0.05);
)";

/** Same plant with a bounded velocity, so the range check has a
 *  finite state box to enforce. */
const char *kBoundedIntegrator = R"(
System BoundedIntegrator( param a_max ) {
  state pos, vel;
  input acc;
  pos.dt = vel;
  vel.dt = acc;
  vel.lower_bound <= -2.0;
  vel.upper_bound <= 2.0;
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
BoundedIntegrator plant(1.0);
plant.moveTo(target, 1.0, 0.05);
)";

MpcOptions
smallOptions(int horizon = 12)
{
    MpcOptions opt;
    opt.horizon = horizon;
    opt.dt = 0.1;
    opt.maxIterations = 60;
    return opt;
}

MpcOptions
gatedOptions()
{
    MpcOptions opt = smallOptions();
    opt.sensorRangeMargin = 0.5;
    opt.sensorJumpThreshold = 5.0;
    opt.sensorFrozenPeriods = 3;
    return opt;
}

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

// ---------------------------------------------------------------------
// Sensor gate
// ---------------------------------------------------------------------

TEST(SensorGate, VerdictsCoverEveryFailureClass)
{
    dsl::ModelSpec model = dsl::analyzeSource(kBoundedIntegrator);
    SensorGate gate(model, gatedOptions());

    EXPECT_EQ(gate.check(Vector{0.0, 0.0}), SensorVerdict::Ok);
    EXPECT_EQ(gate.check(Vector{0.1, std::nan("")}),
              SensorVerdict::NonFinite);
    // vel box is [-2, 2]; margin 0.5 tolerates up to |vel| = 4.
    EXPECT_EQ(gate.check(Vector{0.1, 3.9}), SensorVerdict::Ok);
    EXPECT_EQ(gate.check(Vector{0.1, 4.5}), SensorVerdict::OutOfRange);
    EXPECT_EQ(gate.rejected(), 2u);
    EXPECT_STREQ(toString(SensorVerdict::OutOfRange), "out-of-range");
}

TEST(SensorGate, JumpRejectsTransientsButRehomesPersistentMoves)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    SensorGate gate(model, gatedOptions());

    EXPECT_EQ(gate.check(Vector{0.0, 0.0}), SensorVerdict::Ok);
    // A one-period spike is rejected and the baseline holds.
    EXPECT_EQ(gate.check(Vector{100.0, 0.0}), SensorVerdict::Jump);
    EXPECT_EQ(gate.check(Vector{0.2, 0.0}), SensorVerdict::Ok);
    // A persistent move re-homes on the kJumpRehomePeriods-th check:
    // the robot genuinely is somewhere new.
    EXPECT_EQ(gate.check(Vector{50.0, 0.0}), SensorVerdict::Jump);
    EXPECT_EQ(gate.check(Vector{50.1, 0.0}), SensorVerdict::Jump);
    EXPECT_EQ(gate.check(Vector{50.2, 0.0}), SensorVerdict::Ok);
    EXPECT_EQ(gate.check(Vector{50.3, 0.0}), SensorVerdict::Ok);
}

TEST(SensorGate, FrozenSensorTripsAfterConfiguredStreak)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    SensorGate gate(model, gatedOptions()); // sensorFrozenPeriods = 3

    const Vector stuck{0.4, -0.1};
    EXPECT_EQ(gate.check(stuck), SensorVerdict::Ok); // baseline
    EXPECT_EQ(gate.check(stuck), SensorVerdict::Ok); // streak 1
    EXPECT_EQ(gate.check(stuck), SensorVerdict::Ok); // streak 2
    EXPECT_EQ(gate.check(stuck), SensorVerdict::Frozen); // streak 3
    EXPECT_EQ(gate.lastVerdict(), SensorVerdict::Frozen);
    // Any movement clears the streak.
    EXPECT_EQ(gate.check(Vector{0.5, -0.1}), SensorVerdict::Ok);
    EXPECT_EQ(gate.check(Vector{0.5, -0.1}), SensorVerdict::Ok);
}

TEST(Controller, GateSkipsSolveAndServesBackupOnPoisonedMeasurement)
{
    core::Controller controller(kDoubleIntegrator, gatedOptions());
    const Vector ref{1.0};

    auto good = controller.step(Vector{0.0, 0.0}, ref);
    ASSERT_TRUE(statusUsable(good.status));
    EXPECT_EQ(controller.lastStatus(), good.status);

    auto bad = controller.step(Vector{std::nan(""), 0.0}, ref);
    EXPECT_EQ(bad.status, SolveStatus::BadInput);
    EXPECT_TRUE(bad.degraded);
    EXPECT_EQ(controller.lastStatus(), SolveStatus::BadInput);
    EXPECT_EQ(controller.sensorGate().rejected(), 1u);
    EXPECT_EQ(controller.consecutiveDegradedSteps(), 1);
    // The backup command respects the actuator box.
    for (std::size_t j = 0; j < bad.u0.size(); ++j) {
        EXPECT_GE(bad.u0[j], -1.0);
        EXPECT_LE(bad.u0[j], 1.0);
    }

    auto again = controller.step(Vector{0.01, 0.0}, ref);
    EXPECT_TRUE(statusUsable(again.status));
}

// ---------------------------------------------------------------------
// Admission ladder
// ---------------------------------------------------------------------

TEST(Overload, NewStatusesLabelAndUsability)
{
    EXPECT_STREQ(toString(SolveStatus::DegradedBudget),
                 "degraded-budget");
    EXPECT_STREQ(toString(SolveStatus::ServedFromBackup),
                 "served-from-backup");
    EXPECT_STREQ(toString(SolveStatus::Shed), "shed");
    // A degraded solve still produced a fresh plan; backup/shed did not.
    EXPECT_TRUE(statusUsable(SolveStatus::DegradedBudget));
    EXPECT_FALSE(statusUsable(SolveStatus::ServedFromBackup));
    EXPECT_FALSE(statusUsable(SolveStatus::Shed));
}

// The core acceptance test: a 2x offered-load storm degrades the tail
// of the fleet, keeps the admitted work inside the budget, and leaves
// the fully admitted robots bitwise identical to an unloaded serial
// solve.
TEST(Overload, TwoTimesStormDegradesTailAndKeepsAdmittedBitwise)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    constexpr std::size_t kRobots = 8;
    constexpr double kCost = 1e-3; // Virtual per-robot solve cost.

    MpcOptions opt = smallOptions();
    opt.overloadParallelism = 1;
    // Budget 4 robots' worth of work; 8 robots offered = 2x load.
    opt.batchDeadlineSeconds = 4.0 * kCost;

    BatchController batch(model, opt, kRobots, 2);
    batch.setCostHook([](std::size_t, double) { return kCost; });

    // Unloaded serial reference solvers for the protected prefix.
    std::vector<IpmSolver> serial;
    for (std::size_t i = 0; i < kRobots; ++i)
        serial.emplace_back(model, opt);

    std::vector<Vector> states, refs;
    makeFleetInputs(kRobots, states, refs);

    for (int round = 0; round < 4; ++round) {
        const auto &results = batch.solveAll(states, refs);
        const BatchReport &report = batch.report();
        const OverloadReport &ov = report.overload;
        if (round == 0) {
            // Cold cost model: everyone admitted, model seeded.
            EXPECT_EQ(report.lastBatch(SolveStatus::DegradedBudget), 0u);
        } else {
            // Warm model, 2x load: with equal costs and priorities the
            // full-budget prefix is robots 0..1 (greedy under the
            // floor-scale invariant), the rest degrade at one common
            // scale, and nothing reaches the backup/shed rungs.
            EXPECT_EQ(report.lastBatch(SolveStatus::DegradedBudget),
                      kRobots - 2);
            EXPECT_EQ(report.lastBatch(SolveStatus::ServedFromBackup), 0u);
            EXPECT_EQ(report.lastBatch(SolveStatus::Shed), 0u);
            // Admitted work fits the batch budget (virtual time).
            EXPECT_LE(ov.admittedSeconds,
                      opt.batchDeadlineSeconds * (1.0 + 1e-9));
            EXPECT_GT(ov.projectedSeconds, opt.batchDeadlineSeconds);
            for (std::size_t i = 0; i < kRobots; ++i) {
                if (i < 2)
                    EXPECT_TRUE(statusUsable(results[i].status)) << i;
                else
                    EXPECT_EQ(results[i].status,
                              SolveStatus::DegradedBudget)
                        << i;
            }
        }
        // Fully admitted robots must be bitwise identical to the
        // unloaded serial solve, storm or no storm. Round 0 admits
        // everyone, so the serial twins stay in lockstep for the
        // prefix that remains fully admitted afterwards.
        for (std::size_t i = 0; i < 2; ++i) {
            const IpmSolver::Result serial_result =
                serial[i].solve(states[i], refs[i]);
            EXPECT_EQ(results[i].iterations, serial_result.iterations);
            EXPECT_EQ(results[i].objective, serial_result.objective);
            ASSERT_EQ(results[i].u0.size(), serial_result.u0.size());
            for (std::size_t j = 0; j < results[i].u0.size(); ++j)
                EXPECT_EQ(results[i].u0[j], serial_result.u0[j]);
        }
        for (std::size_t i = 0; i < kRobots; ++i) {
            states[i][0] += 0.01;
            states[i][1] += 0.005;
        }
    }
    EXPECT_GE(batch.report().overload.overloadedBatches, 3u);
    EXPECT_GT(batch.report().overload.batchLatency.totalSamples(), 0u);
    for (std::size_t i = 0; i < kRobots; ++i)
        EXPECT_NEAR(batch.costEstimate(i), kCost, 1e-12);
}

TEST(Overload, PriorityProtectsHighValueRobots)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    constexpr std::size_t kRobots = 6;
    constexpr double kCost = 1e-3;

    MpcOptions opt = smallOptions();
    opt.overloadParallelism = 1;
    opt.batchDeadlineSeconds = 3.0 * kCost; // 2x load at 6 robots.

    BatchController batch(model, opt, kRobots, 2);
    batch.setCostHook([](std::size_t, double) { return kCost; });
    // Invert the default order: the highest index is most important.
    for (std::size_t i = 0; i < kRobots; ++i)
        batch.setPriority(i, static_cast<double>(i));

    std::vector<Vector> states, refs;
    makeFleetInputs(kRobots, states, refs);
    batch.solveAll(states, refs); // Seed the cost model.
    const auto &results = batch.solveAll(states, refs);

    // The full-budget prefix now protects the tail indices; the
    // degraded rung hits the low-priority (low index) robots.
    EXPECT_EQ(results[kRobots - 1].status, SolveStatus::Converged);
    EXPECT_EQ(results[0].status, SolveStatus::DegradedBudget);
}

// ---------------------------------------------------------------------
// Chaos engine and thread-count-independent replay
// ---------------------------------------------------------------------

TEST(Chaos, DecisionsArePureSeededAndEpisodic)
{
    ChaosSpec spec;
    spec.seed = 99;
    spec.stallRate = 0.1;
    spec.burstRate = 0.2;
    spec.poisonRate = 0.02;
    spec.poisonEpisodeBatches = 3;
    ChaosEngine a(spec), b(spec);

    int stalls = 0;
    for (std::uint64_t batch = 0; batch < 500; ++batch) {
        EXPECT_EQ(a.burstAt(batch), b.burstAt(batch));
        for (std::size_t robot = 0; robot < 4; ++robot) {
            EXPECT_EQ(a.stallAt(batch, robot), b.stallAt(batch, robot));
            EXPECT_EQ(a.poisonAt(batch, robot),
                      b.poisonAt(batch, robot));
            stalls += a.stallAt(batch, robot) ? 1 : 0;
        }
    }
    // 2000 Bernoulli(0.1) draws: the count must look like the rate.
    EXPECT_GT(stalls, 100);
    EXPECT_LT(stalls, 320);

    // A different seed must produce a different campaign.
    ChaosSpec other = spec;
    other.seed = 100;
    ChaosEngine c(other);
    int differs = 0;
    for (std::uint64_t batch = 0; batch < 500; ++batch)
        for (std::size_t robot = 0; robot < 4; ++robot)
            differs += a.stallAt(batch, robot) != c.stallAt(batch, robot);
    EXPECT_GT(differs, 0);

    // Poison episodes persist: once a start fires, the robot stays
    // poisoned for the full episode window.
    int episodes = 0;
    for (std::uint64_t batch = 1; batch < 2000; ++batch) {
        if (a.poisonAt(batch, 2) != PoisonKind::None &&
            a.poisonAt(batch - 1, 2) == PoisonKind::None) {
            ++episodes;
            for (int d = 0; d < spec.poisonEpisodeBatches; ++d)
                EXPECT_NE(a.poisonAt(batch + static_cast<std::uint64_t>(d),
                                     2),
                          PoisonKind::None);
        }
    }
    EXPECT_GT(episodes, 0);
}

TEST(Chaos, PoisonStateCorruptsDeterministically)
{
    ChaosSpec spec;
    spec.seed = 7;
    spec.poisonRate = 1.0; // Every batch starts an episode.
    spec.poisonMagnitude = 1e3;
    ChaosEngine engine(spec);

    const Vector prev{0.1, 0.2};
    bool corrupted_any = false;
    for (std::uint64_t batch = 0; batch < 16; ++batch) {
        Vector x1{0.3, 0.4}, x2{0.3, 0.4};
        engine.poisonState(batch, 0, prev, x1);
        engine.poisonState(batch, 0, prev, x2);
        ASSERT_EQ(x1.size(), x2.size());
        for (std::size_t j = 0; j < x1.size(); ++j) {
            // Bitwise-equal corruption, NaN included.
            EXPECT_EQ(std::memcmp(&x1[j], &x2[j], sizeof(double)), 0);
            corrupted_any = corrupted_any || x1[j] != 0.3 * (j == 0) +
                                                  0.4 * (j == 1);
        }
    }
    EXPECT_TRUE(corrupted_any);
}

// The replay acceptance test: the same seeded chaos campaign, solved
// on 1 worker and on 4 workers, produces bitwise-identical commands,
// statuses, and ladder decisions — because the admission math is
// pinned by overloadParallelism and all injected time is virtual.
TEST(Overload, ChaosCampaignReplaysBitwiseAcrossThreadCounts)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    constexpr std::size_t kRobots = 10;
    constexpr int kBatches = 12;

    MpcOptions opt = gatedOptions();
    opt.batchDeadlineSeconds = 1e-3;
    opt.overloadParallelism = 4;
    opt.overloadBackupCostSeconds = 4e-4; // Reachable shed rung.

    ChaosSpec spec;
    spec.seed = 20260806;
    spec.stallRate = 0.2;
    spec.stallCostSeconds = 1e-3;
    spec.burstRate = 0.3;
    spec.burstFactor = 3.0;
    spec.poisonRate = 0.05;
    // ~4x offered load once the model warms.
    spec.virtualSolveCostSeconds = 4.0 * 1e-3 * 4.0 / kRobots;

    auto run = [&](std::size_t threads) {
        BatchController batch(model, opt, kRobots, threads);
        ChaosEngine chaos(spec);
        batch.setCostHook(chaos.costHook());

        std::vector<Vector> states, refs;
        makeFleetInputs(kRobots, states, refs);
        std::vector<Vector> prev = states;

        std::vector<SolveStatus> statuses;
        std::vector<double> commands;
        for (int b = 0; b < kBatches; ++b) {
            chaos.setBatch(static_cast<std::uint64_t>(b));
            std::vector<Vector> meas = states;
            for (std::size_t i = 0; i < kRobots; ++i)
                chaos.poisonState(static_cast<std::uint64_t>(b), i,
                                  prev[i], meas[i]);
            prev = meas;
            const auto &results = batch.solveAll(meas, refs);
            for (std::size_t i = 0; i < kRobots; ++i) {
                statuses.push_back(results[i].status);
                for (std::size_t j = 0; j < results[i].u0.size(); ++j)
                    commands.push_back(results[i].u0[j]);
                // March the (uncorrupted) states so warm starts and
                // gate baselines evolve.
                states[i][0] += 0.005;
                states[i][1] += 0.002;
            }
        }
        const OverloadReport &ov = batch.report().overload;
        return std::make_tuple(statuses, commands, ov.degraded,
                               ov.servedFromBackup, ov.shed,
                               ov.poisoned, ov.overloadedBatches);
    };

    const auto serial = run(1);
    const auto pooled = run(4);

    const auto &serial_statuses = std::get<0>(serial);
    const auto &pooled_statuses = std::get<0>(pooled);
    ASSERT_EQ(serial_statuses.size(), pooled_statuses.size());
    for (std::size_t k = 0; k < serial_statuses.size(); ++k)
        EXPECT_EQ(serial_statuses[k], pooled_statuses[k]) << k;

    const auto &serial_commands = std::get<1>(serial);
    const auto &pooled_commands = std::get<1>(pooled);
    ASSERT_EQ(serial_commands.size(), pooled_commands.size());
    for (std::size_t k = 0; k < serial_commands.size(); ++k)
        EXPECT_EQ(serial_commands[k], pooled_commands[k]) << k;

    EXPECT_EQ(std::get<2>(serial), std::get<2>(pooled));
    EXPECT_EQ(std::get<3>(serial), std::get<3>(pooled));
    EXPECT_EQ(std::get<4>(serial), std::get<4>(pooled));
    EXPECT_EQ(std::get<5>(serial), std::get<5>(pooled));
    EXPECT_EQ(std::get<6>(serial), std::get<6>(pooled));

    // The campaign must actually exercise the ladder and the gate, or
    // the equalities above are vacuous.
    EXPECT_GT(std::get<2>(serial), 0u); // degraded
    EXPECT_GT(std::get<3>(serial), 0u); // served from backup
    EXPECT_GT(std::get<5>(serial), 0u); // gate rejections
    EXPECT_GT(std::get<6>(serial), 0u); // overloaded batches
}

// ---------------------------------------------------------------------
// Malformed inputs, fault isolation, report lifetime
// ---------------------------------------------------------------------

TEST(Overload, MalformedInputsGetBadInputInsteadOfCrashing)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    BatchController batch(model, smallOptions(), 4, 2);

    std::vector<Vector> states, refs;
    makeFleetInputs(4, states, refs);
    states[1] = Vector{0.1};           // Wrong state dimension.
    refs[2] = Vector{1.0, 2.0};        // Wrong reference dimension.
    states.pop_back();                 // Robot 3's state is missing.

    const auto &results = batch.solveAll(states, refs);
    EXPECT_TRUE(statusUsable(results[0].status));
    EXPECT_EQ(results[1].status, SolveStatus::BadInput);
    EXPECT_EQ(results[2].status, SolveStatus::BadInput);
    EXPECT_EQ(results[3].status, SolveStatus::BadInput);
    EXPECT_EQ(batch.report().lastBatch(SolveStatus::BadInput), 3u);
    for (std::size_t i = 1; i < 4; ++i) {
        EXPECT_TRUE(results[i].degraded);
        ASSERT_EQ(results[i].u0.size(), 1u);
        EXPECT_GE(results[i].u0[0], -1.0);
        EXPECT_LE(results[i].u0[0], 1.0);
    }

    // Extra entries beyond numRobots() are ignored.
    makeFleetInputs(6, states, refs);
    const auto &again = batch.solveAll(states, refs);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_TRUE(statusUsable(again[i].status)) << i;
    EXPECT_EQ(batch.report().overload.badInput, 3u);
}

TEST(Overload, ExceptionsAreQuarantinedAndReportedDeterministically)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    BatchController batch(model, smallOptions(), 8, 4);
    batch.setStallHook([](std::size_t i) {
        if (i == 3 || i == 5 || i == 6)
            throw std::runtime_error("injected worker fault");
    });

    std::vector<Vector> states, refs;
    makeFleetInputs(8, states, refs);
    // The serving loop must outlive any single robot's bug: nothing is
    // rethrown, the incident is recorded in the report instead.
    const auto &results = batch.solveAll(states, refs);

    const BatchReport &report = batch.report();
    EXPECT_EQ(report.lastBatchExceptions, 3u);
    EXPECT_EQ(report.exceptions, 3u);
    // Whatever the thread schedule, the lowest thrower is named.
    EXPECT_EQ(report.lastExceptionRobot, 3);
    EXPECT_EQ(report.lastExceptionMessage, "injected worker fault");
    for (std::size_t i : {3u, 5u, 6u}) {
        EXPECT_EQ(report.statuses[i], SolveStatus::NumericFailure);
        EXPECT_TRUE(results[i].degraded);
    }
    // The fault was quarantined: every other robot was still served.
    for (std::size_t i : {0u, 1u, 2u, 4u, 7u})
        EXPECT_TRUE(statusUsable(report.statuses[i])) << i;

    // A clean follow-up batch clears the last-batch incident fields
    // but keeps the lifetime count.
    batch.setStallHook(nullptr);
    batch.solveAll(states, refs);
    EXPECT_EQ(batch.report().lastBatchExceptions, 0u);
    EXPECT_EQ(batch.report().lastExceptionRobot, -1);
    EXPECT_TRUE(batch.report().lastExceptionMessage.empty());
    EXPECT_EQ(batch.report().exceptions, 3u);
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_TRUE(statusUsable(batch.report().statuses[i])) << i;
}

TEST(Overload, QuarantinedRobotCountsAsUnsolved)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    constexpr std::size_t kRobots = 4;
    constexpr std::size_t kThrower = 3;
    BatchController batch(model, smallOptions(16), kRobots, 1);
    batch.enableTimeline(true);
    std::vector<std::size_t> costed;
    batch.setCostHook([&](std::size_t i, double measured) {
        costed.push_back(i);
        return measured;
    });

    std::vector<Vector> states, refs;
    makeFleetInputs(kRobots, states, refs);
    const auto &results = batch.solveAll(states, refs);
    ASSERT_GT(results[kThrower].iterations, 0);
    const BatchReport before = batch.report();

    // Batch 1: robot 3 throws before its solver runs, so its solver's
    // lastStats() still describe batch 0.
    batch.setStallHook([](std::size_t i) {
        if (i == kThrower)
            throw std::runtime_error("injected worker fault");
    });
    for (std::size_t i = 0; i < kRobots; ++i)
        states[i][0] += 0.05;
    costed.clear();
    batch.solveAll(states, refs);

    const BatchReport &report = batch.report();
    EXPECT_EQ(report.solves - before.solves, kThrower);
    std::uint64_t iterations = 0, flops = 0;
    for (std::size_t i = 0; i < kThrower; ++i) {
        iterations += static_cast<std::uint64_t>(results[i].iterations);
        flops += batch.solver(i).lastStats().riccatiFlops;
    }
    EXPECT_EQ(report.totalIterations - before.totalIterations, iterations);
    EXPECT_EQ(report.totalKktFlops - before.totalKktFlops, flops);
    EXPECT_EQ(report.unconverged, before.unconverged);

    // The quarantined result carries nothing from batch 0.
    EXPECT_EQ(results[kThrower].status, SolveStatus::NumericFailure);
    EXPECT_EQ(results[kThrower].iterations, 0);
    EXPECT_EQ(results[kThrower].objective, 0.0);
    EXPECT_TRUE(results[kThrower].degraded);

    // Only the robots that solved feed the cost model.
    EXPECT_EQ(costed, (std::vector<std::size_t>{0, 1, 2}));

    // The timeline shows a backup serve, not a solve span.
    for (const auto &span : batch.timeline().spans())
        EXPECT_FALSE(span.batch == 1 && span.robot == kThrower);
    bool marked = false;
    for (const auto &m : batch.timeline().markers())
        marked |= m.batch == 1 && m.robot == kThrower &&
                  m.kind == TimelineMarker::ServedFromBackup;
    EXPECT_TRUE(marked);
}

TEST(Overload, ReportLifetimeCountersAccumulateAcrossResetAll)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    constexpr std::size_t kRobots = 4;
    constexpr double kCost = 1e-3;

    MpcOptions opt = smallOptions();
    opt.overloadParallelism = 1;
    opt.batchDeadlineSeconds = 2.0 * kCost; // 2x load at 4 robots.

    BatchController batch(model, opt, kRobots, 2);
    batch.setCostHook([](std::size_t, double) { return kCost; });

    std::vector<Vector> states, refs;
    makeFleetInputs(kRobots, states, refs);
    batch.solveAll(states, refs);
    batch.solveAll(states, refs);
    const std::uint64_t degraded_before = batch.report().overload.degraded;
    EXPECT_GT(degraded_before, 0u);
    EXPECT_EQ(batch.report().batches, 2u);

    batch.resetAll();
    // resetAll clears solver/backup/gate state but NOT the lifetime
    // report: fleet dashboards keep counting across re-homes.
    EXPECT_FALSE(batch.backup(0).available());
    EXPECT_EQ(batch.report().batches, 2u);

    batch.solveAll(states, refs);
    batch.solveAll(states, refs);
    EXPECT_EQ(batch.report().batches, 4u);
    EXPECT_EQ(batch.report().solves, 4u * kRobots);
    EXPECT_GT(batch.report().overload.degraded, degraded_before);
    EXPECT_GE(batch.report().overload.batchLatency.totalSamples(), 4u);
}

// ---------------------------------------------------------------------
// Fleet timeline and metrics export
// ---------------------------------------------------------------------

TEST(Timeline, EnumLabelsAreStable)
{
    EXPECT_STREQ(toString(ServiceRung::Full), "full");
    EXPECT_STREQ(toString(ServiceRung::Degraded), "degraded");
    EXPECT_STREQ(toString(ServiceRung::Backup), "backup");
    EXPECT_STREQ(toString(ServiceRung::Shed), "shed");
    EXPECT_STREQ(toString(ServiceRung::BadInput), "bad-input");
    EXPECT_STREQ(toString(TimelineMarker::RungChange), "rung-change");
    EXPECT_STREQ(toString(TimelineMarker::SensorDemoted),
                 "sensor-demoted");
}

TEST(Timeline, RecordsSpansMarkersAndRungChanges)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    constexpr std::size_t kRobots = 8;
    constexpr double kCost = 1e-3;

    MpcOptions opt = smallOptions();
    opt.overloadParallelism = 1;
    opt.batchDeadlineSeconds = 4.0 * kCost; // 2x load at 8 robots.

    BatchController batch(model, opt, kRobots, 2);
    batch.setCostHook([](std::size_t, double) { return kCost; });
    batch.enableTimeline(true);

    std::vector<Vector> states, refs;
    makeFleetInputs(kRobots, states, refs);
    batch.solveAll(states, refs); // Cold model: all Full.
    batch.solveAll(states, refs); // Warm: tail degrades.

    const FleetTimeline &tl = batch.timeline();
    // Both batches solved every robot (full or degraded budget), so
    // every robot has a span per batch and no instant service markers
    // beyond the rung changes of batch 1.
    ASSERT_EQ(tl.spans().size(), 2 * kRobots);
    for (std::size_t i = 0; i < kRobots; ++i) {
        const auto &span = tl.spans()[i];
        EXPECT_EQ(span.robot, i);
        EXPECT_EQ(span.batch, 0u);
        EXPECT_DOUBLE_EQ(span.startSeconds, 0.0);
        EXPECT_EQ(span.rung, ServiceRung::Full);
        EXPECT_TRUE(statusUsable(span.status));
        EXPECT_GT(span.iterations, 0);
    }
    // Batch 1 starts one deadline later on the virtual axis.
    for (std::size_t i = 0; i < kRobots; ++i) {
        const auto &span = tl.spans()[kRobots + i];
        EXPECT_EQ(span.batch, 1u);
        EXPECT_DOUBLE_EQ(span.startSeconds, opt.batchDeadlineSeconds);
        EXPECT_DOUBLE_EQ(span.durationSeconds, kCost);
    }
    // The robots demoted in batch 1 each get one rung-change marker.
    const std::uint64_t degraded =
        batch.report().lastBatch(SolveStatus::DegradedBudget);
    EXPECT_GT(degraded, 0u);
    EXPECT_EQ(tl.markers().size(), degraded);
    for (const auto &m : tl.markers()) {
        EXPECT_EQ(m.kind, TimelineMarker::RungChange);
        EXPECT_EQ(m.from, ServiceRung::Full);
        EXPECT_EQ(m.to, ServiceRung::Degraded);
        EXPECT_EQ(m.batch, 1u);
    }

    const std::string json = tl.toChromeJson();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"fleet\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"robot 0\""), std::string::npos);
    EXPECT_NE(json.find("solve (full)"), std::string::npos);
    EXPECT_NE(json.find("solve (degraded)"), std::string::npos);
    EXPECT_NE(json.find("rung-change"), std::string::npos);

    batch.clearTimeline();
    EXPECT_TRUE(batch.timeline().empty());
}

// Timeline and metrics exports are part of the replay contract: the
// same campaign on 1 thread and 4 threads must export byte-identical
// artifacts.
TEST(Timeline, ExportsAreByteIdenticalAcrossThreadCounts)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    constexpr std::size_t kRobots = 10;
    constexpr int kBatches = 8;

    MpcOptions opt = gatedOptions();
    opt.batchDeadlineSeconds = 1e-3;
    opt.overloadParallelism = 4;
    opt.overloadBackupCostSeconds = 4e-4;

    ChaosSpec spec;
    spec.seed = 20260809;
    spec.stallRate = 0.2;
    spec.stallCostSeconds = 1e-3;
    spec.burstRate = 0.3;
    spec.burstFactor = 3.0;
    spec.poisonRate = 0.05;
    spec.virtualSolveCostSeconds = 4.0 * 1e-3 * 4.0 / kRobots;

    auto run = [&](std::size_t threads) {
        BatchController batch(model, opt, kRobots, threads);
        batch.enableTimeline(true);
        ChaosEngine chaos(spec);
        batch.setCostHook(chaos.costHook());

        std::vector<Vector> states, refs;
        makeFleetInputs(kRobots, states, refs);
        std::vector<Vector> prev = states;
        for (int b = 0; b < kBatches; ++b) {
            chaos.setBatch(static_cast<std::uint64_t>(b));
            std::vector<Vector> meas = states;
            for (std::size_t i = 0; i < kRobots; ++i)
                chaos.poisonState(static_cast<std::uint64_t>(b), i,
                                  prev[i], meas[i]);
            prev = meas;
            batch.solveAll(meas, refs);
            for (std::size_t i = 0; i < kRobots; ++i) {
                states[i][0] += 0.005;
                states[i][1] += 0.002;
            }
        }
        return std::make_pair(
            batch.timeline().toChromeJson(),
            batchMetricsJson(batch.report(),
                             /*include_timing=*/false));
    };

    const auto serial = run(1);
    const auto pooled = run(4);
    EXPECT_EQ(serial.first, pooled.first);   // Timeline JSON.
    EXPECT_EQ(serial.second, pooled.second); // Metrics JSON.

    // The campaign must actually populate both artifacts.
    EXPECT_NE(serial.first.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(serial.first.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(serial.second.find("\"group\": \"batch\""),
              std::string::npos);
    EXPECT_NE(serial.second.find("\"servedFromBackup\""),
              std::string::npos);
}

TEST(Timeline, MetricsJsonReflectsReportCounters)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    BatchController batch(model, smallOptions(), 3, 2);
    std::vector<Vector> states, refs;
    makeFleetInputs(3, states, refs);
    batch.solveAll(states, refs);

    const std::string json = batchMetricsJson(batch.report());
    EXPECT_NE(json.find("\"robots\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"batches\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"solves\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"batch_seconds\""), std::string::npos);
    // Environment-dependent fields only appear when timing is included.
    EXPECT_NE(json.find("\"totalBatchSeconds\""), std::string::npos);
    EXPECT_NE(json.find("\"threads\""), std::string::npos);
    const std::string stable =
        batchMetricsJson(batch.report(), /*include_timing=*/false);
    EXPECT_EQ(stable.find("\"totalBatchSeconds\""), std::string::npos);
    EXPECT_EQ(stable.find("\"threads\""), std::string::npos);
    EXPECT_EQ(stable.find("\"batch_seconds\""), std::string::npos);
}

} // namespace
} // namespace robox::mpc
