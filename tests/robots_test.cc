/**
 * @file
 * Tests for the six Table III benchmark robots: model/task parameter
 * counts must match the paper's table, dynamics must be well-posed, the
 * solver must converge on every benchmark, and each robot must actually
 * accomplish its task in closed loop.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "mpc/ipm.hh"
#include "mpc/simulate.hh"
#include "robots/robots.hh"
#include "support/alloc_hook.hh"
#include "support/logging.hh"

namespace robox::robots
{
namespace
{

class BenchmarkModel : public ::testing::TestWithParam<std::string>
{
  protected:
    const Benchmark &bench() const { return benchmark(GetParam()); }
};

TEST_P(BenchmarkModel, TableIIIParametersMatch)
{
    const Benchmark &b = bench();
    dsl::ModelSpec model = analyzeBenchmark(b);
    EXPECT_EQ(model.nx(), b.expStates) << "states";
    EXPECT_EQ(model.nu(), b.expInputs) << "inputs";
    EXPECT_EQ(static_cast<int>(model.penalties.size()), b.expPenalties)
        << "penalties";
    EXPECT_EQ(tableConstraintCount(model), b.expConstraints)
        << "constraints";
}

TEST_P(BenchmarkModel, DynamicsAreFiniteAtRepresentativeStates)
{
    const Benchmark &b = bench();
    dsl::ModelSpec model = analyzeBenchmark(b);
    // Evaluate continuous dynamics at the initial state with mid-range
    // inputs.
    std::vector<double> env(model.numVars(), 0.0);
    for (int i = 0; i < model.nx(); ++i)
        env[i] = b.initialState[i];
    for (int i = 0; i < model.nu(); ++i) {
        double lo = model.inputLower[i];
        double hi = model.inputUpper[i];
        env[model.inputVarId(i)] =
            (lo != -dsl::kUnbounded && hi != dsl::kUnbounded)
                ? 0.5 * (lo + hi)
                : 0.0;
    }
    for (int i = 0; i < model.nref(); ++i)
        env[model.refVarId(i)] = b.reference[i];
    for (int i = 0; i < model.nx(); ++i) {
        double d = model.dynamics[i].eval(env);
        EXPECT_TRUE(std::isfinite(d))
            << model.stateNames[i] << " derivative";
    }
}

TEST_P(BenchmarkModel, InitialStateRespectsBounds)
{
    const Benchmark &b = bench();
    dsl::ModelSpec model = analyzeBenchmark(b);
    ASSERT_EQ(static_cast<int>(b.initialState.size()), model.nx());
    ASSERT_EQ(static_cast<int>(b.reference.size()), model.nref());
    for (int i = 0; i < model.nx(); ++i) {
        EXPECT_GE(b.initialState[i], model.stateLower[i] - 1e-9)
            << model.stateNames[i];
        EXPECT_LE(b.initialState[i], model.stateUpper[i] + 1e-9)
            << model.stateNames[i];
    }
}

TEST_P(BenchmarkModel, SolverConvergesFromColdStart)
{
    const Benchmark &b = bench();
    dsl::ModelSpec model = analyzeBenchmark(b);
    mpc::MpcOptions opt = b.options;
    opt.horizon = 32; // The paper's headline configuration.
    mpc::IpmSolver solver(model, opt);
    auto result = solver.solve(b.initialState, b.reference);
    EXPECT_TRUE(result.converged) << b.name << " did not converge in "
                                  << result.iterations << " iterations";
    for (std::size_t i = 0; i < result.u0.size(); ++i)
        EXPECT_TRUE(std::isfinite(result.u0[i]));
    // Planned inputs respect their bounds.
    for (const Vector &u : solver.inputTrajectory()) {
        for (int i = 0; i < model.nu(); ++i) {
            EXPECT_GE(u[i], model.inputLower[i] - 1e-6);
            EXPECT_LE(u[i], model.inputUpper[i] + 1e-6);
        }
    }
}

// The solver sizes everything a solve touches at construction, so
// neither its first solve nor the cold start after reset() allocates.
TEST_P(BenchmarkModel, FirstSolvesAreAllocationFree)
{
    if (!support::allocCountingActive())
        GTEST_SKIP() << "allocation counting hook not linked";
    const Benchmark &b = bench();
    dsl::ModelSpec model = analyzeBenchmark(b);
    mpc::MpcOptions opt = b.options;
    opt.horizon = 32;
    mpc::IpmSolver solver(model, opt);
    for (const char *when : {"first solve", "first solve after reset()"}) {
        const std::uint64_t before = support::allocCount();
        solver.solve(b.initialState, b.reference);
        EXPECT_EQ(support::allocCount() - before, 0u) << when;
        EXPECT_EQ(solver.lastStats().heapAllocations, 0u) << when;
        EXPECT_TRUE(mpc::statusUsable(solver.lastStats().status)) << when;
        EXPECT_GT(solver.lastStats().iterations, 0) << when;
        solver.reset();
    }
}

INSTANTIATE_TEST_SUITE_P(Table3, BenchmarkModel,
                         ::testing::Values("MobileRobot", "Manipulator",
                                           "AutoVehicle", "MicroSat",
                                           "Quadrotor", "Hexacopter"));

TEST(Robots, AllBenchmarksListedInTableOrder)
{
    const auto &list = allBenchmarks();
    ASSERT_EQ(list.size(), 6u);
    EXPECT_EQ(list[0].name, "MobileRobot");
    EXPECT_EQ(list[5].name, "Hexacopter");
    EXPECT_THROW(benchmark("NoSuchRobot"), robox::FatalError);
}

// ---------------------------------------------------------------------
// Closed-loop task completion, one per robot.
// ---------------------------------------------------------------------

TEST(ClosedLoop, MobileRobotTracksTarget)
{
    const Benchmark &b = benchmark("MobileRobot");
    mpc::MpcOptions opt = b.options;
    opt.horizon = 20;
    mpc::IpmSolver solver(analyzeBenchmark(b), opt);
    auto sim = mpc::simulateClosedLoop(solver, b.initialState,
                                       b.reference, 60);
    const Vector &x = sim.states.back();
    EXPECT_NEAR(x[0], b.reference[0], 0.15);
    EXPECT_NEAR(x[1], b.reference[1], 0.15);
}

TEST(ClosedLoop, ManipulatorReachesEndEffectorTarget)
{
    const Benchmark &b = benchmark("Manipulator");
    mpc::MpcOptions opt = b.options;
    opt.horizon = 24;
    mpc::IpmSolver solver(analyzeBenchmark(b), opt);
    auto sim = mpc::simulateClosedLoop(solver, b.initialState,
                                       b.reference, 120);
    const Vector &x = sim.states.back();
    double ee_x = std::cos(x[0]) + std::cos(x[0] + x[1]);
    double ee_y = std::sin(x[0]) + std::sin(x[0] + x[1]);
    EXPECT_NEAR(ee_x, b.reference[0], 0.15);
    EXPECT_NEAR(ee_y, b.reference[1], 0.15);
}

TEST(ClosedLoop, AutoVehicleGainsSpeedTowardTarget)
{
    const Benchmark &b = benchmark("AutoVehicle");
    mpc::MpcOptions opt = b.options;
    opt.horizon = 20;
    mpc::IpmSolver solver(analyzeBenchmark(b), opt);
    // Reference: a point ahead on the straight with target heading 0.
    auto ref_at = [](int step) {
        return Vector{1.0 + 0.15 * step, 0.0, 0.0};
    };
    auto sim = mpc::simulateClosedLoop(solver, b.initialState, ref_at, 50);
    const Vector &x = sim.states.back();
    // Accelerated well above the initial 1 m/s and stayed near the line.
    EXPECT_GT(x[3], 2.0);
    EXPECT_LT(std::abs(x[1]), 0.5);
}

TEST(ClosedLoop, MicroSatRestoresOrbitAndAttitude)
{
    const Benchmark &b = benchmark("MicroSat");
    mpc::MpcOptions opt = b.options;
    opt.horizon = 24;
    mpc::IpmSolver solver(analyzeBenchmark(b), opt);
    auto sim = mpc::simulateClosedLoop(solver, b.initialState,
                                       b.reference, 80);
    const Vector &x = sim.states.back();
    EXPECT_LT(std::abs(x[7]), 0.1);           // altitude deviation
    EXPECT_LT(std::abs(x[1]) + std::abs(x[2]) + std::abs(x[3]), 0.05);
    // Quaternion stayed near unit norm.
    double norm = x[0] * x[0] + x[1] * x[1] + x[2] * x[2] + x[3] * x[3];
    EXPECT_NEAR(norm, 1.0, 0.06);
}

TEST(ClosedLoop, QuadrotorFliesToGoal)
{
    const Benchmark &b = benchmark("Quadrotor");
    mpc::MpcOptions opt = b.options;
    opt.horizon = 24;
    mpc::IpmSolver solver(analyzeBenchmark(b), opt);
    auto sim = mpc::simulateClosedLoop(solver, b.initialState,
                                       b.reference, 120);
    const Vector &x = sim.states.back();
    EXPECT_NEAR(x[0], b.reference[0], 0.2);
    EXPECT_NEAR(x[1], b.reference[1], 0.2);
    EXPECT_NEAR(x[2], b.reference[2], 0.2);
    // Tilt bounds respected along the way.
    for (const Vector &s : sim.states) {
        EXPECT_LE(std::abs(s[6]), 0.6 + 5e-2);
        EXPECT_LE(std::abs(s[7]), 0.6 + 5e-2);
    }
}

TEST(ClosedLoop, HexacopterTracksAttitude)
{
    const Benchmark &b = benchmark("Hexacopter");
    mpc::MpcOptions opt = b.options;
    opt.horizon = 24;
    mpc::IpmSolver solver(analyzeBenchmark(b), opt);
    auto sim = mpc::simulateClosedLoop(solver, b.initialState,
                                       b.reference, 150);
    const Vector &x = sim.states.back();
    EXPECT_NEAR(x[6], b.reference[0], 0.08); // roll
    EXPECT_NEAR(x[7], b.reference[1], 0.08); // pitch
    EXPECT_NEAR(x[8], b.reference[2], 0.08); // yaw
}

} // namespace
} // namespace robox::robots
