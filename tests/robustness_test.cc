/**
 * @file
 * Robustness and failure-injection tests: disturbances mid-episode,
 * measured states that violate state bounds (the stage-0 masking
 * path), reference jumps, saturation accounting in fixed-point mode,
 * iteration caps, and degenerate solver inputs.
 */

#include <cmath>
#include <cstring>
#include <limits>
#include <random>

#include <gtest/gtest.h>

#include "core/controller.hh"
#include "dsl/sema.hh"
#include "fixed/fixed.hh"
#include "mpc/batch.hh"
#include "mpc/dense_kkt.hh"
#include "mpc/failsafe.hh"
#include "mpc/ipm.hh"
#include "mpc/riccati.hh"
#include "mpc/simulate.hh"
#include "robots/robots.hh"
#include "support/alloc_hook.hh"
#include "support/logging.hh"

namespace robox::mpc
{
namespace
{

TEST(Disturbance, QuadrotorRecoversFromMidFlightKick)
{
    const robots::Benchmark &b = robots::benchmark("Quadrotor");
    dsl::ModelSpec model = robots::analyzeBenchmark(b);
    MpcOptions opt = b.options;
    opt.horizon = 24;
    IpmSolver solver(model, opt);
    Plant plant(model);

    Vector x = b.initialState;
    for (int step = 0; step < 140; ++step) {
        auto result = solver.solve(x, b.reference);
        x = plant.step(x, result.u0, b.reference, opt.dt);
        if (step == 50) {
            // Kick: lateral velocity and roll-rate impulse.
            x[3] += 1.0;
            x[9] += 1.5;
            solver.reset();
        }
    }
    EXPECT_NEAR(x[0], b.reference[0], 0.3);
    EXPECT_NEAR(x[1], b.reference[1], 0.3);
    EXPECT_NEAR(x[2], b.reference[2], 0.3);
}

TEST(Disturbance, StateOutsideBoundsIsHandledAtStageZero)
{
    // AutoVehicle has a vy box of [-1, 1]. A measured vy outside that
    // box must not make the problem infeasible: state-involving rows
    // are masked at the fixed initial stage.
    const robots::Benchmark &b = robots::benchmark("AutoVehicle");
    dsl::ModelSpec model = robots::analyzeBenchmark(b);
    MpcOptions opt = b.options;
    opt.horizon = 16;
    IpmSolver solver(model, opt);

    Vector x = b.initialState;
    x[4] = 1.3; // vy beyond its 1.0 bound.
    auto result = solver.solve(x, b.reference);
    for (std::size_t i = 0; i < result.u0.size(); ++i)
        EXPECT_TRUE(std::isfinite(result.u0[i]));
    // The plan must bring vy back inside its bounds by mid-horizon.
    EXPECT_LE(std::abs(solver.stateTrajectory()[8][4]), 1.0 + 1e-6);
}

TEST(Disturbance, ReferenceJumpAfterWarmStart)
{
    const robots::Benchmark &b = robots::benchmark("MobileRobot");
    dsl::ModelSpec model = robots::analyzeBenchmark(b);
    MpcOptions opt = b.options;
    opt.horizon = 20;
    IpmSolver solver(model, opt);

    // Converge toward one target, then jump the reference far away;
    // the warm-started solver must still return a sane plan.
    Vector x = b.initialState;
    Plant plant(model);
    for (int step = 0; step < 10; ++step) {
        auto r = solver.solve(x, Vector{1.0, 0.5, 0.0});
        x = plant.step(x, r.u0, Vector{1.0, 0.5, 0.0}, opt.dt);
    }
    auto jumped = solver.solve(x, Vector{-2.0, -1.5, 3.0});
    for (std::size_t i = 0; i < jumped.u0.size(); ++i) {
        EXPECT_TRUE(std::isfinite(jumped.u0[i]));
        EXPECT_LE(std::abs(jumped.u0[i]), 2.0 + 1e-6);
    }
}

TEST(FixedPoint, SaturationEventsAreObservable)
{
    Fixed::resetSaturationCount();
    Fixed big = Fixed::fromDouble(16000.0);
    Fixed product = big * big; // Overflows Q14.17.
    EXPECT_EQ(product.raw(), Fixed::rawMax);
    EXPECT_GE(Fixed::saturationCount(), 1u);
    Fixed::resetSaturationCount();
    EXPECT_EQ(Fixed::saturationCount(), 0u);
}

TEST(IterationCap, SolverStopsAtMaxIterations)
{
    const robots::Benchmark &b = robots::benchmark("Hexacopter");
    dsl::ModelSpec model = robots::analyzeBenchmark(b);
    MpcOptions opt = b.options;
    opt.horizon = 16;
    opt.maxIterations = 3;
    IpmSolver solver(model, opt);
    auto result = solver.solve(b.initialState, b.reference);
    EXPECT_EQ(result.iterations, 3);
    EXPECT_FALSE(result.converged);
    // Even unconverged, the returned control is finite and bounded.
    for (std::size_t i = 0; i < result.u0.size(); ++i) {
        EXPECT_TRUE(std::isfinite(result.u0[i]));
        EXPECT_GE(result.u0[i], -1e-6);
        EXPECT_LE(result.u0[i], 3.0 + 1e-6);
    }
}

TEST(Degenerate, TightBoundsStillSolve)
{
    // An almost-pinned input (bounds one quantum apart).
    const char *src = R"(
System Pinned() {
  state x;
  input u;
  x.dt = u;
  u.lower_bound <= 0.499;
  u.upper_bound <= 0.501;
  Task go() {
    penalty p;
    p.running = x - 1;
  }
}
Pinned sys();
sys.go();
)";
    dsl::ModelSpec model = dsl::analyzeSource(src);
    MpcOptions opt;
    opt.horizon = 8;
    opt.dt = 0.1;
    IpmSolver solver(model, opt);
    auto result = solver.solve(Vector{0.0}, Vector(0));
    EXPECT_NEAR(result.u0[0], 0.5, 2e-3);
}

TEST(Degenerate, ZeroWeightPenaltiesAreHarmless)
{
    const char *src = R"(
System Z() {
  state x;
  input u;
  x.dt = u;
  u.lower_bound <= -1;
  u.upper_bound <= 1;
  Task go() {
    penalty p, ignored;
    p.running = x - 1;
    ignored.running = x * x;
    ignored.weight <= 0;
  }
}
Z sys();
sys.go();
)";
    dsl::ModelSpec model = dsl::analyzeSource(src);
    MpcOptions opt;
    opt.horizon = 10;
    opt.dt = 0.1;
    IpmSolver solver(model, opt);
    auto result = solver.solve(Vector{0.0}, Vector(0));
    EXPECT_TRUE(result.converged);
    EXPECT_GT(result.u0[0], 0.5);
}

TEST(Degenerate, HugeWeightsStayNumericallyStable)
{
    const char *src = R"(
System H() {
  state x;
  input u;
  x.dt = u;
  u.lower_bound <= -1;
  u.upper_bound <= 1;
  Task go() {
    penalty p;
    p.running = x - 0.5;
    p.weight <= 1e6;
  }
}
H sys();
sys.go();
)";
    dsl::ModelSpec model = dsl::analyzeSource(src);
    MpcOptions opt;
    opt.horizon = 10;
    opt.dt = 0.1;
    IpmSolver solver(model, opt);
    auto result = solver.solve(Vector{0.0}, Vector(0));
    EXPECT_TRUE(std::isfinite(result.objective));
    EXPECT_GT(result.u0[0], 0.9); // Race to the setpoint.
}

TEST(Degenerate, UnboundedInputProblemStillSolves)
{
    // No inequality rows at all: the IPM degenerates to Newton/SQP.
    const char *src = R"(
System Free() {
  state x;
  input u;
  x.dt = u;
  Task go() {
    penalty p, pu;
    p.running = x - 1;
    pu.running = u;
    pu.weight <= 0.1;
  }
}
Free sys();
sys.go();
)";
    dsl::ModelSpec model = dsl::analyzeSource(src);
    MpcOptions opt;
    opt.horizon = 10;
    opt.dt = 0.1;
    IpmSolver solver(model, opt);
    auto result = solver.solve(Vector{0.0}, Vector(0));
    EXPECT_TRUE(result.converged);
    EXPECT_GT(result.u0[0], 0.0);
}

TEST(Degenerate, DynamicsDivisionByStateNearZeroSaturates)
{
    // 1/x dynamics evaluated away from zero work; the tape itself is
    // well-formed even though x -> 0 would blow up.
    const char *src = R"(
System D() {
  state x;
  input u;
  x.dt = u / x;
  x.lower_bound <= 0.5;
  x.upper_bound <= 10;
  u.lower_bound <= -1;
  u.upper_bound <= 1;
  Task go() {
    penalty p;
    p.running = x - 2;
  }
}
D sys();
sys.go();
)";
    dsl::ModelSpec model = dsl::analyzeSource(src);
    MpcOptions opt;
    opt.horizon = 8;
    opt.dt = 0.05;
    IpmSolver solver(model, opt);
    auto result = solver.solve(Vector{1.0}, Vector(0));
    EXPECT_TRUE(std::isfinite(result.u0[0]));
}

// ---------------------------------------------------------------------
// Failsafe layer: structured statuses instead of exceptions, the
// in-solve recovery ladder, deadline-bounded anytime solves, backup
// commands, and per-robot fault isolation in batches.
// ---------------------------------------------------------------------

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

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

MpcOptions
integratorOptions()
{
    MpcOptions opt;
    opt.horizon = 12;
    opt.dt = 0.1;
    return opt;
}

TEST(FaultInjection, NanStateIsRefusedWithoutPoisoningWarmStart)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    IpmSolver solver(model, integratorOptions());

    auto good = solver.solve(Vector{0.0, 0.0}, Vector{1.0});
    ASSERT_EQ(good.status, SolveStatus::Converged);

    const IpmSolver::Result *bad = nullptr;
    EXPECT_NO_THROW(bad = &solver.solve(Vector{kNaN, 0.0},
                                        Vector{1.0}));
    ASSERT_NE(bad, nullptr);
    EXPECT_EQ(bad->status, SolveStatus::BadInput);
    EXPECT_FALSE(bad->converged);
    EXPECT_EQ(bad->iterations, 0);
    for (std::size_t i = 0; i < bad->u0.size(); ++i) {
        EXPECT_TRUE(std::isfinite(bad->u0[i]));
        EXPECT_GE(bad->u0[i], -1.0 - 1e-9);
        EXPECT_LE(bad->u0[i], 1.0 + 1e-9);
    }

    // The refusal must not poison the warm start: the next valid
    // measurement solves normally.
    auto again = solver.solve(Vector{0.02, 0.01}, Vector{1.0});
    EXPECT_EQ(again.status, SolveStatus::Converged);
}

TEST(FaultInjection, InfStateAndNanReferenceAreBadInput)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    IpmSolver solver(model, integratorOptions());

    auto inf_state = solver.solve(Vector{kInf, 0.0}, Vector{1.0});
    EXPECT_EQ(inf_state.status, SolveStatus::BadInput);

    auto nan_ref = solver.solve(Vector{0.0, 0.0}, Vector{kNaN});
    EXPECT_EQ(nan_ref.status, SolveStatus::BadInput);
}

TEST(FaultInjection, MisSizedReferenceIsBadInput)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    IpmSolver solver(model, integratorOptions());
    ASSERT_EQ(solver.solve(Vector{0.0, 0.0}, Vector{1.0}).status,
              SolveStatus::Converged);
    EXPECT_EQ(solver.solve(Vector{0.01, 0.0}, Vector()).status,
              SolveStatus::BadInput);
    EXPECT_EQ(solver.solve(Vector{0.01, 0.0}, Vector{1.0, 2.0}).status,
              SolveStatus::BadInput);
    EXPECT_EQ(solver.solve(Vector{0.01, 0.0}, Vector{1.0}).status,
              SolveStatus::Converged);
}

TEST(FaultInjection, BadInputPathIsAllocationFreeWhenWarm)
{
    if (!support::allocCountingActive())
        GTEST_SKIP() << "allocation counting hook not linked";
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    IpmSolver solver(model, integratorOptions());
    solver.solve(Vector{0.0, 0.0}, Vector{1.0});
    solver.solve(Vector{0.01, 0.0}, Vector{1.0});
    solver.solve(Vector{kNaN, 0.0}, Vector{1.0});
    EXPECT_EQ(solver.lastStats().heapAllocations, 0u);
}

TEST(FaultInjection, RiccatiReportsNonFiniteStageData)
{
    std::vector<StageQp> stages(1);
    stages[0].a = Matrix::identity(2);
    stages[0].b = Matrix(2, 1);
    stages[0].b(1, 0) = 1.0;
    stages[0].c = Vector(2);
    stages[0].q = Matrix::identity(2);
    stages[0].r = Matrix::identity(1);
    stages[0].r(0, 0) = kNaN; // Poisons the factored input Hessian.
    stages[0].s = Matrix(1, 2);
    stages[0].qv = Vector(2);
    stages[0].rv = Vector{1.0};

    RiccatiWorkspace ws;
    RiccatiSolution sol;
    FactorStatus status = solveRiccati(stages, Matrix::identity(2),
                                       Vector(2), Vector(2), 1e-8, ws,
                                       sol);
    EXPECT_NE(status, FactorStatus::Ok);
}

TEST(FaultInjection, DenseKktReportsSingularAndNonFiniteSystems)
{
    // Zero Hessian with b = 1 makes two KKT rows identical: singular.
    std::vector<StageQp> stages(1);
    stages[0].a = Matrix::identity(1);
    stages[0].b = Matrix::identity(1);
    stages[0].c = Vector(1);
    stages[0].q = Matrix(1, 1);
    stages[0].r = Matrix(1, 1);
    stages[0].s = Matrix(1, 1);
    stages[0].qv = Vector(1);
    stages[0].rv = Vector(1);

    DenseKktWorkspace ws;
    RiccatiSolution sol;
    FactorStatus singular = solveDenseKkt(stages, Matrix(1, 1),
                                          Vector(1), Vector(1), ws, sol);
    EXPECT_EQ(singular, FactorStatus::Singular);

    // The same degenerate system becomes solvable with the ladder's
    // Tikhonov shift — this is what one regularization bump does.
    FactorStatus shifted =
        solveDenseKkt(stages, Matrix(1, 1), Vector(1), Vector(1), ws,
                      sol, 1e-4);
    EXPECT_EQ(shifted, FactorStatus::Ok);

    stages[0].q(0, 0) = kNaN;
    FactorStatus nonfinite = solveDenseKkt(
        stages, Matrix(1, 1), Vector(1), Vector(1), ws, sol, 1e-4);
    EXPECT_EQ(nonfinite, FactorStatus::NonFinite);
}

TEST(FaultInjection, MidSolveNumericBreakdownReturnsStatusNotThrow)
{
    // u / x dynamics evaluated at x0 = 0: the measured state passes
    // input validation but the first linearization is non-finite, so
    // the failure happens inside the solve. The ladder's cold restart
    // cannot help (the state itself is the problem), so the solve must
    // give up with a structured status, never an exception.
    const char *src = R"(
System D() {
  state x;
  input u;
  x.dt = u / x;
  u.lower_bound <= -1;
  u.upper_bound <= 1;
  Task go() {
    penalty p;
    p.running = x - 2;
  }
}
D sys();
sys.go();
)";
    dsl::ModelSpec model = dsl::analyzeSource(src);
    MpcOptions opt;
    opt.horizon = 8;
    opt.dt = 0.05;
    IpmSolver solver(model, opt);

    const IpmSolver::Result *result = nullptr;
    EXPECT_NO_THROW(result = &solver.solve(Vector{0.0}, Vector(0)));
    ASSERT_NE(result, nullptr);
    EXPECT_FALSE(statusUsable(result->status));
    EXPECT_TRUE(result->status == SolveStatus::NumericFailure ||
                result->status == SolveStatus::Diverged)
        << toString(result->status);
    EXPECT_TRUE(std::isfinite(result->u0[0]));

    const SolveStats &stats = solver.lastStats();
    EXPECT_GE(stats.recoveryAttempts, 1);
    EXPECT_GE(stats.coldRestarts, 1);
}

/** A two-state integrator whose task holds `row`, a penalty or
 *  constraint line built on sqrt(x): at x = 0 its residual is finite
 *  while its x derivative 0.5 / sqrt(x) is infinite. `vdot` is the
 *  right-hand side of v's dynamics line. */
std::string
sqrtIntegrator(const std::string &row, const std::string &vdot = "u")
{
    return R"(
System S() {
  state x, v;
  input u;
  x.dt = v;
  v.dt = )" + vdot + R"(;
  u.lower_bound <= -1;
  u.upper_bound <= 1;
  Task go() {
    penalty effort;
    effort.running = u;
    effort.weight <= 0.1;
)" + row + R"(
  }
}
S sys();
sys.go();
)";
}

TEST(FaultInjection, InfiniteJacobianEntryOutcomesArePinned)
{
    // The stage assembly multiplies through each Jacobian row; an
    // infinite entry beside structural zeros is where skipping those
    // zeros could change the arithmetic. The outcome of each solve is
    // pinned: status, iterations, recoveries and the bits of u0.
    struct Case
    {
        const char *row;
        double x0;
        SolveStatus status;
        int iterations;
        int recoveries;
        std::uint64_t u0_bits;
    };
    const char *kPenalty = "penalty p;\n    p.running = sqrt(x) + 1;";
    const char *kConstraint = "constraint c;\n    c.running = sqrt(x) + v;\n"
                              "    c.upper_bound <= 2;";
    const Case cases[] = {
        {kPenalty, 0.0, SolveStatus::NumericFailure, 2, 2, 0},
        {kPenalty, 1.0, SolveStatus::Converged, 13, 0,
         0xbfeffffffec84ae8ull},
        {kConstraint, 0.0, SolveStatus::NumericFailure, 2, 2, 0},
        {kConstraint, 1.0, SolveStatus::Converged, 11, 0,
         0xbe705dbcb4584938ull},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(std::string(c.row) + " from x = " +
                     std::to_string(c.x0));
        dsl::ModelSpec model = dsl::analyzeSource(sqrtIntegrator(c.row));
        MpcOptions opt;
        opt.horizon = 10;
        opt.dt = 0.1;
        IpmSolver solver(model, opt);
        const IpmSolver::Result &result =
            solver.solve(Vector{c.x0, 0.0}, Vector(0));
        const double u0 = result.u0[0];
        std::uint64_t bits = 0;
        std::memcpy(&bits, &u0, sizeof bits);
        EXPECT_EQ(result.status, c.status) << toString(result.status);
        EXPECT_EQ(result.iterations, c.iterations);
        EXPECT_EQ(solver.lastStats().recoveryAttempts, c.recoveries);
        EXPECT_EQ(bits, c.u0_bits) << u0;
    }
}

TEST(FaultInjection, InfiniteDynamicsJacobianOutcomesArePinned)
{
    // v.dt = u + sqrt(x): from x = 0 the dynamics Jacobian A holds an
    // infinite entry beside structural zeros, so the Riccati pass
    // meets it and the cost-to-go P turns non-finite. Status,
    // iterations, recoveries and the bits of u0 are pinned.
    struct Case
    {
        double x0;
        SolveStatus status;
        int iterations;
        int recoveries;
        std::uint64_t u0_bits;
    };
    const Case cases[] = {
        {0.0, SolveStatus::NumericFailure, 2, 2, 0},
        {1.0, SolveStatus::Converged, 12, 0, 0x3feffffff977a977ull},
    };
    const char *kTrack = "penalty p;\n    p.running = x - 2;";
    for (const Case &c : cases) {
        SCOPED_TRACE("from x = " + std::to_string(c.x0));
        dsl::ModelSpec model =
            dsl::analyzeSource(sqrtIntegrator(kTrack, "u + sqrt(x)"));
        MpcOptions opt;
        opt.horizon = 10;
        opt.dt = 0.1;
        IpmSolver solver(model, opt);
        const IpmSolver::Result &result =
            solver.solve(Vector{c.x0, 0.0}, Vector(0));
        const double u0 = result.u0[0];
        std::uint64_t bits = 0;
        std::memcpy(&bits, &u0, sizeof bits);
        EXPECT_EQ(result.status, c.status) << toString(result.status);
        EXPECT_EQ(result.iterations, c.iterations);
        EXPECT_EQ(solver.lastStats().recoveryAttempts, c.recoveries);
        EXPECT_EQ(bits, c.u0_bits) << u0;
    }
}

TEST(FaultInjection, RiccatiWithInfiniteDynamicsEntryIsPinned)
{
    // One stage's A holds an Inf beside zeros while the cost-to-go is
    // diagonal, so the products P A meet 0 * Inf wherever a zero of P
    // lines up with the Inf. The returned status and the flop count
    // are pinned for the Inf in the last stage (met first, against
    // P = Qn) and in the first stage (met last, where the recursion
    // completes and the first input step is -Inf).
    struct Case
    {
        std::size_t stage;
        FactorStatus status;
        std::uint64_t flops;
    };
    const Case cases[] = {
        {2, FactorStatus::NonFinite, 416},
        {0, FactorStatus::Ok, 762},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE("Inf in stage " + std::to_string(c.stage));
        std::vector<StageQp> stages(3);
        for (StageQp &st : stages) {
            st.a = Matrix::identity(3);
            st.a(0, 1) = 0.1;
            st.b = Matrix(3, 1);
            st.b(1, 0) = 0.1;
            st.c = Vector{0.0, 0.5, 0.0};
            st.q = Matrix::identity(3);
            st.r = Matrix::identity(1);
            st.s = Matrix(1, 3);
            st.qv = Vector{0.0, 0.0, 0.0};
            st.rv = Vector{0.0};
        }
        stages[c.stage].a(1, 2) = kInf;

        RiccatiWorkspace ws;
        RiccatiSolution sol;
        FactorStatus status =
            solveRiccati(stages, Matrix::identity(3), Vector(3),
                         Vector{1.0, 0.0, 1.0}, 1e-8, ws, sol);
        EXPECT_EQ(status, c.status) << toString(status);
        EXPECT_EQ(sol.flops, c.flops);
        if (status == FactorStatus::Ok) {
            EXPECT_EQ(sol.du[0][0], -kInf);
        }
    }
}

TEST(FaultInjection, ZeroDeadlineReturnsImmediately)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    IpmSolver solver(model, integratorOptions());
    solver.setSolveDeadline(0.0);

    auto result = solver.solve(Vector{0.0, 0.0}, Vector{1.0});
    EXPECT_EQ(result.status, SolveStatus::DeadlineMiss);
    EXPECT_EQ(result.iterations, 0);
    for (std::size_t i = 0; i < result.u0.size(); ++i) {
        EXPECT_TRUE(std::isfinite(result.u0[i]));
        EXPECT_GE(result.u0[i], -1.0 - 1e-9);
        EXPECT_LE(result.u0[i], 1.0 + 1e-9);
    }
}

TEST(FaultInjection, DeadlineMissOnWarmSolverReturnsShiftedPlan)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    IpmSolver solver(model, integratorOptions());

    auto good = solver.solve(Vector{0.0, 0.0}, Vector{1.0});
    ASSERT_EQ(good.status, SolveStatus::Converged);
    const Vector expected = solver.inputTrajectory()[1]; // Copy.

    // Budget exhausted before the next period's solve can iterate:
    // the anytime contract returns the time-shifted previous plan.
    solver.setSolveDeadline(0.0);
    auto missed = solver.solve(Vector{0.01, 0.0}, Vector{1.0});
    EXPECT_EQ(missed.status, SolveStatus::DeadlineMiss);
    EXPECT_EQ(missed.iterations, 0);
    ASSERT_EQ(missed.u0.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(missed.u0[i], expected[i]);

    // Restoring the budget resumes normal solving with the warm start.
    solver.setSolveDeadline(-1.0);
    auto resumed = solver.solve(Vector{0.02, 0.0}, Vector{1.0});
    EXPECT_EQ(resumed.status, SolveStatus::Converged);
}

TEST(FaultInjection, BackupPlanReplaysShiftedTailAndClamps)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    BackupPlan backup(model);
    EXPECT_FALSE(backup.available());

    // No plan yet: the box-projected zero command.
    EXPECT_EQ(backup.command()[0], 0.0);
    EXPECT_EQ(backup.consecutiveDegraded(), 1);

    backup.accept({Vector{0.5}, Vector{5.0}, Vector{-0.25}});
    EXPECT_TRUE(backup.available());
    EXPECT_EQ(backup.consecutiveDegraded(), 0);

    // The tail starts at stage 1 (stage 0 was for the failed period),
    // clamps to the actuator box, and holds the last input.
    EXPECT_EQ(backup.command()[0], 1.0); // 5.0 clamped to acc <= 1.
    EXPECT_EQ(backup.command()[0], -0.25);
    EXPECT_EQ(backup.command()[0], -0.25); // Tail exhausted: hold.
    EXPECT_EQ(backup.consecutiveDegraded(), 3);

    backup.clear();
    EXPECT_FALSE(backup.available());
    EXPECT_EQ(backup.consecutiveDegraded(), 0);
}

TEST(FaultInjection, ControllerSubstitutesBackupCommand)
{
    core::Controller controller(kDoubleIntegrator, integratorOptions());

    auto first = controller.step(Vector{0.0, 0.0}, Vector{1.0});
    ASSERT_TRUE(statusUsable(first.status));
    EXPECT_FALSE(first.degraded);
    const Vector expected = controller.solver().inputTrajectory()[1];

    auto degraded = controller.step(Vector{kNaN, 0.0}, Vector{1.0});
    EXPECT_TRUE(degraded.degraded);
    EXPECT_EQ(controller.lastStatus(), SolveStatus::BadInput);
    EXPECT_EQ(controller.consecutiveDegradedSteps(), 1);
    ASSERT_EQ(degraded.u0.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(degraded.u0[i], expected[i]);

    auto recovered = controller.step(Vector{0.05, 0.0}, Vector{1.0});
    EXPECT_FALSE(recovered.degraded);
    EXPECT_EQ(controller.consecutiveDegradedSteps(), 0);
}

TEST(FaultInjection, SimulationDegradesForOneBadReferenceStep)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    IpmSolver solver(model, integratorOptions());

    auto ref_at = [](int k) {
        return k == 3 ? Vector{kNaN} : Vector{1.0};
    };
    SimulationResult sim =
        simulateClosedLoop(solver, Vector{0.0, 0.0}, ref_at, 8);

    EXPECT_EQ(sim.degradedSteps, 1);
    EXPECT_EQ(sim.maxConsecutiveDegraded, 1);
    ASSERT_EQ(sim.statuses.size(), 8u);
    EXPECT_EQ(sim.statuses[3], SolveStatus::BadInput);
    EXPECT_FALSE(sim.allConverged);
    for (const Vector &u : sim.inputs)
        for (std::size_t i = 0; i < u.size(); ++i)
            EXPECT_TRUE(std::isfinite(u[i]));
    for (const Vector &x : sim.states)
        for (std::size_t i = 0; i < x.size(); ++i)
            EXPECT_TRUE(std::isfinite(x[i]));
    // Steps after the fault resume normal solving.
    EXPECT_EQ(sim.statuses[4], SolveStatus::Converged);
}

TEST(FaultInjection, EveryServingPathIssuesTheSameBackupCommands)
{
    // simulateClosedLoop, core::Controller and BatchController share
    // one per-robot failsafe, so on the same states and references
    // they issue bitwise the same commands, degraded periods included.
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    const MpcOptions opt = integratorOptions();
    constexpr int kSteps = 8;
    auto bad = [](int k) { return k == 3 || k == 4; };
    auto ref_at = [&](int k) { return bad(k) ? Vector{kNaN} : Vector{1.0}; };

    IpmSolver solver(model, opt);
    const SimulationResult sim =
        simulateClosedLoop(solver, Vector{0.0, 0.0}, ref_at, kSteps);
    ASSERT_EQ(sim.degradedSteps, 2);
    ASSERT_EQ(sim.maxConsecutiveDegraded, 2);

    core::Controller controller(kDoubleIntegrator, opt);
    BatchController batch(model, opt, 1, 1);
    for (int k = 0; k < kSteps; ++k) {
        const std::vector<Vector> states{sim.states[k]};
        const std::vector<Vector> refs{ref_at(k)};
        const IpmSolver::Result single = controller.step(states[0], refs[0]);
        const IpmSolver::Result batched = batch.solveAll(states, refs)[0];
        const Vector &expected = sim.inputs[k];
        for (const IpmSolver::Result *r : {&single, &batched}) {
            EXPECT_EQ(r->status, sim.statuses[k]) << "step " << k;
            EXPECT_EQ(r->degraded, bad(k)) << "step " << k;
            ASSERT_EQ(r->u0.size(), expected.size());
            EXPECT_EQ(0, std::memcmp(r->u0.data(), expected.data(),
                                     expected.size() * sizeof(double)))
                << "step " << k;
        }
    }
}

TEST(FaultInjection, NoPlanCommandIsZeroProjectedIntoTheBox)
{
    // The input box [0.25, 1] excludes 0, so every path that serves a
    // command without a plan must clamp zero up to 0.25.
    const char *src = R"(
System Pusher() {
  state x;
  input u;
  x.dt = u;
  u.lower_bound <= 0.25;
  u.upper_bound <= 1.0;
  Task hold( reference target ) {
    penalty track;
    track.running = x - target;
  }
}
reference target;
Pusher p();
p.hold(target);
)";
    dsl::ModelSpec model = dsl::analyzeSource(src);
    ASSERT_EQ(model.nu(), 1);
    const std::vector<Vector> states{Vector{0.0}};
    const std::vector<Vector> refs{Vector{1.0}};

    // A never-planned backup plan.
    BackupPlan backup(model);
    const Vector &u = backup.command();
    ASSERT_EQ(u.size(), 1u);
    EXPECT_EQ(u[0], 0.25);

    // A robot shed by admission on the direct path. Its first solve
    // is unmeasured and admitted; the 1 s cost it then reports leaves
    // only the shed rung under a 1 ms budget, since even backup
    // service (2 ms) overflows it.
    MpcOptions opt = integratorOptions();
    opt.batchDeadlineSeconds = 1e-3;
    opt.overloadParallelism = 1;
    opt.overloadBackupCostSeconds = 2e-3;
    BatchController batch(model, opt, 1, 1);
    batch.setCostHook([](std::size_t, double) { return 1.0; });
    batch.solveAll(states, refs);
    const IpmSolver::Result &shed = batch.solveAll(states, refs)[0];
    EXPECT_EQ(shed.status, SolveStatus::Shed);
    ASSERT_EQ(shed.u0.size(), 1u);
    EXPECT_EQ(shed.u0[0], 0.25);

    // A link rollout before any plan: period 0 is fresh and sends no
    // plan, then the uplink drops and period 1 extrapolates one period
    // under the box-projected zero command.
    MpcOptions link_opt = integratorOptions();
    link_opt.linkEnabled = true;
    ChaosSpec spec;
    spec.uplinkDropRate = 1.0;
    ChaosEngine chaos(spec);
    FleetLink link(model, link_opt, 1);
    link.beginPeriod(0, states, refs);
    link.finishPeriod();
    EXPECT_EQ(link.executedCommand(0)[0], 0.25);
    link.setChaos(&chaos);
    link.beginPeriod(1, states, refs);
    ASSERT_EQ(link.service(0), FleetLink::Service::Extrapolated);
    const Vector expected =
        Plant(model).step(states[0], Vector{0.25}, refs[0], link_opt.dt);
    ASSERT_EQ(link.servedStates()[0].size(), 1u);
    EXPECT_EQ(link.servedStates()[0][0], expected[0]);
    EXPECT_GT(expected[0], states[0][0]);
}

TEST(FaultInjection, PoisonedRobotIsIsolatedInBatch)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    const MpcOptions opt = integratorOptions();
    constexpr std::size_t kRobots = 6;
    constexpr std::size_t kPoisoned = 2;

    BatchController batch(model, opt, kRobots, 3);
    std::vector<IpmSolver> serial;
    serial.reserve(kRobots);
    for (std::size_t i = 0; i < kRobots; ++i)
        serial.emplace_back(model, opt);

    std::vector<Vector> states, refs;
    for (std::size_t i = 0; i < kRobots; ++i) {
        double s = static_cast<double>(i);
        states.push_back(Vector{0.1 * s, -0.03 * s});
        refs.push_back(Vector{1.0 + 0.2 * s});
    }

    for (int round = 0; round < 3; ++round) {
        // Round 1 poisons one robot's measured state; the other
        // rounds are healthy, exercising warm restarts on both sides.
        const bool poisoned_round = round == 1;
        const double saved = states[kPoisoned][0];
        if (poisoned_round)
            states[kPoisoned][0] = kNaN;

        const std::vector<IpmSolver::Result> *results = nullptr;
        EXPECT_NO_THROW(results = &batch.solveAll(states, refs));
        ASSERT_NE(results, nullptr);

        for (std::size_t i = 0; i < kRobots; ++i) {
            const IpmSolver::Result serial_result =
                serial[i].solve(states[i], refs[i]);
            const IpmSolver::Result &batched = (*results)[i];
            EXPECT_EQ(batched.status, serial_result.status)
                << "robot " << i << " round " << round;
            if (poisoned_round && i == kPoisoned) {
                EXPECT_EQ(batched.status, SolveStatus::BadInput);
                continue;
            }
            // Healthy robots are bitwise identical to serial solves
            // even with a faulted neighbor in the same batch.
            EXPECT_EQ(batched.iterations, serial_result.iterations);
            ASSERT_EQ(batched.u0.size(), serial_result.u0.size());
            for (std::size_t j = 0; j < batched.u0.size(); ++j)
                EXPECT_EQ(batched.u0[j], serial_result.u0[j])
                    << "robot " << i << " round " << round;
        }

        const BatchReport &report = batch.report();
        ASSERT_EQ(report.statuses.size(), kRobots);
        EXPECT_EQ(report.statuses[kPoisoned],
                  poisoned_round ? SolveStatus::BadInput
                                 : SolveStatus::Converged);
        EXPECT_EQ(report.lastBatchFailures(), poisoned_round ? 1u : 0u);

        if (poisoned_round)
            states[kPoisoned][0] = saved;
        for (std::size_t i = 0; i < kRobots; ++i) {
            states[i][0] += 0.01;
            states[i][1] += 0.005;
        }
    }
    EXPECT_EQ(batch.report().failures, 1u);
}

/**
 * Property sweep: every benchmark robot, several random disturbance
 * seeds. Random state kicks (scaled to each robot) are injected every
 * 15 control periods; the controller must keep returning finite,
 * bound-respecting controls and never destabilize the solver.
 */
class DisturbanceSweep
    : public ::testing::TestWithParam<std::tuple<std::string, unsigned>>
{
};

TEST_P(DisturbanceSweep, ControlsStayFiniteAndBounded)
{
    auto [name, seed] = GetParam();
    const robots::Benchmark &b = robots::benchmark(name);
    dsl::ModelSpec model = robots::analyzeBenchmark(b);
    MpcOptions opt = b.options;
    opt.horizon = 16;
    IpmSolver solver(model, opt);
    Plant plant(model);

    std::mt19937 rng(seed);
    std::normal_distribution<double> kick(0.0, 1.0);

    Vector x = b.initialState;
    for (int step = 0; step < 45; ++step) {
        auto result = solver.solve(x, b.reference);
        for (int i = 0; i < model.nu(); ++i) {
            ASSERT_TRUE(std::isfinite(result.u0[i]))
                << name << " step " << step;
            EXPECT_GE(result.u0[i], model.inputLower[i] - 1e-6);
            EXPECT_LE(result.u0[i], model.inputUpper[i] + 1e-6);
        }
        x = plant.step(x, result.u0, b.reference, opt.dt);
        for (int i = 0; i < model.nx(); ++i)
            ASSERT_TRUE(std::isfinite(x[i])) << name << " step " << step;

        if (step % 15 == 14) {
            // Kick each state by up to ~5% of its typical scale, then
            // clamp back inside any box so the plant stays physical.
            for (int i = 0; i < model.nx(); ++i) {
                double scale =
                    std::max(0.1, std::abs(b.initialState[i]));
                x[i] += 0.05 * scale * kick(rng);
                if (model.stateLower[i] != -dsl::kUnbounded)
                    x[i] = std::max(x[i], model.stateLower[i]);
                if (model.stateUpper[i] != dsl::kUnbounded)
                    x[i] = std::min(x[i], model.stateUpper[i]);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllRobots, DisturbanceSweep,
    ::testing::Combine(::testing::Values("MobileRobot", "Manipulator",
                                         "AutoVehicle", "MicroSat",
                                         "Quadrotor", "Hexacopter"),
                       ::testing::Values(1u, 7u)));

} // namespace
} // namespace robox::mpc
