/**
 * @file
 * Tests for the MPC stack: problem compilation (discretization,
 * derivative tapes), the Riccati-structured KKT solver (checked against
 * a dense KKT oracle), and the interior-point solver in open and closed
 * loop on small robots.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <optional>
#include <random>
#include <string>

#include <gtest/gtest.h>

#include "dsl/sema.hh"
#include "linalg/cholesky.hh"
#include "mpc/ipm.hh"
#include "mpc/problem.hh"
#include "mpc/riccati.hh"
#include "mpc/simulate.hh"
#include "robots/robots.hh"

namespace robox::mpc
{
namespace
{

// A 1D double integrator with bounded acceleration: the simplest
// nontrivial MPC plant.
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

const char *kMobileRobot = R"(
System MobileRobot( param vel_bound, param ang_bound ) {
  state pos[2], angle;
  input vel, ang_vel;
  pos[0].dt = vel * cos(angle);
  pos[1].dt = vel * sin(angle);
  angle.dt = ang_vel;
  vel.lower_bound <= -vel_bound;
  vel.upper_bound <= vel_bound;
  ang_vel.lower_bound <= -ang_bound;
  ang_vel.upper_bound <= ang_bound;
  Task moveTo( reference desired_x, reference desired_y, param w ) {
    penalty track_x, track_y, effort_v, effort_w;
    track_x.running = pos[0] - desired_x;
    track_x.weight <= w;
    track_y.running = pos[1] - desired_y;
    track_y.weight <= w;
    effort_v.running = vel;
    effort_v.weight <= 0.01;
    effort_w.running = ang_vel;
    effort_w.weight <= 0.01;
    penalty term_x, term_y;
    term_x.terminal = pos[0] - desired_x;
    term_x.weight <= 10 * w;
    term_y.terminal = pos[1] - desired_y;
    term_y.weight <= 10 * w;
  }
}
reference desired_x;
reference desired_y;
MobileRobot robot(1.0, 2.0);
robot.moveTo(desired_x, desired_y, 1.0);
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

TEST(Problem, DimensionsAndTapes)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    MpcProblem prob(model, smallOptions());
    EXPECT_EQ(prob.nx(), 2);
    EXPECT_EQ(prob.nu(), 1);
    EXPECT_EQ(prob.nref(), 1);
    EXPECT_EQ(prob.numRunningResiduals(), 2);
    EXPECT_EQ(prob.numTerminalResiduals(), 2);
    // Inequalities: acc lower/upper (running only).
    EXPECT_EQ(prob.numRunningIneq(), 2);
    EXPECT_EQ(prob.numTerminalIneq(), 0);
    // Both running rows touch only the input.
    EXPECT_FALSE(prob.runningRowUsesState()[0]);
    EXPECT_FALSE(prob.runningRowUsesState()[1]);
}

TEST(Problem, EulerDynamicsJacobians)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    MpcOptions opt = smallOptions();
    MpcProblem prob(model, opt);
    StageEval eval;
    Vector x{1.0, -0.5};
    Vector u{0.3};
    Vector ref{0.0};
    prob.evalDynamics(x, u, ref, eval);
    // Euler: pos+ = pos + dt*vel, vel+ = vel + dt*acc.
    EXPECT_NEAR(eval.value[0], 1.0 + 0.1 * -0.5, 1e-14);
    EXPECT_NEAR(eval.value[1], -0.5 + 0.1 * 0.3, 1e-14);
    EXPECT_NEAR(eval.jx(0, 0), 1.0, 1e-14);
    EXPECT_NEAR(eval.jx(0, 1), 0.1, 1e-14);
    EXPECT_NEAR(eval.jx(1, 1), 1.0, 1e-14);
    EXPECT_NEAR(eval.ju(1, 0), 0.1, 1e-14);
    EXPECT_NEAR(eval.ju(0, 0), 0.0, 1e-14);
}

/** Expect got to hold exactly want's bits, row by row. */
void
expectSameBits(const Vector &got, const Vector &want, const char *what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(std::memcmp(got.data() + i, want.data() + i,
                              sizeof(double)),
                  0)
            << what << " row " << i;
}

class ValuePrefix : public ::testing::TestWithParam<std::string>
{
};

// The value-only evaluators run only the value rows' prefix of each
// stage tape. At seeded points they must return exactly the value rows
// of the full [value | Jx | Ju] evaluation, and objective() exactly the
// weighted sum of the full evaluations' residuals.
TEST_P(ValuePrefix, ValueEvaluatorsMatchFullTapesBitwise)
{
    const robots::Benchmark &b = robots::benchmark(GetParam());
    const dsl::ModelSpec model = robots::analyzeBenchmark(b);
    MpcOptions opt = b.options;
    opt.horizon = 6;
    const MpcProblem prob(model, opt);
    const int n = opt.horizon;

    std::mt19937 rng(29);
    std::normal_distribution<double> noise(0.0, 0.2);
    auto near = [&](const Vector &v) {
        Vector out(v.size());
        for (std::size_t i = 0; i < v.size(); ++i)
            out[i] = v[i] + noise(rng);
        return out;
    };
    std::vector<Vector> xs, us, refs;
    for (int k = 0; k <= n; ++k) {
        xs.push_back(near(b.initialState));
        refs.push_back(near(b.reference));
    }
    for (int k = 0; k < n; ++k) {
        Vector u(static_cast<std::size_t>(prob.nu()));
        for (int i = 0; i < prob.nu(); ++i) {
            const double lo = model.inputLower[i];
            const double hi = model.inputUpper[i];
            const double mid = lo != -dsl::kUnbounded &&
                                       hi != dsl::kUnbounded
                                   ? 0.5 * (lo + hi)
                                   : 0.0;
            u[i] = mid + noise(rng);
        }
        us.push_back(u);
    }

    StageEval full;
    Vector value;
    double want = 0.0;
    for (int k = 0; k < n; ++k) {
        prob.evalDynamics(xs[k], us[k], refs[k], full);
        prob.dynamicsValueInto(xs[k], us[k], refs[k], value);
        expectSameBits(value, full.value, "dynamics");
        prob.evalRunningIneq(xs[k], us[k], refs[k], full);
        prob.runningIneqValueInto(xs[k], us[k], refs[k], value);
        expectSameBits(value, full.value, "running ineq");
        prob.evalRunningCost(xs[k], us[k], refs[k], full);
        for (int i = 0; i < prob.numRunningResiduals(); ++i)
            want += prob.runningWeights()[i] * full.value[i] *
                    full.value[i];
    }
    prob.evalTerminalIneq(xs[n], refs[n], full);
    prob.terminalIneqValueInto(xs[n], refs[n], value);
    expectSameBits(value, full.value, "terminal ineq");
    prob.evalTerminalCost(xs[n], refs[n], full);
    for (int i = 0; i < prob.numTerminalResiduals(); ++i)
        want += prob.terminalWeights()[i] * full.value[i] * full.value[i];
    const double got = prob.objective(xs, us, refs);
    EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
        << got << " vs " << want;
}

INSTANTIATE_TEST_SUITE_P(Table3, ValuePrefix,
                         ::testing::Values("MobileRobot", "Manipulator",
                                           "AutoVehicle", "MicroSat",
                                           "Quadrotor", "Hexacopter"));

// MobileRobot has neither terminal penalties nor state bounds, so the
// test above also runs both terminal tapes with zero value rows.
TEST(ValuePrefixCoverage, MobileRobotHasZeroRowTerminalTapes)
{
    const robots::Benchmark &b = robots::benchmark("MobileRobot");
    const MpcProblem prob(robots::analyzeBenchmark(b), b.options);
    EXPECT_EQ(prob.numTerminalResiduals(), 0);
    EXPECT_EQ(prob.numTerminalIneq(), 0);
}

// ---------------------------------------------------------------------
// Fused evaluation: a StageEval that already holds a tape's constants
// receives only that tape's computed outputs.
// ---------------------------------------------------------------------

/** A tape's outputs at the given inputs, as a solver should see them. */
using TapeOracle = std::function<std::vector<double>(
    const sym::Tape &, const std::vector<double> &)>;

/** A seeded stage point and its tape inputs: [x | u | ref] and the
 *  terminal stage's [x | 0 | ref]. */
struct StagePoint
{
    Vector x, u, ref;
    std::vector<double> env, envTerminal;
};

StagePoint
seededPoint(const MpcProblem &prob, const robots::Benchmark &b,
            std::mt19937 &rng)
{
    std::normal_distribution<double> noise(0.0, 0.2);
    const dsl::ModelSpec &model = prob.model();
    StagePoint p;
    p.x = b.initialState;
    p.ref = b.reference;
    p.u = Vector(static_cast<std::size_t>(prob.nu()));
    for (std::size_t i = 0; i < p.x.size(); ++i)
        p.x[i] += noise(rng);
    for (std::size_t i = 0; i < p.ref.size(); ++i)
        p.ref[i] += noise(rng);
    for (int i = 0; i < prob.nu(); ++i) {
        const double lo = model.inputLower[i];
        const double hi = model.inputUpper[i];
        const bool boxed = lo != -dsl::kUnbounded && hi != dsl::kUnbounded;
        p.u[i] = (boxed ? 0.5 * (lo + hi) : 0.0) + noise(rng);
    }
    for (std::size_t i = 0; i < p.x.size(); ++i)
        p.env.push_back(p.x[i]);
    p.envTerminal = p.env;
    for (std::size_t i = 0; i < p.u.size(); ++i) {
        p.env.push_back(p.u[i]);
        p.envTerminal.push_back(0.0);
    }
    for (std::size_t i = 0; i < p.ref.size(); ++i) {
        p.env.push_back(p.ref[i]);
        p.envTerminal.push_back(p.ref[i]);
    }
    return p;
}

/** Expect e to hold exactly want, a tape's outputs laid out as
 *  [value | Jx | Ju], in the shapes rows x nx and rows x nu. */
void
expectStageBits(const StageEval &e, const std::vector<double> &want,
                std::size_t rows, std::size_t nx, std::size_t nu,
                const std::string &what)
{
    ASSERT_EQ(want.size(), rows * (1 + nx + nu)) << what;
    ASSERT_EQ(e.value.size(), rows) << what;
    ASSERT_EQ(e.jx.rows(), rows) << what;
    ASSERT_EQ(e.jx.cols(), nx) << what;
    ASSERT_EQ(e.ju.rows(), rows) << what;
    ASSERT_EQ(e.ju.cols(), nu) << what;
    const double *blocks[] = {e.value.data(), e.jx.data(), e.ju.data()};
    const std::size_t sizes[] = {rows, rows * nx, rows * nu};
    std::size_t at = 0;
    for (int b = 0; b < 3; ++b)
        for (std::size_t i = 0; i < sizes[b]; ++i, ++at)
            EXPECT_EQ(std::memcmp(&blocks[b][i], &want[at], sizeof(double)),
                      0)
                << what << ": output " << at << " is " << blocks[b][i]
                << ", tape says " << want[at];
}

/** Evaluate the five stage tapes at p into one StageEval, dynamics
 *  first and last, so that every call switches tape, and check each
 *  result against the oracle. */
void
expectFusedSequence(const MpcProblem &prob, const StagePoint &p,
                    StageEval &eval, const TapeOracle &oracle,
                    const std::string &what)
{
    const auto nx = static_cast<std::size_t>(prob.nx());
    const auto nu = static_cast<std::size_t>(prob.nu());
    auto rows = [](int n) { return static_cast<std::size_t>(n); };
    prob.evalDynamics(p.x, p.u, p.ref, eval);
    expectStageBits(eval, oracle(prob.dynamicsTape(), p.env), nx, nx, nu,
                    what + " dynamics");
    prob.evalRunningCost(p.x, p.u, p.ref, eval);
    expectStageBits(eval, oracle(prob.runningCostTape(), p.env),
                    rows(prob.numRunningResiduals()), nx, nu,
                    what + " running cost");
    prob.evalTerminalCost(p.x, p.ref, eval);
    expectStageBits(eval, oracle(prob.terminalCostTape(), p.envTerminal),
                    rows(prob.numTerminalResiduals()), nx, 0,
                    what + " terminal cost");
    prob.evalRunningIneq(p.x, p.u, p.ref, eval);
    expectStageBits(eval, oracle(prob.runningIneqTape(), p.env),
                    rows(prob.numRunningIneq()), nx, nu,
                    what + " running ineq");
    prob.evalTerminalIneq(p.x, p.ref, eval);
    expectStageBits(eval, oracle(prob.terminalIneqTape(), p.envTerminal),
                    rows(prob.numTerminalIneq()), nx, 0,
                    what + " terminal ineq");
    prob.evalDynamics(p.x, p.u, p.ref, eval);
    expectStageBits(eval, oracle(prob.dynamicsTape(), p.env), nx, nx, nu,
                    what + " dynamics again");
}

std::vector<double>
doubleOracle(const sym::Tape &tape, const std::vector<double> &inputs)
{
    return tape.eval(inputs);
}

class FusedEvaluation : public ::testing::TestWithParam<std::string>
{
};

// One StageEval serves all five tapes at seeded points. Each point
// starts with the tape the previous one ended with, so both the
// complete fill and the computed-outputs-only write are checked,
// bitwise, against sym::Tape::eval on the same inputs. The fixed-point
// path is checked the same way against the quantized tape.
TEST_P(FusedEvaluation, ReusedStageEvalMatchesTapeEvaluationBitwise)
{
    const robots::Benchmark &b = robots::benchmark(GetParam());
    const dsl::ModelSpec model = robots::analyzeBenchmark(b);
    MpcOptions opt = b.options;
    opt.horizon = 4;
    std::mt19937 rng(31);
    StageEval eval;

    const MpcProblem prob(model, opt);
    for (int point = 0; point < 3; ++point)
        expectFusedSequence(prob, seededPoint(prob, b, rng), eval,
                            doubleOracle,
                            "double point " + std::to_string(point));

    opt.fixedPointTapes = true;
    const MpcProblem fixed(model, opt);
    const FixedMath fm(opt.lutEntries);
    auto fixed_oracle = [&](const sym::Tape &tape,
                            const std::vector<double> &inputs) {
        std::vector<Fixed> quantized;
        for (double v : inputs)
            quantized.push_back(Fixed::fromDouble(v));
        std::vector<double> out;
        for (const Fixed &v : tape.evalFixed(quantized, fm))
            out.push_back(v.toDouble());
        return out;
    };
    for (int point = 0; point < 2; ++point)
        expectFusedSequence(fixed, seededPoint(fixed, b, rng), eval,
                            fixed_oracle,
                            "fixed point " + std::to_string(point));
}

INSTANTIATE_TEST_SUITE_P(Table3, FusedEvaluation,
                         ::testing::Values("MobileRobot", "Manipulator",
                                           "AutoVehicle", "MicroSat",
                                           "Quadrotor", "Hexacopter"));

// Problems built in turn in one storage hold their tapes at the same
// addresses. A StageEval filled by one of them must be refilled for
// the next: the Quadrotor at twice the step has the same shapes but
// other constants (the dt entries of its dynamics Jacobians).
TEST(FusedEvaluationIdentity, SurvivesTapeAddressReuse)
{
    struct Build
    {
        const char *robot;
        double dtScale;
    };
    const Build builds[] = {
        {"Quadrotor", 1.0}, {"Quadrotor", 2.0}, {"Hexacopter", 1.0},
        {"Quadrotor", 1.0}};
    std::optional<MpcProblem> prob;
    const sym::Tape *first = nullptr;
    std::mt19937 rng(37);
    StageEval eval;
    for (const Build &build : builds) {
        const robots::Benchmark &b = robots::benchmark(build.robot);
        MpcOptions opt = b.options;
        opt.horizon = 4;
        opt.dt *= build.dtScale;
        prob.reset();
        prob.emplace(robots::analyzeBenchmark(b), opt);
        if (!first)
            first = &prob->dynamicsTape();
        ASSERT_EQ(&prob->dynamicsTape(), first);
        expectFusedSequence(*prob, seededPoint(*prob, b, rng), eval,
                            doubleOracle,
                            std::string(build.robot) + " dt x" +
                                std::to_string(build.dtScale));
    }
}

// A StageEval that holds a tape's constants receives only the computed
// outputs, so code that writes into one sets tapeSerial to 0 to have it
// filled again. Debug builds catch a write that skipped a clobbered
// constant.
TEST(FusedEvaluationDeathTest, ClobberedConstantIsCaughtOrRefilled)
{
    const robots::Benchmark &b = robots::benchmark("Quadrotor");
    MpcOptions opt = b.options;
    opt.horizon = 4;
    const MpcProblem prob(robots::analyzeBenchmark(b), opt);
    std::mt19937 rng(41);
    const StagePoint p = seededPoint(prob, b, rng);
    StageEval eval;
    prob.evalDynamics(p.x, p.u, p.ref, eval);

    // The first constant output of the x Jacobian block.
    const std::vector<int> &computed =
        prob.dynamicsTape().computedOutputs();
    const int nx = prob.nx();
    int o = nx;
    while (std::binary_search(computed.begin(), computed.end(), o))
        ++o;
    ASSERT_LT(o, nx + nx * nx);
    double &entry = eval.jx.data()[o - nx];
    const double constant = entry;
    entry = constant + 1.0;
#if !defined(NDEBUG) || defined(ROBOX_FORCE_ASSERTS)
    EXPECT_DEATH(prob.evalDynamics(p.x, p.u, p.ref, eval), "assertion");
#endif
    eval.tapeSerial = 0;
    prob.evalDynamics(p.x, p.u, p.ref, eval);
    EXPECT_EQ(entry, constant);
}

TEST(Problem, Rk4MatchesNumericalIntegration)
{
    dsl::ModelSpec model = dsl::analyzeSource(kMobileRobot);
    MpcOptions opt = smallOptions();
    opt.integrator = Integrator::Rk4;
    MpcProblem prob(model, opt);
    Plant plant(model);

    Vector x{0.2, -0.1, 0.7};
    Vector u{0.5, 0.3};
    Vector ref{0.0, 0.0};
    StageEval eval;
    prob.evalDynamics(x, u, ref, eval);
    // One symbolic RK4 step == one numeric RK4 step of the plant.
    Vector truth = plant.step(x, u, ref, opt.dt, /*substeps=*/1);
    for (int i = 0; i < 3; ++i)
        EXPECT_NEAR(eval.value[i], truth[i], 1e-12) << i;
}

TEST(Problem, Rk4JacobianMatchesFiniteDifference)
{
    dsl::ModelSpec model = dsl::analyzeSource(kMobileRobot);
    MpcOptions opt = smallOptions();
    opt.integrator = Integrator::Rk4;
    MpcProblem prob(model, opt);

    Vector x{0.2, -0.1, 0.7};
    Vector u{0.5, 0.3};
    Vector ref{0.0, 0.0};
    StageEval eval;
    prob.evalDynamics(x, u, ref, eval);

    double h = 1e-6;
    Vector fp, fm;
    for (int j = 0; j < 3; ++j) {
        Vector xp = x, xm = x;
        xp[j] += h;
        xm[j] -= h;
        prob.dynamicsValueInto(xp, u, ref, fp);
        prob.dynamicsValueInto(xm, u, ref, fm);
        for (int i = 0; i < 3; ++i)
            EXPECT_NEAR(eval.jx(i, j), (fp[i] - fm[i]) / (2 * h), 1e-6)
                << i << "," << j;
    }
    for (int j = 0; j < 2; ++j) {
        Vector up = u, um = u;
        up[j] += h;
        um[j] -= h;
        prob.dynamicsValueInto(x, up, ref, fp);
        prob.dynamicsValueInto(x, um, ref, fm);
        for (int i = 0; i < 3; ++i)
            EXPECT_NEAR(eval.ju(i, j), (fp[i] - fm[i]) / (2 * h), 1e-6);
    }
}

// ---------------------------------------------------------------------
// Riccati vs. dense KKT oracle.
// ---------------------------------------------------------------------

/** Assemble and solve the full KKT system with Gaussian elimination. */
void
denseKktSolve(const std::vector<StageQp> &stages, const Matrix &qn,
              const Vector &qnv, const Vector &dx0,
              std::vector<Vector> &dx, std::vector<Vector> &du)
{
    const std::size_t n_stages = stages.size();
    const std::size_t nx = stages[0].a.rows();
    const std::size_t nu = stages[0].b.cols();
    const std::size_t nz = (n_stages + 1) * nx + n_stages * nu;
    const std::size_t ne = (n_stages + 1) * nx;
    const std::size_t dim = nz + ne;

    auto xoff = [&](std::size_t k) { return k * (nx + nu); };
    auto uoff = [&](std::size_t k) { return k * (nx + nu) + nx; };

    Matrix kkt(dim, dim);
    Vector rhs(dim);

    // Hessian and gradient blocks.
    for (std::size_t k = 0; k < n_stages; ++k) {
        const StageQp &st = stages[k];
        for (std::size_t i = 0; i < nx; ++i) {
            rhs[xoff(k) + i] = -st.qv[i];
            for (std::size_t j = 0; j < nx; ++j)
                kkt(xoff(k) + i, xoff(k) + j) = st.q(i, j);
        }
        for (std::size_t i = 0; i < nu; ++i) {
            rhs[uoff(k) + i] = -st.rv[i];
            for (std::size_t j = 0; j < nu; ++j)
                kkt(uoff(k) + i, uoff(k) + j) = st.r(i, j);
            for (std::size_t j = 0; j < nx; ++j) {
                kkt(uoff(k) + i, xoff(k) + j) = st.s(i, j);
                kkt(xoff(k) + j, uoff(k) + i) = st.s(i, j);
            }
        }
    }
    for (std::size_t i = 0; i < nx; ++i) {
        rhs[xoff(n_stages) + i] = -qnv[i];
        for (std::size_t j = 0; j < nx; ++j)
            kkt(xoff(n_stages) + i, xoff(n_stages) + j) = qn(i, j);
    }

    // Equality rows: dx_0 = dx0; dx_{k+1} - A dx_k - B du_k = c_k.
    std::size_t erow = nz;
    for (std::size_t i = 0; i < nx; ++i) {
        kkt(erow + i, xoff(0) + i) = 1.0;
        kkt(xoff(0) + i, erow + i) = 1.0;
        rhs[erow + i] = dx0[i];
    }
    erow += nx;
    for (std::size_t k = 0; k < n_stages; ++k) {
        const StageQp &st = stages[k];
        for (std::size_t i = 0; i < nx; ++i) {
            kkt(erow + i, xoff(k + 1) + i) = 1.0;
            kkt(xoff(k + 1) + i, erow + i) = 1.0;
            for (std::size_t j = 0; j < nx; ++j) {
                kkt(erow + i, xoff(k) + j) = -st.a(i, j);
                kkt(xoff(k) + j, erow + i) = -st.a(i, j);
            }
            for (std::size_t j = 0; j < nu; ++j) {
                kkt(erow + i, uoff(k) + j) = -st.b(i, j);
                kkt(uoff(k) + j, erow + i) = -st.b(i, j);
            }
            rhs[erow + i] = st.c[i];
        }
        erow += nx;
    }

    Vector sol = rhs;
    ASSERT_EQ(gaussianSolveStatusInPlace(kkt, sol), FactorStatus::Ok);
    dx.assign(n_stages + 1, Vector(nx));
    du.assign(n_stages, Vector(nu));
    for (std::size_t k = 0; k <= n_stages; ++k)
        for (std::size_t i = 0; i < nx; ++i)
            dx[k][i] = sol[xoff(k) + i];
    for (std::size_t k = 0; k < n_stages; ++k)
        for (std::size_t i = 0; i < nu; ++i)
            du[k][i] = sol[uoff(k) + i];
}

/**
 * Solve a seeded random stagewise QP with solveRiccati and with the
 * dense KKT oracle, and compare the steps. About zero_fraction of A's
 * and B's entries are exact zeros (drawn from a second generator, so
 * zero_fraction = 0 keeps the dense draws).
 */
void
expectMatchesDenseKkt(int nx, int nu, int n_stages, double zero_fraction)
{
    std::mt19937 rng(nx * 100 + nu * 10 + n_stages);
    std::mt19937 mask_rng(nx * 100 + nu * 10 + n_stages + 1);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    std::bernoulli_distribution zero(zero_fraction);

    auto rand_mat = [&](std::size_t r, std::size_t c, double scale = 1.0) {
        Matrix m(r, c);
        for (std::size_t i = 0; i < r; ++i)
            for (std::size_t j = 0; j < c; ++j)
                m(i, j) = dist(rng) * scale;
        return m;
    };
    auto sparsify = [&](Matrix m) {
        if (zero_fraction > 0.0)
            for (std::size_t i = 0; i < m.rows(); ++i)
                for (std::size_t j = 0; j < m.cols(); ++j)
                    if (zero(mask_rng))
                        m(i, j) = 0.0;
        return m;
    };
    auto rand_vec = [&](std::size_t n) {
        Vector v(n);
        for (std::size_t i = 0; i < n; ++i)
            v[i] = dist(rng);
        return v;
    };
    auto rand_spd = [&](std::size_t n, double shift) { // B B^T + shift I
        Matrix b = rand_mat(n, n);
        Matrix m(n, n);
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
                double acc = 0.0;
                for (std::size_t k = 0; k < n; ++k)
                    acc += b(i, k) * b(j, k);
                m(i, j) = acc;
            }
            m(i, i) += shift;
        }
        return m;
    };

    std::vector<StageQp> stages(n_stages);
    for (auto &st : stages) {
        st.a = sparsify(rand_mat(nx, nx));
        st.b = sparsify(rand_mat(nx, nu));
        st.c = rand_vec(nx);
        st.q = rand_spd(nx, 0.5);
        st.r = rand_spd(nu, 1.0);
        st.s = rand_mat(nu, nx, 0.1);
        st.qv = rand_vec(nx);
        st.rv = rand_vec(nu);
    }
    Matrix qn = rand_spd(nx, 0.5);
    Vector qnv = rand_vec(nx);
    Vector dx0 = rand_vec(nx);

    RiccatiSolution sol = solveRiccati(stages, qn, qnv, dx0);
    std::vector<Vector> dx_ref, du_ref;
    denseKktSolve(stages, qn, qnv, dx0, dx_ref, du_ref);

    for (int k = 0; k <= n_stages; ++k)
        for (int i = 0; i < nx; ++i)
            EXPECT_NEAR(sol.dx[k][i], dx_ref[k][i], 1e-7)
                << "dx " << k << "," << i;
    for (int k = 0; k < n_stages; ++k)
        for (int i = 0; i < nu; ++i)
            EXPECT_NEAR(sol.du[k][i], du_ref[k][i], 1e-7)
                << "du " << k << "," << i;
    EXPECT_GT(sol.flops, 0u);
}

class RiccatiOracle : public ::testing::TestWithParam<std::tuple<int, int,
                                                                 int>>
{
};

TEST_P(RiccatiOracle, MatchesDenseKktSolve)
{
    auto [nx, nu, n_stages] = GetParam();
    expectMatchesDenseKkt(nx, nu, n_stages, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RiccatiOracle,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{2, 1, 3},
                      std::tuple{3, 2, 5}, std::tuple{4, 2, 8},
                      std::tuple{6, 3, 4}, std::tuple{2, 2, 12}));

/** The same oracle with about 70% of A's and B's entries exact zeros,
 *  where the Riccati products skip most of the dense terms. */
class SparseRiccatiOracle
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(SparseRiccatiOracle, MatchesDenseKktSolve)
{
    auto [nx, nu, n_stages] = GetParam();
    expectMatchesDenseKkt(nx, nu, n_stages, 0.7);
}

INSTANTIATE_TEST_SUITE_P(
    SparseShapes, SparseRiccatiOracle,
    ::testing::Values(std::tuple{3, 2, 5}, std::tuple{6, 3, 4},
                      std::tuple{8, 4, 6}, std::tuple{12, 4, 8}));

/**
 * The Riccati recursion with dense products, as solveRiccati ran it
 * before its products went over the column lists of A and B: the
 * reference its results must equal bit for bit. The kernels it calls
 * did not change.
 */
FactorStatus
denseOrderRiccati(const std::vector<StageQp> &stages, const Matrix &qn,
                  const Vector &qnv, const Vector &dx0, double reg0,
                  RiccatiSolution &sol)
{
    const std::size_t n_stages = stages.size();
    const std::size_t nx = stages[0].a.rows();
    const std::size_t nu = stages[0].b.cols();
    auto flops = [](std::size_t m, std::size_t n, std::size_t p) {
        return static_cast<std::uint64_t>(2) * m * n * p;
    };
    // out = p a over the k with p(i, k) != 0, ascending.
    auto mul = [](const Matrix &p, const Matrix &a) {
        Matrix out(p.rows(), a.cols());
        for (std::size_t i = 0; i < p.rows(); ++i)
            for (std::size_t k = 0; k < p.cols(); ++k) {
                const double s = p(i, k);
                if (s == 0.0)
                    continue;
                for (std::size_t j = 0; j < a.cols(); ++j)
                    out(i, j) += s * a(k, j);
            }
        return out;
    };
    // out += sign a^T x over the k with a(k, i) != 0, ascending.
    auto tmul = [](const Matrix &a, const Matrix &x, double sign,
                   Matrix &out) {
        for (std::size_t k = 0; k < a.rows(); ++k)
            for (std::size_t i = 0; i < a.cols(); ++i) {
                const double s = sign * a(k, i);
                if (s == 0.0)
                    continue;
                for (std::size_t j = 0; j < x.cols(); ++j)
                    out(i, j) += s * x(k, j);
            }
    };

    sol.dx.assign(n_stages + 1, Vector(nx));
    sol.du.assign(n_stages, Vector(nu));
    sol.flops = 0;
    sol.regularization = 0.0;
    std::vector<Matrix> gain_k(n_stages);
    std::vector<Vector> gain_d(n_stages);
    Matrix p = qn;
    Vector pv = qnv;
    double total_reg = 0.0;
    for (std::size_t kk = n_stages; kk-- > 0;) {
        const StageQp &st = stages[kk];
        const Matrix pa = mul(p, st.a);
        const Matrix pb = mul(p, st.b);
        Vector pc;
        multiplyInto(p, st.c, pc);
        pc += pv;
        sol.flops += flops(nx, nx, nx) + flops(nx, nx, nu) + flops(nx, nx, 1);
        Matrix fxx = st.q;
        tmul(st.a, pa, 1.0, fxx);
        Matrix fux = st.s;
        tmul(st.b, pa, 1.0, fux);
        Matrix fuu = st.r;
        tmul(st.b, pb, 1.0, fuu);
        Vector fx = st.qv;
        transposeMulAddInto(st.a, pc, fx);
        Vector fu = st.rv;
        transposeMulAddInto(st.b, pc, fu);
        sol.flops += flops(nx, nx, nx) + flops(nu, nx, nx) +
                     flops(nu, nx, nu) + flops(nx, nx, 1) + flops(nu, nx, 1);

        double reg = reg0;
        Matrix l;
        const FactorStatus status = choleskyRegularizedInto(fuu, reg, l);
        if (status != FactorStatus::Ok)
            return status;
        total_reg += reg;
        sol.flops += static_cast<std::uint64_t>(nu) * nu * nu / 3;

        // K = F_uu^{-1} F_ux column by column, d = F_uu^{-1} f_u.
        gain_k[kk] = fux;
        for (std::size_t j = 0; j < nx; ++j) {
            Vector col(nu);
            for (std::size_t i = 0; i < nu; ++i)
                col[i] = fux(i, j);
            choleskySolveInPlace(l, col);
            for (std::size_t i = 0; i < nu; ++i)
                gain_k[kk](i, j) = col[i];
        }
        gain_d[kk] = fu;
        choleskySolveInPlace(l, gain_d[kk]);
        sol.flops += flops(nu, nu, nx) + flops(nu, nu, 1);

        p = fxx;
        tmul(fux, gain_k[kk], -1.0, p);
        pv = fx;
        transposeMulSubInto(fux, gain_d[kk], pv);
        sol.flops += flops(nx, nu, nx) + flops(nx, nu, 1);
        for (std::size_t i = 0; i < nx; ++i)
            for (std::size_t j = i + 1; j < nx; ++j) {
                const double avg = 0.5 * (p(i, j) + p(j, i));
                p(i, j) = avg;
                p(j, i) = avg;
            }
    }

    sol.dx[0] = dx0;
    for (std::size_t kk = 0; kk < n_stages; ++kk) {
        const StageQp &st = stages[kk];
        multiplyInto(gain_k[kk], sol.dx[kk], sol.du[kk]);
        sol.du[kk] += gain_d[kk];
        sol.du[kk] *= -1.0;
        multiplyInto(st.a, sol.dx[kk], sol.dx[kk + 1]);
        multiplyAddInto(st.b, sol.du[kk], sol.dx[kk + 1]);
        sol.dx[kk + 1] += st.c;
        sol.flops += flops(nu, nx, 1) + flops(nx, nx, 1) + flops(nx, nu, 1);
    }
    sol.regularization = total_reg;
    return FactorStatus::Ok;
}

/** True when a and b have one size and the same bits. */
bool
sameBits(const Vector &a, const Vector &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(Riccati, ListRecursionMatchesDenseOrderBitForBit)
{
    // Quadrotor-like stages (nx = 12, nu = 4, N = 32): about 30 of A's
    // 144 entries and 20 of B's 48 are nonzero, a few of the zeros are
    // -0.0, and the cost blocks are sparse too. Seed 4 starts from an
    // asymmetric Qn.
    const std::size_t nx = 12, nu = 4, n_stages = 32;
    for (unsigned seed = 1; seed <= 4; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        std::mt19937 rng(seed);
        std::uniform_real_distribution<double> dist(-1.0, 1.0);
        std::uniform_real_distribution<double> u(0.0, 1.0);
        auto sparse = [&](std::size_t r, std::size_t c, double density) {
            Matrix m(r, c);
            for (std::size_t i = 0; i < r; ++i)
                for (std::size_t j = 0; j < c; ++j) {
                    const double draw = u(rng);
                    m(i, j) = draw < density        ? dist(rng)
                              : draw < density + 0.05 ? -0.0
                                                      : 0.0;
                }
            return m;
        };
        auto vec = [&](std::size_t n) {
            Vector v(n);
            for (std::size_t i = 0; i < n; ++i)
                v[i] = u(rng) < 0.3 ? 0.0 : dist(rng);
            return v;
        };
        // A symmetric positive definite block: a diagonal shift plus a
        // sparse symmetric part.
        auto spd = [&](std::size_t n) {
            Matrix m = sparse(n, n, 0.15);
            for (std::size_t i = 0; i < n; ++i) {
                for (std::size_t j = 0; j < i; ++j)
                    m(i, j) = m(j, i);
                m(i, i) = 2.0 + u(rng);
            }
            return m;
        };
        std::vector<StageQp> stages(n_stages);
        for (StageQp &st : stages) {
            st.a = sparse(nx, nx, 0.12);
            for (std::size_t i = 0; i < nx; ++i)
                st.a(i, i) = 1.0;
            st.b = sparse(nx, nu, 0.42);
            st.c = vec(nx);
            st.q = spd(nx);
            st.r = spd(nu);
            st.s = sparse(nu, nx, 0.2);
            st.qv = vec(nx);
            st.rv = vec(nu);
        }
        Matrix qn = spd(nx);
        if (seed == 4)
            qn(0, 1) += 0.25;
        const Vector qnv = vec(nx);
        const Vector dx0 = vec(nx);

        RiccatiSolution expect;
        const FactorStatus expect_status =
            denseOrderRiccati(stages, qn, qnv, dx0, 1e-8, expect);
        ASSERT_EQ(expect_status, FactorStatus::Ok);
        // Twice on one workspace: the second solve reuses its lists.
        RiccatiWorkspace ws;
        RiccatiSolution sol;
        for (int pass = 0; pass < 2; ++pass) {
            const FactorStatus status =
                solveRiccati(stages, qn, qnv, dx0, 1e-8, ws, sol);
            EXPECT_EQ(status, expect_status);
            EXPECT_EQ(sol.flops, expect.flops);
            EXPECT_EQ(std::memcmp(&sol.regularization,
                                  &expect.regularization, sizeof(double)),
                      0);
            for (std::size_t k = 0; k <= n_stages; ++k)
                EXPECT_TRUE(sameBits(sol.dx[k], expect.dx[k])) << "dx " << k;
            for (std::size_t k = 0; k < n_stages; ++k)
                EXPECT_TRUE(sameBits(sol.du[k], expect.du[k])) << "du " << k;
        }
    }
}

TEST(Riccati, RegularizesIndefiniteInputHessian)
{
    // R = 0 forces the Levenberg fallback.
    std::vector<StageQp> stages(1);
    stages[0].a = Matrix::identity(2);
    stages[0].b = Matrix(2, 1);
    stages[0].b(1, 0) = 1.0;
    stages[0].c = Vector(2);
    stages[0].q = Matrix::identity(2);
    stages[0].r = Matrix(1, 1); // zero
    stages[0].s = Matrix(1, 2);
    stages[0].qv = Vector(2);
    stages[0].rv = Vector{1.0};
    RiccatiSolution sol =
        solveRiccati(stages, Matrix::identity(2), Vector(2), Vector(2));
    EXPECT_TRUE(std::isfinite(sol.du[0][0]));
}

// ---------------------------------------------------------------------
// Interior-point solver.
// ---------------------------------------------------------------------

TEST(Ipm, SolvesUnconstrainedStyleProblemToTarget)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    IpmSolver solver(model, smallOptions(30));
    Vector x0{0.0, 0.0};
    Vector ref{1.0};
    auto result = solver.solve(x0, ref);
    EXPECT_TRUE(result.converged);
    // The plan's terminal state should be close to the target.
    const Vector &x_final = solver.stateTrajectory().back();
    EXPECT_NEAR(x_final[0], 1.0, 0.05);
    EXPECT_NEAR(x_final[1], 0.0, 0.1);
}

TEST(Ipm, RespectsInputBounds)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    IpmSolver solver(model, smallOptions(30));
    Vector x0{0.0, 0.0};
    Vector ref{100.0}; // Far target: bounds must bind.
    auto result = solver.solve(x0, ref);
    for (const Vector &u : solver.inputTrajectory()) {
        EXPECT_LE(u[0], 1.0 + 1e-6);
        EXPECT_GE(u[0], -1.0 - 1e-6);
    }
    // The first control should push hard toward the bound.
    EXPECT_GT(result.u0[0], 0.5);
}

TEST(Ipm, WarmStartReducesIterations)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    IpmSolver solver(model, smallOptions(30));
    Vector ref{1.0};
    auto first = solver.solve(Vector{0.0, 0.0}, ref);
    auto second = solver.solve(Vector{0.02, 0.05}, ref);
    EXPECT_TRUE(second.converged);
    EXPECT_LE(second.iterations, first.iterations);
}

TEST(Ipm, ClosedLoopDoubleIntegratorReachesTarget)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    IpmSolver solver(model, smallOptions(25));
    auto sim = simulateClosedLoop(solver, Vector{0.0, 0.0}, Vector{2.0},
                                  60);
    const Vector &x_end = sim.states.back();
    EXPECT_NEAR(x_end[0], 2.0, 0.05);
    EXPECT_NEAR(x_end[1], 0.0, 0.05);
}

TEST(Ipm, ClosedLoopMobileRobotReachesTarget)
{
    dsl::ModelSpec model = dsl::analyzeSource(kMobileRobot);
    MpcOptions opt = smallOptions(25);
    IpmSolver solver(model, opt);
    auto sim = simulateClosedLoop(solver, Vector{0.0, 0.0, 0.0},
                                  Vector{1.5, 1.0}, 80);
    const Vector &x_end = sim.states.back();
    EXPECT_NEAR(x_end[0], 1.5, 0.1);
    EXPECT_NEAR(x_end[1], 1.0, 0.1);
    // Velocity bound respected throughout.
    for (const Vector &u : sim.inputs) {
        EXPECT_LE(std::abs(u[0]), 1.0 + 1e-6);
        EXPECT_LE(std::abs(u[1]), 2.0 + 1e-6);
    }
}

TEST(Ipm, StatsArePopulated)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    IpmSolver solver(model, smallOptions(10));
    solver.solve(Vector{0.0, 0.0}, Vector{1.0});
    const SolveStats &stats = solver.lastStats();
    EXPECT_GT(stats.iterations, 0);
    EXPECT_GT(stats.riccatiFlops, 0u);
    EXPECT_GT(stats.lineSearchEvals, 0);
    EXPECT_LT(stats.eqResidual, 1e-3);
}

TEST(Ipm, HorizonOneDegenerateCaseWorks)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    IpmSolver solver(model, smallOptions(1));
    auto result = solver.solve(Vector{0.0, 0.0}, Vector{1.0});
    EXPECT_TRUE(std::isfinite(result.u0[0]));
}

// A double integrator with a mixed state/input task constraint
// acc + vel <= budget: at stage 0 the velocity is the (fixed) measured
// state, so the row reduces to a hard bound on the first input.
const char *kMixedConstraintIntegrator = R"(
System MixedIntegrator( param a_max ) {
  state pos, vel;
  input acc;
  pos.dt = vel;
  vel.dt = acc;
  acc.lower_bound <= -a_max;
  acc.upper_bound <= a_max;
  Task moveTo( reference target, param budget ) {
    penalty track, effort;
    track.running = pos - target;
    track.weight <= 1.0;
    effort.running = acc;
    effort.weight <= 0.01;
    penalty final_pos;
    final_pos.terminal = pos - target;
    final_pos.weight <= 10.0;
    constraint slew;
    slew.running = acc + vel;
    slew.upper_bound <= budget;
  }
}
reference target;
MixedIntegrator plant(5.0);
plant.moveTo(target, 1.0);
)";

// Regression: stage-0 filtering used to drop every running row that
// mentions the state, including mixed h(x, u) rows, so the first
// control was computed without its constraint. With vel = 0.9 and
// acc + vel <= 1, the first input must not exceed ~0.1 even though the
// target begs for full acceleration.
TEST(Ipm, MixedConstraintBindsAtStageZero)
{
    dsl::ModelSpec model =
        dsl::analyzeSource(kMixedConstraintIntegrator);
    MpcProblem prob(model, smallOptions(20));
    // The mixed row depends on both the state and the input...
    const int mixed_row = prob.numRunningIneq() - 1;
    EXPECT_TRUE(prob.runningRowUsesState()[mixed_row]);
    EXPECT_TRUE(prob.runningRowUsesInput()[mixed_row]);
    // ...while the acc box bounds are input-only.
    EXPECT_FALSE(prob.runningRowUsesState()[0]);
    EXPECT_TRUE(prob.runningRowUsesInput()[0]);

    IpmSolver solver(model, smallOptions(20));
    const Vector x0{0.0, 0.9};
    auto result = solver.solve(x0, Vector{10.0});
    EXPECT_TRUE(result.converged);
    EXPECT_LE(result.u0[0] + x0[1], 1.0 + 1e-6);
}

} // namespace
} // namespace robox::mpc
