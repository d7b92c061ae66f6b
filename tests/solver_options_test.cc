/**
 * @file
 * Tests for the solver's configurable machinery: the dense KKT backend
 * (must agree with the Riccati backend on both the Newton steps and
 * the end-to-end controls), the Mehrotra-style predictor-corrector,
 * the RK4 integrator option, LUT-size configuration in fixed-point
 * mode, and an unconstrained LQR consistency check.
 */

#include <cmath>
#include <random>

#include <gtest/gtest.h>

#include "dsl/sema.hh"
#include "mpc/dense_kkt.hh"
#include "mpc/ipm.hh"
#include "mpc/simulate.hh"
#include "robots/robots.hh"

namespace robox::mpc
{
namespace
{

const robots::Benchmark &
mobile()
{
    return robots::benchmark("MobileRobot");
}

/**
 * Five seeded random stagewise QPs solved by both backends. About
 * zero_fraction of A's and B's entries are exact zeros, drawn from a
 * second generator so that zero_fraction = 0 keeps the dense draws.
 */
void
expectBackendsAgree(unsigned seed, double zero_fraction)
{
    std::mt19937 rng(seed);
    std::mt19937 mask_rng(seed + 1);
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
    auto rand_spd = [&](std::size_t n) { // B B^T + n I
        Matrix b = rand_mat(n, n);
        Matrix m(n, n);
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
                double acc = 0.0;
                for (std::size_t k = 0; k < n; ++k)
                    acc += b(i, k) * b(j, k);
                m(i, j) = acc;
            }
            m(i, i) += static_cast<double>(n);
        }
        return m;
    };

    for (int trial = 0; trial < 5; ++trial) {
        int nx = 3 + trial % 3;
        int nu = 1 + trial % 2;
        int n_stages = 4 + trial;
        std::vector<StageQp> stages(n_stages);
        for (auto &st : stages) {
            st.a = sparsify(rand_mat(nx, nx));
            st.b = sparsify(rand_mat(nx, nu));
            st.c = rand_vec(nx);
            st.q = rand_spd(nx);
            st.r = rand_spd(nu);
            st.s = rand_mat(nu, nx, 0.1);
            st.qv = rand_vec(nx);
            st.rv = rand_vec(nu);
        }
        Matrix qn = rand_spd(nx);
        Vector qnv = rand_vec(nx);
        Vector dx0 = rand_vec(nx);

        RiccatiSolution riccati = solveRiccati(stages, qn, qnv, dx0);
        RiccatiSolution dense = solveDenseKkt(stages, qn, qnv, dx0);
        for (int k = 0; k <= n_stages; ++k)
            for (int i = 0; i < nx; ++i)
                EXPECT_NEAR(riccati.dx[k][i], dense.dx[k][i], 1e-7)
                    << trial << " dx " << k;
        for (int k = 0; k < n_stages; ++k)
            for (int i = 0; i < nu; ++i)
                EXPECT_NEAR(riccati.du[k][i], dense.du[k][i], 1e-7)
                    << trial << " du " << k;
        // The structured solve is dramatically cheaper.
        EXPECT_LT(riccati.flops, dense.flops / 4);
    }
}

TEST(DenseKkt, MatchesRiccatiOnRandomProblems)
{
    expectBackendsAgree(31, 0.0);
}

TEST(DenseKkt, MatchesRiccatiOnSparseRandomProblems)
{
    // About 70% of A's and B's entries are exact zeros, where the
    // Riccati products skip most of the dense terms.
    expectBackendsAgree(37, 0.7);
}

TEST(DenseKkt, BackendsProduceSameControl)
{
    dsl::ModelSpec model = robots::analyzeBenchmark(mobile());
    MpcOptions opt = mobile().options;
    opt.horizon = 12;

    IpmSolver riccati_solver(model, opt);
    auto r1 = riccati_solver.solve(mobile().initialState,
                                   mobile().reference);

    opt.kktSolver = KktSolver::Dense;
    IpmSolver dense_solver(model, opt);
    auto r2 = dense_solver.solve(mobile().initialState,
                                 mobile().reference);

    EXPECT_TRUE(r1.converged);
    EXPECT_TRUE(r2.converged);
    for (std::size_t i = 0; i < r1.u0.size(); ++i)
        EXPECT_NEAR(r1.u0[i], r2.u0[i], 1e-5) << i;
}

TEST(PredictorCorrector, ConvergesToSameControl)
{
    dsl::ModelSpec model = robots::analyzeBenchmark(mobile());
    MpcOptions opt = mobile().options;
    opt.horizon = 16;

    IpmSolver plain(model, opt);
    auto r1 = plain.solve(mobile().initialState, mobile().reference);

    opt.predictorCorrector = true;
    IpmSolver pc(model, opt);
    auto r2 = pc.solve(mobile().initialState, mobile().reference);

    EXPECT_TRUE(r2.converged);
    for (std::size_t i = 0; i < r1.u0.size(); ++i)
        EXPECT_NEAR(r1.u0[i], r2.u0[i], 1e-3) << i;
}

TEST(PredictorCorrector, ClosedLoopStillCompletesTask)
{
    dsl::ModelSpec model = robots::analyzeBenchmark(mobile());
    MpcOptions opt = mobile().options;
    opt.horizon = 20;
    opt.predictorCorrector = true;
    IpmSolver solver(model, opt);
    auto sim = simulateClosedLoop(solver, mobile().initialState,
                                  mobile().reference, 60);
    EXPECT_NEAR(sim.states.back()[0], mobile().reference[0], 0.15);
    EXPECT_NEAR(sim.states.back()[1], mobile().reference[1], 0.15);
}

TEST(Integrator, Rk4ControlsCloseToEulerAtSmallDt)
{
    dsl::ModelSpec model = robots::analyzeBenchmark(mobile());
    MpcOptions opt = mobile().options;
    opt.horizon = 16;
    opt.dt = 0.02;

    IpmSolver euler(model, opt);
    auto r1 = euler.solve(mobile().initialState, mobile().reference);

    opt.integrator = Integrator::Rk4;
    IpmSolver rk4(model, opt);
    auto r2 = rk4.solve(mobile().initialState, mobile().reference);

    EXPECT_TRUE(r2.converged);
    for (std::size_t i = 0; i < r1.u0.size(); ++i)
        EXPECT_NEAR(r1.u0[i], r2.u0[i], 0.05) << i;
}

TEST(Integrator, Rk4TracksPlantBetterThanEulerAtLargeDt)
{
    // Prediction error of one discrete step vs. a finely-substepped
    // plant integration, at a deliberately coarse dt.
    dsl::ModelSpec model = robots::analyzeBenchmark(mobile());
    Plant plant(model);
    Vector x{0.2, -0.1, 0.9};
    Vector u{0.8, 1.5};
    Vector ref{0.0, 0.0, 0.0};
    double dt = 0.4;
    Vector truth = plant.step(x, u, ref, dt, 64);

    auto one_step_error = [&](Integrator integrator) {
        MpcOptions opt = mobile().options;
        opt.horizon = 1;
        opt.dt = dt;
        opt.integrator = integrator;
        MpcProblem prob(model, opt);
        Vector predicted;
        prob.dynamicsValueInto(x, u, ref, predicted);
        double err = 0.0;
        for (std::size_t i = 0; i < truth.size(); ++i)
            err = std::max(err, std::abs(predicted[i] - truth[i]));
        return err;
    };

    EXPECT_LT(one_step_error(Integrator::Rk4),
              0.1 * one_step_error(Integrator::Euler));
}

TEST(FixedPointOptions, LutEntriesAreConfigurable)
{
    dsl::ModelSpec model = robots::analyzeBenchmark(mobile());
    MpcOptions opt = mobile().options;
    opt.horizon = 8;
    opt.tolerance = 1e-3;
    opt.fixedPointTapes = true;
    opt.lutEntries = 256;

    IpmSolver small_lut(model, opt);
    auto r = small_lut.solve(mobile().initialState, mobile().reference);
    for (std::size_t i = 0; i < r.u0.size(); ++i)
        EXPECT_TRUE(std::isfinite(r.u0[i]));
}

TEST(Lqr, UnconstrainedProblemSolvesInOneNewtonStep)
{
    // With no inequality rows and linear dynamics, the problem is an
    // LQR: the first Riccati step is exact and the solver should
    // converge immediately (the second iteration only verifies).
    const char *src = R"(
System Lin() {
  state x1, x2;
  input u;
  x1.dt = x2;
  x2.dt = u;
  Task hold() {
    penalty p1, p2, pu;
    p1.running = x1 - 1;
    p2.running = x2;
    pu.running = u;
    pu.weight <= 0.1;
  }
}
Lin sys();
sys.hold();
)";
    dsl::ModelSpec model = dsl::analyzeSource(src);
    MpcOptions opt;
    opt.horizon = 10;
    opt.dt = 0.1;
    IpmSolver solver(model, opt);
    auto result = solver.solve(Vector{0.0, 0.0}, Vector(0));
    EXPECT_TRUE(result.converged);
    EXPECT_LE(result.iterations, 3);
}

TEST(StageReferences, PreviewTracksMovingTargetBetter)
{
    // Track a reference ramp moving in +x. Feeding the solver the
    // future reference trajectory (per-stage refs) must track the ramp
    // more closely than pretending the current point is static.
    dsl::ModelSpec model = robots::analyzeBenchmark(mobile());
    MpcOptions opt = mobile().options;
    opt.horizon = 16;
    Plant plant(model);

    auto ref_at_time = [&](double t) {
        return Vector{0.5 * t, 0.0, 0.0};
    };

    auto run = [&](bool preview) {
        IpmSolver solver(model, opt);
        Vector x{0.0, 0.3, 0.0};
        double err_sum = 0.0;
        for (int step = 0; step < 50; ++step) {
            double now = step * opt.dt;
            IpmSolver::Result r;
            if (preview) {
                std::vector<Vector> refs;
                for (int k = 0; k <= opt.horizon; ++k)
                    refs.push_back(ref_at_time(now + k * opt.dt));
                r = solver.solve(x, refs);
            } else {
                r = solver.solve(x, ref_at_time(now));
            }
            x = plant.step(x, r.u0, ref_at_time(now), opt.dt);
            if (step > 15)
                err_sum += std::abs(x[0] - ref_at_time(now + opt.dt)[0]);
        }
        return err_sum;
    };

    double with_preview = run(true);
    double without_preview = run(false);
    EXPECT_LT(with_preview, 0.6 * without_preview);
}

TEST(StageReferences, ConstantRefsMatchScalarOverload)
{
    dsl::ModelSpec model = robots::analyzeBenchmark(mobile());
    MpcOptions opt = mobile().options;
    opt.horizon = 10;

    IpmSolver a(model, opt);
    auto r1 = a.solve(mobile().initialState, mobile().reference);

    IpmSolver b(model, opt);
    std::vector<Vector> refs(opt.horizon + 1, mobile().reference);
    auto r2 = b.solve(mobile().initialState, refs);

    for (std::size_t i = 0; i < r1.u0.size(); ++i)
        EXPECT_DOUBLE_EQ(r1.u0[i], r2.u0[i]);
}

TEST(StageReferences, WrongSizeIsRejected)
{
    dsl::ModelSpec model = robots::analyzeBenchmark(mobile());
    MpcOptions opt = mobile().options;
    opt.horizon = 10;
    IpmSolver solver(model, opt);
    std::vector<Vector> refs(4, mobile().reference); // Too short.
    // Shape errors are a serving-path input fault, not a programmer
    // error: the solve is refused as BadInput (warm start untouched)
    // instead of aborting the process.
    auto r = solver.solve(mobile().initialState, refs);
    EXPECT_EQ(r.status, SolveStatus::BadInput);
    EXPECT_FALSE(r.converged);

    // A mis-sized stage entry inside an otherwise well-shaped preview
    // is rejected the same way.
    std::vector<Vector> ragged(opt.horizon + 1, mobile().reference);
    ragged[3] = Vector(1);
    EXPECT_EQ(solver.solve(mobile().initialState, ragged).status,
              SolveStatus::BadInput);

    // The solver stays serviceable afterwards.
    auto ok = solver.solve(mobile().initialState, mobile().reference);
    EXPECT_TRUE(statusUsable(ok.status));
}

TEST(SolveTrace, RingKeepsNewestAndCountsDropped)
{
    SolveTrace trace;
    trace.configure(3);
    EXPECT_TRUE(trace.enabled());
    EXPECT_EQ(trace.capacity(), 3);
    EXPECT_TRUE(trace.empty());

    for (int i = 1; i <= 5; ++i) {
        IterationRecord rec;
        rec.iteration = i;
        rec.mu = 0.1 * i;
        trace.push(rec);
    }
    // 5 pushes into 3 slots: the two oldest fall off the front.
    EXPECT_EQ(trace.size(), 3);
    EXPECT_EQ(trace.totalRecorded(), 5);
    EXPECT_EQ(trace.dropped(), 2);
    EXPECT_EQ(trace.record(0).iteration, 3); // Oldest retained.
    EXPECT_EQ(trace.record(1).iteration, 4);
    EXPECT_EQ(trace.record(2).iteration, 5); // Newest.

    trace.clear();
    EXPECT_TRUE(trace.empty());
    EXPECT_EQ(trace.totalRecorded(), 0);
    EXPECT_EQ(trace.capacity(), 3); // Clearing keeps the ring sized.
}

TEST(SolveTrace, ZeroCapacityDisablesRecording)
{
    SolveTrace trace;
    EXPECT_FALSE(trace.enabled());
    IterationRecord rec;
    rec.iteration = 1;
    trace.push(rec); // Must be a no-op, not a crash.
    EXPECT_TRUE(trace.empty());
    EXPECT_EQ(trace.totalRecorded(), 1); // Still counts attempts.
    EXPECT_NE(formatSolveTrace("off", trace).find("tracing disabled"),
              std::string::npos);
}

TEST(SolveTrace, SolverRecordsEveryIteration)
{
    dsl::ModelSpec model = robots::analyzeBenchmark(mobile());
    MpcOptions opt = mobile().options;
    opt.horizon = 10;
    IpmSolver solver(model, opt);
    auto r = solver.solve(mobile().initialState, mobile().reference);
    EXPECT_EQ(r.status, SolveStatus::Converged);

    const SolveStats &stats = solver.lastStats();
    ASSERT_FALSE(stats.trace.empty());
    EXPECT_EQ(stats.trace.totalRecorded(), stats.iterations);
    EXPECT_EQ(stats.trace.dropped(), 0);
    // Records are oldest-first with 1-based iteration numbers, and a
    // clean solve never enters the recovery ladder.
    for (int i = 0; i < stats.trace.size(); ++i) {
        const IterationRecord &rec = stats.trace.record(i);
        EXPECT_EQ(rec.iteration, i + 1);
        EXPECT_EQ(rec.rung, RecoveryRung::None);
        EXPECT_EQ(rec.factor, FactorStatus::Ok);
        EXPECT_TRUE(std::isfinite(rec.eqResidual));
        EXPECT_GT(rec.mu, 0.0);
    }
    // Barrier parameter decreases over the solve.
    EXPECT_LT(stats.trace.record(stats.trace.size() - 1).mu,
              stats.trace.record(0).mu);

    // A second solve starts a fresh trace rather than appending.
    solver.solve(mobile().initialState, mobile().reference);
    EXPECT_EQ(solver.lastStats().trace.totalRecorded(),
              solver.lastStats().iterations);
}

TEST(SolveTrace, FormatRendersBannerAndRows)
{
    SolveTrace trace;
    trace.configure(2);
    for (int i = 1; i <= 3; ++i) {
        IterationRecord rec;
        rec.iteration = i;
        trace.push(rec); // The third push drops the first.
    }

    const std::string text = formatSolveTrace("ring", trace);
    EXPECT_NE(text.find("Begin Solve Trace ( ring )"),
              std::string::npos);
    EXPECT_NE(text.find("End Solve Trace"), std::string::npos);
    EXPECT_NE(text.find("iter"), std::string::npos);
    EXPECT_NE(text.find("1 earlier iteration(s) dropped (ring capacity 2)"),
              std::string::npos);

    SolveTrace empty;
    empty.configure(4);
    EXPECT_NE(formatSolveTrace("none", empty).find(
                  "no iterations recorded"),
              std::string::npos);
}

} // namespace
} // namespace robox::mpc
