/**
 * @file
 * google-benchmark microbenchmarks of the solver kernels that dominate
 * the RoboX workload: dense Cholesky, the stagewise Riccati recursion
 * (vs. a dense KKT solve, the DESIGN.md ablation), symbolic
 * differentiation, tape evaluation in double and fixed point, and one
 * full MPC solve.
 */

#include <random>

#include <benchmark/benchmark.h>

#include "dsl/sema.hh"
#include "linalg/cholesky.hh"
#include "mpc/ipm.hh"
#include "mpc/riccati.hh"
#include "robots/robots.hh"

using namespace robox;

namespace
{

Matrix
randomSpd(std::size_t n, unsigned seed)
{
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    Matrix b(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            b(i, j) = dist(rng);
    Matrix a(n, n); // B B^T + n I
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            double acc = 0.0;
            for (std::size_t k = 0; k < n; ++k)
                acc += b(i, k) * b(j, k);
            a(i, j) = acc;
        }
        a(i, i) += static_cast<double>(n);
    }
    return a;
}

std::vector<mpc::StageQp>
randomStages(int nx, int nu, int n_stages, unsigned seed)
{
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    auto rand_mat = [&](std::size_t r, std::size_t c, double scale = 1.0) {
        Matrix m(r, c);
        for (std::size_t i = 0; i < r; ++i)
            for (std::size_t j = 0; j < c; ++j)
                m(i, j) = dist(rng) * scale;
        return m;
    };
    auto rand_vec = [&](std::size_t n) {
        Vector v(n);
        for (std::size_t i = 0; i < n; ++i)
            v[i] = dist(rng);
        return v;
    };
    std::vector<mpc::StageQp> stages(n_stages);
    for (auto &st : stages) {
        st.a = rand_mat(nx, nx);
        st.b = rand_mat(nx, nu);
        st.c = rand_vec(nx);
        st.q = randomSpd(nx, seed + 1);
        st.r = randomSpd(nu, seed + 2);
        st.s = rand_mat(nu, nx, 0.1);
        st.qv = rand_vec(nx);
        st.rv = rand_vec(nu);
    }
    return stages;
}

void
BM_Cholesky(benchmark::State &state)
{
    std::size_t n = static_cast<std::size_t>(state.range(0));
    Matrix a = randomSpd(n, 42);
    Matrix l;
    for (auto _ : state) {
        choleskyInto(a, l);
        benchmark::DoNotOptimize(l.data());
    }
}
BENCHMARK(BM_Cholesky)->Arg(4)->Arg(8)->Arg(12)->Arg(18);

void
BM_RiccatiSolve(benchmark::State &state)
{
    // The workspace overload, as IpmSolver calls it, on dense random
    // stages: the column lists of A and B hold every entry.
    int n_stages = static_cast<int>(state.range(0));
    auto stages = randomStages(12, 4, n_stages, 7);
    Matrix qn = randomSpd(12, 9);
    Vector qnv(12);
    Vector dx0(12);
    mpc::RiccatiWorkspace ws;
    mpc::RiccatiSolution sol;
    for (auto _ : state) {
        FactorStatus status =
            mpc::solveRiccati(stages, qn, qnv, dx0, 1e-8, ws, sol);
        benchmark::DoNotOptimize(status);
        benchmark::DoNotOptimize(sol.du.data());
        benchmark::ClobberMemory();
    }
    state.SetComplexityN(n_stages);
}
BENCHMARK(BM_RiccatiSolve)->Arg(8)->Arg(32)->Arg(128)->Arg(512)
    ->Complexity(benchmark::oN);

void
BM_DenseKktVsRiccati_Dense(benchmark::State &state)
{
    // The ablation partner of BM_RiccatiSolve: a dense factorization of
    // the same KKT system is cubic in the horizon and collapses quickly.
    int n_stages = static_cast<int>(state.range(0));
    int nx = 12, nu = 4;
    std::size_t nz = static_cast<std::size_t>(n_stages + 1) * nx +
                     static_cast<std::size_t>(n_stages) * nu;
    Matrix kkt = randomSpd(nz, 21);
    Vector rhs(nz);
    for (std::size_t i = 0; i < nz; ++i)
        rhs[i] = 0.5;
    Matrix work(nz, nz);
    Vector x(nz);
    for (auto _ : state) {
        work.copyFrom(kkt);
        x.copyFrom(rhs);
        gaussianSolveStatusInPlace(work, x);
        benchmark::DoNotOptimize(x.data());
    }
}
BENCHMARK(BM_DenseKktVsRiccati_Dense)->Arg(8)->Arg(16)->Arg(32);

void
BM_SymbolicJacobian(benchmark::State &state)
{
    dsl::ModelSpec model = robots::analyzeBenchmark(
        robots::benchmark("Quadrotor"));
    for (auto _ : state) {
        for (int i = 0; i < model.nx(); ++i) {
            sym::Expr d = model.dynamics[i].diff(0);
            benchmark::DoNotOptimize(d.id());
        }
    }
}
BENCHMARK(BM_SymbolicJacobian);

void
BM_TapeEvalDouble(benchmark::State &state)
{
    dsl::ModelSpec model = robots::analyzeBenchmark(
        robots::benchmark("Hexacopter"));
    sym::Tape tape(model.dynamics, model.numVars());
    std::vector<double> env(model.numVars(), 0.1);
    for (auto _ : state) {
        auto out = tape.eval(env);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_TapeEvalDouble);

void
BM_TapeEvalFixed(benchmark::State &state)
{
    dsl::ModelSpec model = robots::analyzeBenchmark(
        robots::benchmark("Hexacopter"));
    sym::Tape tape(model.dynamics, model.numVars());
    std::vector<Fixed> env(model.numVars(), Fixed::fromDouble(0.1));
    const FixedMath &fm = FixedMath::instance();
    for (auto _ : state) {
        auto out = tape.evalFixed(env, fm);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_TapeEvalFixed);

void
BM_FullMpcSolve(benchmark::State &state)
{
    const robots::Benchmark &bench = robots::benchmark("MobileRobot");
    dsl::ModelSpec model = robots::analyzeBenchmark(bench);
    mpc::MpcOptions opt = bench.options;
    opt.horizon = static_cast<int>(state.range(0));
    mpc::IpmSolver solver(model, opt);
    for (auto _ : state) {
        solver.reset();
        auto result = solver.solve(bench.initialState, bench.reference);
        benchmark::DoNotOptimize(result.objective);
    }
}
BENCHMARK(BM_FullMpcSolve)->Arg(16)->Arg(32)->Arg(64);

} // namespace

BENCHMARK_MAIN();
