/**
 * @file
 * Implementation of the backward Riccati recursion and forward rollout.
 *
 * The workspace overload is the production path: every intermediate of
 * the recursion lives in the caller's RiccatiWorkspace and the steps
 * are written into the caller's RiccatiSolution, so a warmed-up solver
 * iterates with zero heap traffic. The legacy value-returning overload
 * wraps it for tests and one-shot callers.
 */

#include "mpc/riccati.hh"

#include <cmath>

#include "linalg/cholesky.hh"
#include "support/logging.hh"

namespace robox::mpc
{

namespace
{

/** Approximate flop count of an m x n by n x p matrix product. */
std::uint64_t
matmulFlops(std::size_t m, std::size_t n, std::size_t p)
{
    return static_cast<std::uint64_t>(2) * m * n * p;
}

/** True when no entry of m is NaN or Inf. */
bool
allFinite(const Matrix &m)
{
    const double *d = m.data();
    const std::size_t n = m.rows() * m.cols();
    for (std::size_t i = 0; i < n; ++i)
        if (!std::isfinite(d[i]))
            return false;
    return true;
}

/** Ensure a stage-indexed vector-of-vectors has the right shape. */
void
sizeStageVectors(std::vector<Vector> &vs, std::size_t count,
                 std::size_t dim)
{
    if (vs.size() != count)
        vs.assign(count, Vector(dim));
    for (Vector &v : vs)
        if (v.size() != dim)
            v.resize(dim);
}

} // namespace

void
RiccatiWorkspace::resize(std::size_t n_stages, std::size_t nx,
                         std::size_t nu)
{
    auto sizeMat = [](Matrix &m, std::size_t r, std::size_t c) {
        if (m.rows() != r || m.cols() != c)
            m.resize(r, c);
    };
    auto sizeVec = [](Vector &v, std::size_t n) {
        if (v.size() != n)
            v.resize(n);
    };
    sizeMat(p, nx, nx);
    sizeVec(pv, nx);
    sizeMat(pa, nx, nx);
    sizeMat(pb, nx, nu);
    sizeVec(pc, nx);
    sizeMat(fxx, nx, nx);
    sizeMat(fux, nu, nx);
    sizeMat(fuu, nu, nu);
    sizeVec(fx, nx);
    sizeVec(fu, nu);
    sizeMat(l, nu, nu);
    aCols.resize(nx, nx);
    bCols.resize(nx, nu);
    if (gainK.size() != n_stages)
        gainK.assign(n_stages, Matrix(nu, nx));
    for (Matrix &k : gainK)
        sizeMat(k, nu, nx);
    sizeStageVectors(gainD, n_stages, nu);
}

FactorStatus
solveRiccati(const std::vector<StageQp> &stages, const Matrix &qn,
             const Vector &qnv, const Vector &dx0,
             double initial_regularization, RiccatiWorkspace &ws,
             RiccatiSolution &sol)
{
    const std::size_t n_stages = stages.size();
    robox_assert(n_stages > 0);
    const std::size_t nx = stages[0].a.rows();
    const std::size_t nu = stages[0].b.cols();

    ws.resize(n_stages, nx, nu);
    sizeStageVectors(sol.dx, n_stages + 1, nx);
    sizeStageVectors(sol.du, n_stages, nu);
    sol.flops = 0;
    sol.regularization = 0.0;

    // Backward pass: cost-to-go P_k, p_k and feedback gains K_k, d_k.
    ws.p.copyFrom(qn);
    ws.pv.copyFrom(qnv);
    double total_reg = 0.0;
    bool p_finite = allFinite(qn);

    for (std::size_t kk = n_stages; kk-- > 0;) {
        const StageQp &st = stages[kk];

        // The products with A and B run over their column lists. While
        // P is finite, each term the lists drop from P A and P B is
        // P(i,k) * 0 = +-0, a no-op on its sum; once P holds a NaN or
        // an Inf those terms would be NaN, so the lists hold every
        // entry. The transposed products skip zero entries of A and B
        // for either list contents.
        ws.aCols.assign(st.a, !p_finite);
        ws.bCols.assign(st.b, !p_finite);

        // P A and P B reused across the stage updates.
        multiplyInto(ws.p, ws.aCols, ws.pa);
        multiplyInto(ws.p, ws.bCols, ws.pb);
        multiplyInto(ws.p, st.c, ws.pc);
        ws.pc += ws.pv;
        sol.flops += matmulFlops(nx, nx, nx) + matmulFlops(nx, nx, nu) +
                     matmulFlops(nx, nx, 1);

        ws.fxx.copyFrom(st.q);
        transposeMulAddInto(ws.aCols, ws.pa, ws.fxx);
        ws.fux.copyFrom(st.s);
        transposeMulAddInto(ws.bCols, ws.pa, ws.fux);
        ws.fuu.copyFrom(st.r);
        transposeMulAddInto(ws.bCols, ws.pb, ws.fuu);
        ws.fx.copyFrom(st.qv);
        transposeMulAddInto(st.a, ws.pc, ws.fx);
        ws.fu.copyFrom(st.rv);
        transposeMulAddInto(st.b, ws.pc, ws.fu);
        sol.flops += matmulFlops(nx, nx, nx) + matmulFlops(nu, nx, nx) +
                     matmulFlops(nu, nx, nu) + matmulFlops(nx, nx, 1) +
                     matmulFlops(nu, nx, 1);

        // Factor the input Hessian, shifting the diagonal if needed.
        // A factorization failure (possible only for NaN/Inf stage
        // data once the capped bump ladder is exhausted) aborts the
        // recursion with a status; the IPM's recovery ladder owns what
        // happens next.
        double reg = initial_regularization;
        FactorStatus status = choleskyRegularizedInto(ws.fuu, reg, ws.l);
        if (status != FactorStatus::Ok)
            return status;
        total_reg += reg;
        sol.flops += static_cast<std::uint64_t>(nu) * nu * nu / 3;

        // K = F_uu^{-1} F_ux, d = F_uu^{-1} f_u.
        ws.gainK[kk].copyFrom(ws.fux);
        choleskySolveMatrixInPlace(ws.l, ws.gainK[kk]);
        ws.gainD[kk].copyFrom(ws.fu);
        choleskySolveInPlace(ws.l, ws.gainD[kk]);
        sol.flops += matmulFlops(nu, nu, nx) + matmulFlops(nu, nu, 1);

        // Cost-to-go update: P = F_xx - F_ux' K, p = f_x - F_ux' d.
        ws.p.copyFrom(ws.fxx);
        transposeMulSubInto(ws.fux, ws.gainK[kk], ws.p);
        ws.pv.copyFrom(ws.fx);
        transposeMulSubInto(ws.fux, ws.gainD[kk], ws.pv);
        sol.flops += matmulFlops(nx, nu, nx) + matmulFlops(nx, nu, 1);

        // Symmetrize to suppress drift from rounding. The diagonal and
        // the mirrored entries then cover all of P, so they tell
        // whether it is finite.
        p_finite = true;
        for (std::size_t i = 0; i < nx; ++i) {
            p_finite &= std::isfinite(ws.p(i, i));
            for (std::size_t j = i + 1; j < nx; ++j) {
                double avg = 0.5 * (ws.p(i, j) + ws.p(j, i));
                ws.p(i, j) = avg;
                ws.p(j, i) = avg;
                p_finite &= std::isfinite(avg);
            }
        }
    }

    // Forward rollout.
    sol.dx[0].copyFrom(dx0);
    for (std::size_t kk = 0; kk < n_stages; ++kk) {
        const StageQp &st = stages[kk];
        // du = -(K dx + d).
        multiplyInto(ws.gainK[kk], sol.dx[kk], sol.du[kk]);
        sol.du[kk] += ws.gainD[kk];
        sol.du[kk] *= -1.0;
        // dx_{k+1} = A dx + B du + c.
        multiplyInto(st.a, sol.dx[kk], sol.dx[kk + 1]);
        multiplyAddInto(st.b, sol.du[kk], sol.dx[kk + 1]);
        sol.dx[kk + 1] += st.c;
        sol.flops += matmulFlops(nu, nx, 1) + matmulFlops(nx, nx, 1) +
                     matmulFlops(nx, nu, 1);
    }

    sol.regularization = total_reg;
    return FactorStatus::Ok;
}

RiccatiSolution
solveRiccati(const std::vector<StageQp> &stages, const Matrix &qn,
             const Vector &qnv, const Vector &dx0,
             double initial_regularization)
{
    RiccatiWorkspace ws;
    RiccatiSolution sol;
    sol.status = solveRiccati(stages, qn, qnv, dx0,
                              initial_regularization, ws, sol);
    return sol;
}

} // namespace robox::mpc
