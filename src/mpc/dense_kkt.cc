/**
 * @file
 * Implementation of the dense KKT solve.
 */

#include "mpc/dense_kkt.hh"

#include "linalg/cholesky.hh"
#include "support/logging.hh"

namespace robox::mpc
{

void
DenseKktWorkspace::resize(std::size_t n_stages, std::size_t nx,
                          std::size_t nu)
{
    // Primal [x_0 u_0 ... x_N] plus one multiplier row per state.
    const std::size_t dim =
        2 * (n_stages + 1) * nx + n_stages * nu;
    if (kkt.rows() != dim || kkt.cols() != dim)
        kkt.resize(dim, dim);
    if (rhs.size() != dim)
        rhs.resize(dim);
}

RiccatiSolution
solveDenseKkt(const std::vector<StageQp> &stages, const Matrix &qn,
              const Vector &qnv, const Vector &dx0)
{
    DenseKktWorkspace ws;
    RiccatiSolution sol;
    sol.status = solveDenseKkt(stages, qn, qnv, dx0, ws, sol);
    return sol;
}

FactorStatus
solveDenseKkt(const std::vector<StageQp> &stages, const Matrix &qn,
              const Vector &qnv, const Vector &dx0,
              DenseKktWorkspace &ws, RiccatiSolution &sol,
              double diagonal_shift)
{
    const std::size_t n_stages = stages.size();
    robox_assert(n_stages > 0);
    const std::size_t nx = stages[0].a.rows();
    const std::size_t nu = stages[0].b.cols();
    const std::size_t nz = (n_stages + 1) * nx + n_stages * nu;
    const std::size_t ne = (n_stages + 1) * nx;
    const std::size_t dim = nz + ne;

    auto xoff = [&](std::size_t k) { return k * (nx + nu); };
    auto uoff = [&](std::size_t k) { return k * (nx + nu) + nx; };

    ws.resize(n_stages, nx, nu);
    Matrix &kkt = ws.kkt;
    Vector &rhs = ws.rhs;
    kkt.fill(0.0);
    rhs.fill(0.0);

    // Hessian blocks and gradients: [Q S'; S R] per stage plus Qn.
    // diagonal_shift regularizes the primal block only; multiplier
    // rows keep their saddle structure.
    for (std::size_t k = 0; k < n_stages; ++k) {
        const StageQp &st = stages[k];
        for (std::size_t i = 0; i < nx; ++i) {
            rhs[xoff(k) + i] = -st.qv[i];
            for (std::size_t j = 0; j < nx; ++j)
                kkt(xoff(k) + i, xoff(k) + j) = st.q(i, j);
            kkt(xoff(k) + i, xoff(k) + i) += diagonal_shift;
        }
        for (std::size_t i = 0; i < nu; ++i) {
            rhs[uoff(k) + i] = -st.rv[i];
            for (std::size_t j = 0; j < nu; ++j)
                kkt(uoff(k) + i, uoff(k) + j) = st.r(i, j);
            kkt(uoff(k) + i, uoff(k) + i) += diagonal_shift;
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
        kkt(xoff(n_stages) + i, xoff(n_stages) + i) += diagonal_shift;
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

    // Eliminate in place; rhs then holds the primal-dual solution.
    FactorStatus status = gaussianSolveStatusInPlace(kkt, rhs);
    if (status != FactorStatus::Ok)
        return status;

    if (sol.dx.size() != n_stages + 1)
        sol.dx.assign(n_stages + 1, Vector(nx));
    if (sol.du.size() != n_stages)
        sol.du.assign(n_stages, Vector(nu));
    for (std::size_t k = 0; k <= n_stages; ++k) {
        if (sol.dx[k].size() != nx)
            sol.dx[k].resize(nx);
        for (std::size_t i = 0; i < nx; ++i)
            sol.dx[k][i] = rhs[xoff(k) + i];
    }
    for (std::size_t k = 0; k < n_stages; ++k) {
        if (sol.du[k].size() != nu)
            sol.du[k].resize(nu);
        for (std::size_t i = 0; i < nu; ++i)
            sol.du[k][i] = rhs[uoff(k) + i];
    }
    sol.regularization = diagonal_shift;
    // Dense elimination with partial pivoting: ~(2/3) dim^3.
    sol.flops = static_cast<std::uint64_t>(2.0 / 3.0 * dim * dim * dim);
    return FactorStatus::Ok;
}

} // namespace robox::mpc
