/**
 * @file
 * Dense KKT factorization — the unstructured alternative to the
 * stagewise Riccati recursion.
 *
 * Assembles the full Newton/KKT system of Eq. 6 (primal variables for
 * every stage plus one multiplier block per equality row) and solves it
 * with Gaussian elimination. This is the ablation partner of
 * mpc/riccati.hh (DESIGN.md decision #1): it produces the same step but
 * costs O((N(nx+nu))^3) instead of O(N(nx+nu)^3), which is why the
 * paper's solver (like HPMPC) exploits the block-tridiagonal sparsity.
 * Selectable at runtime via MpcOptions::kktSolver; also used as an
 * independent oracle by the solver tests.
 */

#ifndef ROBOX_MPC_DENSE_KKT_HH
#define ROBOX_MPC_DENSE_KKT_HH

#include "mpc/riccati.hh"

namespace robox::mpc
{

/**
 * Solve the same equality-constrained QP as solveRiccati() by
 * assembling and factoring the full KKT matrix.
 */
RiccatiSolution solveDenseKkt(const std::vector<StageQp> &stages,
                              const Matrix &qn, const Vector &qnv,
                              const Vector &dx0);

/** Pre-sized assembly buffers for the dense backend. */
struct DenseKktWorkspace
{
    Matrix kkt;
    Vector rhs;

    /** Shape kkt and rhs for n_stages stages of nx states and nu
     *  inputs; a no-op when already shaped. */
    void resize(std::size_t n_stages, std::size_t nx, std::size_t nu);
};

/**
 * Workspace overload: assembles into ws and writes the steps into
 * sol's pre-sized buffers, so repeated dense solves reuse one KKT
 * allocation.
 *
 * Never throws on numeric input: a singular or NaN/Inf system is
 * reported through the returned status (sol is unspecified and must be
 * discarded). diagonal_shift adds a Tikhonov term to the primal
 * Hessian diagonal — the dense backend's analogue of the Riccati
 * recursion's Levenberg shift, used by the IPM's recovery ladder.
 */
FactorStatus solveDenseKkt(const std::vector<StageQp> &stages,
                           const Matrix &qn, const Vector &qnv,
                           const Vector &dx0, DenseKktWorkspace &ws,
                           RiccatiSolution &sol,
                           double diagonal_shift = 0.0);

} // namespace robox::mpc

#endif // ROBOX_MPC_DENSE_KKT_HH
