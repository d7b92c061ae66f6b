/**
 * @file
 * Stagewise (Riccati) factorization of the MPC KKT system.
 *
 * The interior-point Newton step (Eq. 6 of the paper) is a sparse linear
 * system whose block-tridiagonal structure follows the horizon. Like the
 * HPMPC solver the paper uses as its CPU baseline, we factor it with a
 * backward Riccati recursion of dense stage-sized Cholesky
 * factorizations plus forward/backward substitutions, making the solve
 * linear in the horizon length and cubic only in the stage dimensions.
 */

#ifndef ROBOX_MPC_RICCATI_HH
#define ROBOX_MPC_RICCATI_HH

#include <cstdint>
#include <vector>

#include "linalg/cholesky.hh"
#include "linalg/matrix.hh"

namespace robox::mpc
{

/** One stage of the condensed Newton/LQR subproblem. */
struct StageQp
{
    Matrix a;  //!< Dynamics Jacobian dF/dx (nx x nx).
    Matrix b;  //!< Dynamics Jacobian dF/du (nx x nu).
    Vector c;  //!< Dynamics residual F(x_k, u_k) - x_{k+1} (nx).
    Matrix q;  //!< Hessian block d2/dx2 (nx x nx).
    Matrix r;  //!< Hessian block d2/du2 (nu x nu).
    Matrix s;  //!< Hessian cross block d2/du dx (nu x nx).
    Vector qv; //!< Gradient w.r.t. x (nx).
    Vector rv; //!< Gradient w.r.t. u (nu).
};

/** Solution of the stagewise QP. */
struct RiccatiSolution
{
    std::vector<Vector> dx; //!< State steps, size N+1.
    std::vector<Vector> du; //!< Input steps, size N.
    double regularization = 0.0; //!< Total Levenberg shift applied.
    /** Floating-point operations of the dense-equivalent recursion:
     *  every product is counted as dense (2 m n p for an m x n by n x
     *  p product), so skipping the zero entries of A and B does not
     *  change it, and the count stays comparable across versions. */
    std::uint64_t flops = 0;
    /** Outcome of the factorization that produced the steps. Set by
     *  the value-returning convenience wrappers (which used to abort
     *  on failure); when not Ok the steps are unspecified and must be
     *  discarded. The workspace overloads report the same verdict via
     *  their return value. */
    FactorStatus status = FactorStatus::Ok;
};

/**
 * Pre-sized scratch for the backward recursion. Owned by the caller
 * (one per solver instance) and reused across iterations so the warm
 * solve path performs no heap allocation; see the workspace-reuse
 * discipline in ARCHITECTURE.md.
 */
struct RiccatiWorkspace
{
    Matrix p;    //!< Cost-to-go Hessian P_k.
    Vector pv;   //!< Cost-to-go gradient p_k.
    Matrix pa;   //!< P A.
    Matrix pb;   //!< P B.
    Vector pc;   //!< p + P c.
    Matrix fxx;  //!< Q + A' P A.
    Matrix fux;  //!< S + B' P A.
    Matrix fuu;  //!< R + B' P B.
    Vector fx;   //!< q + A' (p + P c).
    Vector fu;   //!< r + B' (p + P c).
    Matrix l;    //!< Cholesky factor of F_uu.
    /** Column lists of the current stage's A and B: their nonzero
     *  entries, or every entry once P holds a NaN or an Inf. */
    ColumnLists aCols;
    ColumnLists bCols;
    std::vector<Matrix> gainK; //!< Feedback gains, size N.
    std::vector<Vector> gainD; //!< Feedforward terms, size N.

    /** Size every buffer for the given dimensions (idempotent). */
    void resize(std::size_t n_stages, std::size_t nx, std::size_t nu);
};

/**
 * Allocation-free overload: factors with the caller's workspace and
 * writes the steps into sol's pre-sized buffers (resizing them only on
 * first use). sol.flops and sol.regularization are reset each call.
 *
 * Never throws on numeric input: when a stage Hessian cannot be
 * factored even by the capped regularization ladder (NaN/Inf data),
 * the recursion stops and the failure status is returned; sol's steps
 * are unspecified and must be discarded by the caller.
 */
FactorStatus solveRiccati(const std::vector<StageQp> &stages,
                          const Matrix &qn, const Vector &qnv,
                          const Vector &dx0,
                          double initial_regularization,
                          RiccatiWorkspace &ws, RiccatiSolution &sol);

/**
 * Solve the equality-constrained QP
 *
 *   min  sum_k 1/2 [dx;du]' [Q S'; S R] [dx;du] + qv'dx + rv'du
 *        + 1/2 dx_N' Qn dx_N + qn'dx_N
 *   s.t. dx_{k+1} = A_k dx_k + B_k du_k + c_k,  dx_0 given
 *
 * via backward Riccati recursion with regularized Cholesky on the input
 * Hessians, then a forward rollout.
 */
RiccatiSolution solveRiccati(const std::vector<StageQp> &stages,
                             const Matrix &qn, const Vector &qnv,
                             const Vector &dx0,
                             double initial_regularization = 1e-8);

} // namespace robox::mpc

#endif // ROBOX_MPC_RICCATI_HH
