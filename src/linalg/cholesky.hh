/**
 * @file
 * Cholesky factorization and triangular solves.
 *
 * The paper's solver (Sec. II-B) factors the Newton/KKT systems with a
 * combination of Cholesky decomposition and forward/backward
 * substitution. These routines operate on the dense stage matrices used
 * by the Riccati recursion in src/mpc and by the dense-KKT backend.
 * Every kernel writes into the caller's buffers and reports numeric
 * failure through FactorStatus, never by throwing.
 */

#ifndef ROBOX_LINALG_CHOLESKY_HH
#define ROBOX_LINALG_CHOLESKY_HH

#include "linalg/matrix.hh"

namespace robox
{

/**
 * Outcome of a factorization or elimination kernel. The solve hot path
 * must never throw on numeric input (a control loop has to emit a
 * command every period), so the kernels report failure through this
 * status and leave recovery policy to the caller.
 */
enum class FactorStatus
{
    Ok,                  //!< Factorization/solve succeeded.
    NotPositiveDefinite, //!< A pivot was non-positive (Cholesky).
    Singular,            //!< A pivot vanished (Gaussian elimination).
    NonFinite,           //!< NaN/Inf encountered in the input data.
};

/** Human-readable name of a FactorStatus value. */
const char *toString(FactorStatus status);

/**
 * Lower-triangular Cholesky factor A = L L^T of a symmetric matrix,
 * into the caller's buffer (resized only when its shape differs).
 * Returns NonFinite when NaN/Inf reaches a pivot and
 * NotPositiveDefinite when a pivot is non-positive; l's contents are
 * unspecified on failure.
 */
FactorStatus choleskyInto(const Matrix &a, Matrix &l);

/**
 * Cholesky with adaptive diagonal regularization: when the plain
 * factorization fails, retries with increasing Levenberg shifts,
 * factoring into the caller's buffer (resized only when its shape
 * differs). The shift is applied to the diagonal during the
 * factorization itself, so no shifted copy of the input is formed.
 *
 * The bump ladder is capped (the shift grows tenfold per attempt up to
 * a fixed number of attempts); when it is exhausted — which only
 * happens for non-finite or pathologically scaled input — the kernel
 * returns a failure status instead of aborting the solve, so the
 * caller can run its own recovery (regularization bump, cold restart,
 * backup command).
 *
 * @param a The symmetric matrix to factor.
 * @param[in,out] reg On entry, the initial shift to try when the plain
 *        factorization fails (0 means start at 1e-10); on exit, the
 *        shift actually applied (0 if none was needed).
 * @param l The factor.
 */
FactorStatus choleskyRegularizedInto(const Matrix &a, double &reg,
                                     Matrix &l);

/** Forward substitution overwriting b with the solution of L y = b. */
void forwardSubstituteInPlace(const Matrix &l, Vector &b);

/** Backward substitution overwriting y with the solution of L^T x = y. */
void backwardSubstituteInPlace(const Matrix &l, Vector &y);

/** Solve A x = b given the Cholesky factor L of A, overwriting b with
 *  the solution. */
void choleskySolveInPlace(const Matrix &l, Vector &b);

/** Solve A X = B given the Cholesky factor L of A, overwriting B with
 *  the solution. Runs row by row over all of B's columns at once; each
 *  column equals choleskySolveInPlace on it, bit for bit. */
void choleskySolveMatrixInPlace(const Matrix &l, Matrix &b);

/**
 * Solve a general square system A x = b by Gaussian elimination with
 * partial pivoting, eliminating in a (destroying it) and overwriting b
 * with the solution. The dense-KKT backend's factorization, and the
 * test oracle for the structured solver. Returns Singular (or
 * NonFinite when a pivot is NaN/Inf), leaving a and b in an
 * unspecified state.
 */
FactorStatus gaussianSolveStatusInPlace(Matrix &a, Vector &b);

} // namespace robox

#endif // ROBOX_LINALG_CHOLESKY_HH
