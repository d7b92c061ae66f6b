/**
 * @file
 * Implementation of Cholesky factorization and triangular solves.
 */

#include "linalg/cholesky.hh"

#include <cmath>

#include "support/logging.hh"

namespace robox
{

namespace
{

/**
 * Attempt the factorization of a + shift * I into the caller's buffer;
 * return false if a pivot is non-positive. The shift is folded into the
 * diagonal reads so no shifted copy of a is materialized.
 */
bool
tryCholesky(const Matrix &a, double shift, Matrix &l)
{
    std::size_t n = a.rows();
    if (l.rows() != n || l.cols() != n)
        l.resize(n, n);
    else
        l.fill(0.0);
    for (std::size_t j = 0; j < n; ++j) {
        double diag = a(j, j) + shift;
        for (std::size_t k = 0; k < j; ++k)
            diag -= l(j, k) * l(j, k);
        if (diag <= 0.0 || !std::isfinite(diag))
            return false;
        double ljj = std::sqrt(diag);
        l(j, j) = ljj;
        for (std::size_t i = j + 1; i < n; ++i) {
            double acc = a(i, j);
            for (std::size_t k = 0; k < j; ++k)
                acc -= l(i, k) * l(j, k);
            l(i, j) = acc / ljj;
        }
    }
    return true;
}

/** True when any entry of the (symmetric) input is NaN/Inf. */
bool
hasNonFinite(const Matrix &a)
{
    const double *p = a.data();
    const std::size_t n = a.rows() * a.cols();
    for (std::size_t i = 0; i < n; ++i)
        if (!std::isfinite(p[i]))
            return true;
    return false;
}

/** Forward substitution L y = b in place over the entries b[0],
 *  b[stride], ...: a vector (stride 1) or one column of a row-major
 *  matrix (stride = its column count). */
void
forwardStrided(const Matrix &l, double *b, std::size_t stride)
{
    const std::size_t n = l.rows();
    for (std::size_t i = 0; i < n; ++i) {
        double acc = b[i * stride];
        for (std::size_t k = 0; k < i; ++k)
            acc -= l(i, k) * b[k * stride];
        b[i * stride] = acc / l(i, i);
    }
}

/** Backward substitution L^T x = y in place, strided like
 *  forwardStrided. */
void
backwardStrided(const Matrix &l, double *y, std::size_t stride)
{
    const std::size_t n = l.rows();
    for (std::size_t ii = n; ii-- > 0;) {
        double acc = y[ii * stride];
        for (std::size_t k = ii + 1; k < n; ++k)
            acc -= l(k, ii) * y[k * stride];
        y[ii * stride] = acc / l(ii, ii);
    }
}

} // namespace

const char *
toString(FactorStatus status)
{
    switch (status) {
      case FactorStatus::Ok: return "ok";
      case FactorStatus::NotPositiveDefinite:
        return "not-positive-definite";
      case FactorStatus::Singular: return "singular";
      case FactorStatus::NonFinite: return "non-finite";
    }
    return "unknown";
}

FactorStatus
choleskyInto(const Matrix &a, Matrix &l)
{
    robox_assert_dbg(a.rows() == a.cols());
    if (tryCholesky(a, 0.0, l))
        return FactorStatus::Ok;
    return hasNonFinite(a) ? FactorStatus::NonFinite
                           : FactorStatus::NotPositiveDefinite;
}

FactorStatus
choleskyRegularizedInto(const Matrix &a, double &reg, Matrix &l)
{
    robox_assert_dbg(a.rows() == a.cols());
    if (tryCholesky(a, 0.0, l)) {
        reg = 0.0;
        return FactorStatus::Ok;
    }
    // Capped bump ladder: tenfold shift increases from the caller's
    // starting point. 40 decades from 1e-10 covers every matrix whose
    // diagonal is finite, so exhausting the ladder means the data is
    // NaN/Inf (or astronomically scaled) — report it instead of
    // aborting mid-solve.
    double shift = reg > 0.0 ? reg : 1e-10;
    for (int attempt = 0; attempt < 40; ++attempt) {
        if (tryCholesky(a, shift, l)) {
            reg = shift;
            return FactorStatus::Ok;
        }
        shift *= 10.0;
    }
    return hasNonFinite(a) ? FactorStatus::NonFinite
                           : FactorStatus::NotPositiveDefinite;
}

void
forwardSubstituteInPlace(const Matrix &l, Vector &b)
{
    robox_assert_dbg(l.cols() == l.rows() && b.size() == l.rows());
    forwardStrided(l, b.data(), 1);
}

void
backwardSubstituteInPlace(const Matrix &l, Vector &y)
{
    robox_assert_dbg(l.cols() == l.rows() && y.size() == l.rows());
    backwardStrided(l, y.data(), 1);
}

void
choleskySolveInPlace(const Matrix &l, Vector &b)
{
    forwardSubstituteInPlace(l, b);
    backwardSubstituteInPlace(l, b);
}

void
choleskySolveMatrixInPlace(const Matrix &l, Matrix &b)
{
    robox_assert_dbg(l.cols() == l.rows() && b.rows() == l.rows());
    // Column by column, directly on b's storage.
    for (std::size_t j = 0; j < b.cols(); ++j) {
        forwardStrided(l, b.data() + j, b.cols());
        backwardStrided(l, b.data() + j, b.cols());
    }
}

FactorStatus
gaussianSolveStatusInPlace(Matrix &a, Vector &b)
{
    std::size_t n = a.rows();
    robox_assert(a.cols() == n && b.size() == n);
    for (std::size_t col = 0; col < n; ++col) {
        // Partial pivoting: find the largest magnitude pivot in the column.
        std::size_t pivot = col;
        for (std::size_t r = col + 1; r < n; ++r)
            if (std::abs(a(r, col)) > std::abs(a(pivot, col)))
                pivot = r;
        double pmag = std::abs(a(pivot, col));
        if (!std::isfinite(pmag))
            return FactorStatus::NonFinite;
        if (pmag < 1e-300)
            return FactorStatus::Singular;
        if (pivot != col) {
            for (std::size_t c = 0; c < n; ++c)
                std::swap(a(col, c), a(pivot, c));
            std::swap(b[col], b[pivot]);
        }
        for (std::size_t r = col + 1; r < n; ++r) {
            double f = a(r, col) / a(col, col);
            if (f == 0.0)
                continue;
            for (std::size_t c = col; c < n; ++c)
                a(r, c) -= f * a(col, c);
            b[r] -= f * b[col];
        }
    }
    // Back-substitute directly into b: entries above ii already hold
    // solved components.
    for (std::size_t ii = n; ii-- > 0;) {
        double acc = b[ii];
        for (std::size_t c = ii + 1; c < n; ++c)
            acc -= a(ii, c) * b[c];
        b[ii] = acc / a(ii, ii);
    }
    return FactorStatus::Ok;
}

} // namespace robox
