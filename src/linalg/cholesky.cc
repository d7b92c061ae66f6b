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

/**
 * b(i, :) = (b(i, :) - the sum over k in [k0, k1) of coef(k) * b(k, :))
 * / d, each entry's terms in k order, four columns at a time in
 * registers: one row step of a substitution over every column of b.
 */
template <typename Coef>
void
substituteRow(Matrix &b, std::size_t i, std::size_t k0, std::size_t k1,
              const Coef &coef, double d)
{
    const std::size_t n = b.cols();
    double *bd = b.data();
    double *bi = &bd[i * n];
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
        double c0 = bi[j], c1 = bi[j + 1], c2 = bi[j + 2],
               c3 = bi[j + 3];
        for (std::size_t k = k0; k < k1; ++k) {
            const double s = coef(k);
            const double *bk = &bd[k * n + j];
            c0 -= s * bk[0];
            c1 -= s * bk[1];
            c2 -= s * bk[2];
            c3 -= s * bk[3];
        }
        bi[j] = c0 / d;
        bi[j + 1] = c1 / d;
        bi[j + 2] = c2 / d;
        bi[j + 3] = c3 / d;
    }
    for (; j < n; ++j) {
        double c = bi[j];
        for (std::size_t k = k0; k < k1; ++k)
            c -= coef(k) * bd[k * n + j];
        bi[j] = c / d;
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
    const std::size_t n = l.rows();
    for (std::size_t i = 0; i < n; ++i) {
        double acc = b[i];
        for (std::size_t k = 0; k < i; ++k)
            acc -= l(i, k) * b[k];
        b[i] = acc / l(i, i);
    }
}

void
backwardSubstituteInPlace(const Matrix &l, Vector &y)
{
    robox_assert_dbg(l.cols() == l.rows() && y.size() == l.rows());
    const std::size_t n = l.rows();
    for (std::size_t ii = n; ii-- > 0;) {
        double acc = y[ii];
        for (std::size_t k = ii + 1; k < n; ++k)
            acc -= l(k, ii) * y[k];
        y[ii] = acc / l(ii, ii);
    }
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
    // Row by row over all of b's columns at once. Each column gets the
    // vector solve's operations in its order: the columns are
    // independent, so the forward pass may finish every column before
    // the backward pass starts.
    const std::size_t n = l.rows();
    for (std::size_t i = 0; i < n; ++i)
        substituteRow(
            b, i, 0, i, [&l, i](std::size_t k) { return l(i, k); },
            l(i, i));
    for (std::size_t ii = n; ii-- > 0;)
        substituteRow(
            b, ii, ii + 1, n, [&l, ii](std::size_t k) { return l(k, ii); },
            l(ii, ii));
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
