/**
 * @file
 * Implementation of the dense matrix/vector types.
 */

#include "linalg/matrix.hh"

#include <algorithm>
#include <cmath>

#include "support/logging.hh"

namespace robox
{

Vector &
Vector::operator+=(const Vector &o)
{
    robox_assert_dbg(size() == o.size());
    for (std::size_t i = 0; i < size(); ++i)
        data_[i] += o.data_[i];
    return *this;
}

Vector &
Vector::operator-=(const Vector &o)
{
    robox_assert_dbg(size() == o.size());
    for (std::size_t i = 0; i < size(); ++i)
        data_[i] -= o.data_[i];
    return *this;
}

Vector &
Vector::operator*=(double s)
{
    for (double &v : data_)
        v *= s;
    return *this;
}

double
Vector::normInf() const
{
    double m = 0.0;
    for (double v : data_)
        m = std::max(m, std::abs(v));
    return m;
}

void
Vector::fill(double value)
{
    for (double &v : data_)
        v = value;
}

void
Vector::copyFrom(const Vector &o)
{
    robox_assert_dbg(size() == o.size());
    for (std::size_t i = 0; i < data_.size(); ++i)
        data_[i] = o.data_[i];
}

Matrix
Matrix::identity(std::size_t n)
{
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i)
        m(i, i) = 1.0;
    return m;
}

void
Matrix::fill(double value)
{
    for (double &v : data_)
        v = value;
}

void
Matrix::resize(std::size_t rows, std::size_t cols)
{
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, 0.0);
}

void
Matrix::copyFrom(const Matrix &o)
{
    robox_assert_dbg(rows_ == o.rows_ && cols_ == o.cols_);
    for (std::size_t i = 0; i < data_.size(); ++i)
        data_[i] = o.data_[i];
}

void
ColumnLists::resize(std::size_t rows, std::size_t cols)
{
    if (rows_ == rows && cols_ == cols && start_.size() == cols + 1)
        return;
    rows_ = rows;
    cols_ = cols;
    start_.assign(cols + 1, 0);
    row_.assign(rows * cols, 0);
    value_.assign(rows * cols, 0.0);
}

void
ColumnLists::assign(const Matrix &m, bool every_entry)
{
    robox_assert_dbg(m.rows() == rows_ && m.cols() == cols_);
    // Every entry is written at the next free position and kept by
    // advancing past it, which needs no branch per entry.
    std::size_t n = 0;
    for (std::size_t j = 0; j < cols_; ++j) {
        start_[j] = n;
        for (std::size_t k = 0; k < rows_; ++k) {
            const double v = m(k, j);
            row_[n] = k;
            value_[n] = v;
            n += every_entry || v != 0.0;
        }
    }
    start_[cols_] = n;
}

void
multiplyInto(const Matrix &p, const ColumnLists &a, Matrix &out)
{
    robox_assert_dbg(p.cols() == a.rows());
    robox_assert_dbg(&out != &p);
    const std::size_t m = p.rows(), n = p.cols(), nc = a.cols();
    if (out.rows() != m || out.cols() != nc)
        out.resize(m, nc);
    // The dense product skips zero entries of p. Where a(k, j) is
    // finite, keeping the term p(i, k) * a(k, j) = +-0 changes nothing:
    // the sum starts at +0 and so never holds -0. Where a(k, j) is Inf
    // or NaN, a zero p(i, k) contributes +0 instead, which is the skip.
    auto term = [](double pik, double akj) {
        return pik != 0.0 ? pik * akj : 0.0;
    };
    const double *pd = p.data();
    for (std::size_t j = 0; j < nc; ++j) {
        const std::size_t t0 = a.begin(j), t1 = a.end(j);
        std::size_t i = 0;
        for (; i + 4 <= m; i += 4) {
            const double *p0 = &pd[i * n];
            const double *p1 = p0 + n, *p2 = p1 + n, *p3 = p2 + n;
            double c0 = 0.0, c1 = 0.0, c2 = 0.0, c3 = 0.0;
            for (std::size_t t = t0; t < t1; ++t) {
                const std::size_t k = a.row(t);
                const double v = a.value(t);
                if (std::isfinite(v)) {
                    c0 += p0[k] * v;
                    c1 += p1[k] * v;
                    c2 += p2[k] * v;
                    c3 += p3[k] * v;
                } else {
                    c0 += term(p0[k], v);
                    c1 += term(p1[k], v);
                    c2 += term(p2[k], v);
                    c3 += term(p3[k], v);
                }
            }
            out(i, j) = c0;
            out(i + 1, j) = c1;
            out(i + 2, j) = c2;
            out(i + 3, j) = c3;
        }
        for (; i < m; ++i) {
            const double *pi = &pd[i * n];
            double c = 0.0;
            for (std::size_t t = t0; t < t1; ++t) {
                const double v = a.value(t);
                const double pik = pi[a.row(t)];
                c += std::isfinite(v) ? pik * v : term(pik, v);
            }
            out(i, j) = c;
        }
    }
}

void
multiplyInto(const Matrix &a, const Vector &v, Vector &out)
{
    robox_assert_dbg(a.cols() == v.size());
    robox_assert_dbg(&out != &v);
    if (out.size() != a.rows())
        out.resize(a.rows());
    const std::size_t n = a.cols();
    for (std::size_t i = 0; i < a.rows(); ++i) {
        const double *row = &a.data()[i * n];
        double acc = 0.0;
        for (std::size_t j = 0; j < n; ++j)
            acc += row[j] * v[j];
        out[i] = acc;
    }
}

void
multiplyAddInto(const Matrix &a, const Vector &v, Vector &out)
{
    robox_assert_dbg(a.cols() == v.size() && a.rows() == out.size());
    robox_assert_dbg(&out != &v);
    const std::size_t n = a.cols();
    for (std::size_t i = 0; i < a.rows(); ++i) {
        const double *row = &a.data()[i * n];
        double acc = 0.0;
        for (std::size_t j = 0; j < n; ++j)
            acc += row[j] * v[j];
        out[i] += acc;
    }
}

namespace
{

/**
 * out[0, n) += the sum over t in [t0, t1) of s * b(k, 0..n), where s
 * = term(t, k) also names the row k, skipping terms whose s is zero,
 * in t order. Four outputs at a time stay in registers across all the
 * terms.
 */
template <typename Term>
void
addRowTerms(double *out, const Matrix &b, std::size_t t0, std::size_t t1,
            const Term &term)
{
    const std::size_t n = b.cols();
    const double *bd = b.data();
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
        double c0 = out[j], c1 = out[j + 1], c2 = out[j + 2],
               c3 = out[j + 3];
        for (std::size_t t = t0; t < t1; ++t) {
            std::size_t k = 0;
            const double s = term(t, k);
            if (s == 0.0)
                continue;
            const double *bk = &bd[k * n + j];
            c0 += s * bk[0];
            c1 += s * bk[1];
            c2 += s * bk[2];
            c3 += s * bk[3];
        }
        out[j] = c0;
        out[j + 1] = c1;
        out[j + 2] = c2;
        out[j + 3] = c3;
    }
    for (; j < n; ++j) {
        double c = out[j];
        for (std::size_t t = t0; t < t1; ++t) {
            std::size_t k = 0;
            const double s = term(t, k);
            if (s != 0.0)
                c += s * bd[k * n + j];
        }
        out[j] = c;
    }
}

/** out (+|-)= a^T * v. */
void
transposeMulAccum(const Matrix &a, const Vector &v, double sign,
                  Vector &out)
{
    robox_assert_dbg(a.rows() == v.size() && out.size() == a.cols());
    robox_assert_dbg(&out != &v);
    const std::size_t n = a.cols();
    for (std::size_t i = 0; i < a.rows(); ++i) {
        double s = sign * v[i];
        if (s == 0.0)
            continue;
        const double *row = &a.data()[i * n];
        for (std::size_t j = 0; j < n; ++j)
            out[j] += s * row[j];
    }
}

} // namespace

void
transposeMulAddInto(const ColumnLists &a, const Matrix &x, Matrix &out)
{
    robox_assert_dbg(a.rows() == x.rows());
    robox_assert_dbg(out.rows() == a.cols() && out.cols() == x.cols());
    robox_assert_dbg(&out != &x);
    for (std::size_t i = 0; i < a.cols(); ++i)
        addRowTerms(&out.data()[i * out.cols()], x, a.begin(i), a.end(i),
                    [&a](std::size_t t, std::size_t &k) {
                        k = a.row(t);
                        return a.value(t);
                    });
}

void
transposeMulSubInto(const Matrix &a, const Matrix &b, Matrix &out)
{
    robox_assert_dbg(a.rows() == b.rows());
    robox_assert_dbg(out.rows() == a.cols() && out.cols() == b.cols());
    robox_assert_dbg(&out != &a && &out != &b);
    for (std::size_t i = 0; i < a.cols(); ++i)
        addRowTerms(&out.data()[i * out.cols()], b, 0, a.rows(),
                    [&a, i](std::size_t t, std::size_t &k) {
                        k = t;
                        return -a(t, i);
                    });
}

void
transposeMulAddInto(const Matrix &a, const Vector &v, Vector &out)
{
    transposeMulAccum(a, v, 1.0, out);
}

void
transposeMulSubInto(const Matrix &a, const Vector &v, Vector &out)
{
    transposeMulAccum(a, v, -1.0, out);
}

void
addScaledInto(const Vector &a, const Vector &b, double s, Vector &out)
{
    robox_assert_dbg(a.size() == b.size());
    if (out.size() != a.size())
        out.resize(a.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        out[i] = a[i] + s * b[i];
}

} // namespace robox
