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
multiplyInto(const Matrix &a, const Matrix &b, Matrix &out)
{
    robox_assert_dbg(a.cols() == b.rows());
    robox_assert_dbg(&out != &a && &out != &b);
    if (out.rows() != a.rows() || out.cols() != b.cols())
        out.resize(a.rows(), b.cols());
    else
        out.fill(0.0);
    const std::size_t an = a.cols(), bn = b.cols();
    for (std::size_t i = 0; i < a.rows(); ++i) {
        const double *arow = &a.data()[i * an];
        double *crow = &out.data()[i * bn];
        for (std::size_t k = 0; k < an; ++k) {
            double s = arow[k];
            if (s == 0.0)
                continue;
            const double *brow = &b.data()[k * bn];
            for (std::size_t j = 0; j < bn; ++j)
                crow[j] += s * brow[j];
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

/** Shared core of the transposed matrix-matrix kernels:
 *  out (+|-)= a^T * b, with sign +1 or -1. */
void
transposeMulAccum(const Matrix &a, const Matrix &b, double sign,
                  Matrix &out)
{
    robox_assert_dbg(a.rows() == b.rows());
    robox_assert_dbg(out.rows() == a.cols() && out.cols() == b.cols());
    robox_assert_dbg(&out != &a && &out != &b);
    const std::size_t an = a.cols(), bn = b.cols();
    for (std::size_t k = 0; k < a.rows(); ++k) {
        const double *arow = &a.data()[k * an];
        const double *brow = &b.data()[k * bn];
        for (std::size_t i = 0; i < an; ++i) {
            double s = sign * arow[i];
            if (s == 0.0)
                continue;
            double *crow = &out.data()[i * bn];
            for (std::size_t j = 0; j < bn; ++j)
                crow[j] += s * brow[j];
        }
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
transposeMulAddInto(const Matrix &a, const Matrix &b, Matrix &out)
{
    transposeMulAccum(a, b, 1.0, out);
}

void
transposeMulSubInto(const Matrix &a, const Matrix &b, Matrix &out)
{
    transposeMulAccum(a, b, -1.0, out);
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
