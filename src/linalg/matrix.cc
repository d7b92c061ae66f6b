/**
 * @file
 * Implementation of the dense matrix/vector types.
 */

#include "linalg/matrix.hh"

#include <cmath>
#include <sstream>

#include "support/logging.hh"

namespace robox
{

Vector
Vector::operator+(const Vector &o) const
{
    robox_assert_dbg(size() == o.size());
    Vector out(size());
    for (std::size_t i = 0; i < size(); ++i)
        out.data_[i] = data_[i] + o.data_[i];
    return out;
}

Vector
Vector::operator-(const Vector &o) const
{
    robox_assert_dbg(size() == o.size());
    Vector out(size());
    for (std::size_t i = 0; i < size(); ++i)
        out.data_[i] = data_[i] - o.data_[i];
    return out;
}

Vector
Vector::operator*(double s) const
{
    Vector out(size());
    for (std::size_t i = 0; i < size(); ++i)
        out.data_[i] = data_[i] * s;
    return out;
}

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

Vector
Vector::operator-() const
{
    Vector out(size());
    for (std::size_t i = 0; i < size(); ++i)
        out.data_[i] = -data_[i];
    return out;
}

double
Vector::dot(const Vector &o) const
{
    robox_assert_dbg(size() == o.size());
    double acc = 0.0;
    for (std::size_t i = 0; i < size(); ++i)
        acc += data_[i] * o.data_[i];
    return acc;
}

double
Vector::norm() const
{
    return std::sqrt(dot(*this));
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

Vector
Vector::segment(std::size_t offset, std::size_t n) const
{
    robox_assert_dbg(offset + n <= size());
    Vector out(n);
    for (std::size_t i = 0; i < n; ++i)
        out.data_[i] = data_[offset + i];
    return out;
}

void
Vector::setSegment(std::size_t offset, const Vector &src)
{
    robox_assert_dbg(offset + src.size() <= size());
    for (std::size_t i = 0; i < src.size(); ++i)
        data_[offset + i] = src.data_[i];
}

std::string
Vector::str() const
{
    std::ostringstream os;
    os << "[";
    for (std::size_t i = 0; i < size(); ++i)
        os << (i ? ", " : "") << data_[i];
    os << "]";
    return os.str();
}

Vector
operator*(double s, const Vector &v)
{
    return v * s;
}

Matrix
Matrix::identity(std::size_t n)
{
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i)
        m(i, i) = 1.0;
    return m;
}

Matrix
Matrix::diagonal(const Vector &d)
{
    Matrix m(d.size(), d.size());
    for (std::size_t i = 0; i < d.size(); ++i)
        m(i, i) = d[i];
    return m;
}

Matrix
Matrix::operator+(const Matrix &o) const
{
    robox_assert_dbg(rows_ == o.rows_ && cols_ == o.cols_);
    Matrix out(rows_, cols_);
    for (std::size_t i = 0; i < data_.size(); ++i)
        out.data_[i] = data_[i] + o.data_[i];
    return out;
}

Matrix
Matrix::operator-(const Matrix &o) const
{
    robox_assert_dbg(rows_ == o.rows_ && cols_ == o.cols_);
    Matrix out(rows_, cols_);
    for (std::size_t i = 0; i < data_.size(); ++i)
        out.data_[i] = data_[i] - o.data_[i];
    return out;
}

Matrix
Matrix::operator*(const Matrix &o) const
{
    robox_assert_dbg(cols_ == o.rows_);
    Matrix out(rows_, o.cols_);
    for (std::size_t i = 0; i < rows_; ++i) {
        for (std::size_t k = 0; k < cols_; ++k) {
            double a = data_[i * cols_ + k];
            if (a == 0.0)
                continue;
            const double *brow = &o.data_[k * o.cols_];
            double *crow = &out.data_[i * o.cols_];
            for (std::size_t j = 0; j < o.cols_; ++j)
                crow[j] += a * brow[j];
        }
    }
    return out;
}

Matrix
Matrix::operator*(double s) const
{
    Matrix out(rows_, cols_);
    for (std::size_t i = 0; i < data_.size(); ++i)
        out.data_[i] = data_[i] * s;
    return out;
}

Matrix &
Matrix::operator+=(const Matrix &o)
{
    robox_assert_dbg(rows_ == o.rows_ && cols_ == o.cols_);
    for (std::size_t i = 0; i < data_.size(); ++i)
        data_[i] += o.data_[i];
    return *this;
}

Vector
Matrix::operator*(const Vector &v) const
{
    robox_assert_dbg(cols_ == v.size());
    Vector out(rows_);
    for (std::size_t i = 0; i < rows_; ++i) {
        double acc = 0.0;
        const double *row = &data_[i * cols_];
        for (std::size_t j = 0; j < cols_; ++j)
            acc += row[j] * v[j];
        out[i] = acc;
    }
    return out;
}

Matrix
Matrix::transposed() const
{
    Matrix out(cols_, rows_);
    for (std::size_t i = 0; i < rows_; ++i)
        for (std::size_t j = 0; j < cols_; ++j)
            out(j, i) = data_[i * cols_ + j];
    return out;
}

Vector
Matrix::transposeMul(const Vector &v) const
{
    robox_assert_dbg(rows_ == v.size());
    Vector out(cols_);
    for (std::size_t i = 0; i < rows_; ++i) {
        double s = v[i];
        if (s == 0.0)
            continue;
        const double *row = &data_[i * cols_];
        for (std::size_t j = 0; j < cols_; ++j)
            out[j] += s * row[j];
    }
    return out;
}

Matrix
Matrix::transposeMul(const Matrix &o) const
{
    robox_assert_dbg(rows_ == o.rows_);
    Matrix out(cols_, o.cols_);
    for (std::size_t k = 0; k < rows_; ++k) {
        const double *arow = &data_[k * cols_];
        const double *brow = &o.data_[k * o.cols_];
        for (std::size_t i = 0; i < cols_; ++i) {
            double a = arow[i];
            if (a == 0.0)
                continue;
            double *crow = &out.data_[i * o.cols_];
            for (std::size_t j = 0; j < o.cols_; ++j)
                crow[j] += a * brow[j];
        }
    }
    return out;
}

Matrix
Matrix::mulTranspose(const Matrix &o) const
{
    robox_assert_dbg(cols_ == o.cols_);
    Matrix out(rows_, o.rows_);
    for (std::size_t i = 0; i < rows_; ++i) {
        const double *arow = &data_[i * cols_];
        for (std::size_t j = 0; j < o.rows_; ++j) {
            const double *brow = &o.data_[j * o.cols_];
            double acc = 0.0;
            for (std::size_t k = 0; k < cols_; ++k)
                acc += arow[k] * brow[k];
            out(i, j) = acc;
        }
    }
    return out;
}

void
Matrix::addDiagonal(double s)
{
    robox_assert_dbg(rows_ == cols_);
    for (std::size_t i = 0; i < rows_; ++i)
        data_[i * cols_ + i] += s;
}

double
Matrix::normMax() const
{
    double m = 0.0;
    for (double v : data_)
        m = std::max(m, std::abs(v));
    return m;
}

Matrix
Matrix::block(std::size_t r0, std::size_t c0,
              std::size_t nr, std::size_t nc) const
{
    robox_assert_dbg(r0 + nr <= rows_ && c0 + nc <= cols_);
    Matrix out(nr, nc);
    for (std::size_t i = 0; i < nr; ++i)
        for (std::size_t j = 0; j < nc; ++j)
            out(i, j) = data_[(r0 + i) * cols_ + (c0 + j)];
    return out;
}

void
Matrix::setBlock(std::size_t r0, std::size_t c0, const Matrix &src)
{
    robox_assert_dbg(r0 + src.rows() <= rows_ && c0 + src.cols() <= cols_);
    for (std::size_t i = 0; i < src.rows(); ++i)
        for (std::size_t j = 0; j < src.cols(); ++j)
            data_[(r0 + i) * cols_ + (c0 + j)] = src(i, j);
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

std::string
Matrix::str() const
{
    std::ostringstream os;
    for (std::size_t i = 0; i < rows_; ++i) {
        os << (i ? "\n[" : "[");
        for (std::size_t j = 0; j < cols_; ++j)
            os << (j ? ", " : "") << data_[i * cols_ + j];
        os << "]";
    }
    return os.str();
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
transposeMulInto(const Matrix &a, const Matrix &b, Matrix &out)
{
    if (out.rows() != a.cols() || out.cols() != b.cols())
        out.resize(a.cols(), b.cols());
    else
        out.fill(0.0);
    transposeMulAccum(a, b, 1.0, out);
}

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
transposeMulInto(const Matrix &a, const Vector &v, Vector &out)
{
    if (out.size() != a.cols())
        out.resize(a.cols());
    else
        out.fill(0.0);
    transposeMulAccum(a, v, 1.0, out);
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
