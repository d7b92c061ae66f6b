/**
 * @file
 * Dense small-matrix linear algebra for the RoboX solver.
 *
 * This is the repository's substitute for BLASFEO, the BLAS-like library
 * for small-to-medium matrices that the paper's HPMPC baseline builds on.
 * MPC stage matrices are at most a few dozen rows, so a straightforward
 * row-major dense implementation with tight loops is appropriate; the
 * stagewise Riccati factorization in src/mpc keeps the overall solve
 * linear in the horizon length.
 */

#ifndef ROBOX_LINALG_MATRIX_HH
#define ROBOX_LINALG_MATRIX_HH

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "support/logging.hh"

namespace robox
{

/** A dense column vector of doubles. */
class Vector
{
  public:
    Vector() = default;
    /** Zero vector of the given size. */
    explicit Vector(std::size_t n) : data_(n, 0.0) {}
    /** Vector from a braced list. */
    Vector(std::initializer_list<double> init) : data_(init) {}

    std::size_t size() const { return data_.size(); }
    double &operator[](std::size_t i)
    {
        robox_assert_dbg(i < data_.size());
        return data_[i];
    }
    double operator[](std::size_t i) const
    {
        robox_assert_dbg(i < data_.size());
        return data_[i];
    }
    double *data() { return data_.data(); }
    const double *data() const { return data_.data(); }

    Vector &operator+=(const Vector &o);
    Vector &operator-=(const Vector &o);
    Vector &operator*=(double s);

    /** Infinity norm. */
    double normInf() const;
    /** Set every element to the given value. */
    void fill(double value);
    /**
     * Resize to n elements, all zero. Reuses the existing heap buffer
     * whenever its capacity suffices, so workspace vectors resized to
     * their steady-state shape never allocate again.
     */
    void resize(std::size_t n) { data_.assign(n, 0.0); }
    /** Copy from an equal-sized vector without reallocating. */
    void copyFrom(const Vector &o);

  private:
    std::vector<double> data_;
};

/** A dense row-major matrix of doubles. */
class Matrix
{
  public:
    Matrix() : rows_(0), cols_(0) {}
    /** Zero matrix of the given shape. */
    Matrix(std::size_t rows, std::size_t cols)
        : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

    /** Identity matrix of order n. */
    static Matrix identity(std::size_t n);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    double &operator()(std::size_t r, std::size_t c)
    {
        robox_assert_dbg(r < rows_ && c < cols_);
        return data_[r * cols_ + c];
    }
    double operator()(std::size_t r, std::size_t c) const
    {
        robox_assert_dbg(r < rows_ && c < cols_);
        return data_[r * cols_ + c];
    }
    double *data() { return data_.data(); }
    const double *data() const { return data_.data(); }

    /** Set every element to the given value. */
    void fill(double value);
    /** Resize to rows x cols, all zero; reuses capacity like
     *  Vector::resize. */
    void resize(std::size_t rows, std::size_t cols);
    /** Copy from an equal-shaped matrix without reallocating. */
    void copyFrom(const Matrix &o);

  private:
    std::size_t rows_;
    std::size_t cols_;
    std::vector<double> data_;
};

// ---------------------------------------------------------------------
// In-place kernels for allocation-free solver hot paths.
//
// Each *Into kernel writes its result into caller-owned storage,
// resizing it only when the shape differs (a no-op in steady state).
// Output operands must not alias the inputs. The *AddInto / *SubInto
// variants accumulate into the output, which must already have the
// result shape.
// ---------------------------------------------------------------------

/** out = a * b. */
void multiplyInto(const Matrix &a, const Matrix &b, Matrix &out);
/** out = a * v. */
void multiplyInto(const Matrix &a, const Vector &v, Vector &out);
/** out += a * v. */
void multiplyAddInto(const Matrix &a, const Vector &v, Vector &out);
/** out += a^T * b without forming the transpose. */
void transposeMulAddInto(const Matrix &a, const Matrix &b, Matrix &out);
/** out -= a^T * b. */
void transposeMulSubInto(const Matrix &a, const Matrix &b, Matrix &out);
/** out += a^T * v. */
void transposeMulAddInto(const Matrix &a, const Vector &v, Vector &out);
/** out -= a^T * v. */
void transposeMulSubInto(const Matrix &a, const Vector &v, Vector &out);
/** out = a + s * b. */
void addScaledInto(const Vector &a, const Vector &b, double s, Vector &out);

} // namespace robox

#endif // ROBOX_LINALG_MATRIX_HH
