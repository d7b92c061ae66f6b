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

/**
 * The column lists of a matrix: for each column, the rows of the
 * entries a product visits, ascending, with their values. assign()
 * lists either the nonzero entries or every entry. The buffers are
 * sized once by resize() for the largest list, so refilling them
 * allocates nothing.
 */
class ColumnLists
{
  public:
    /** Size for rows x cols matrices (idempotent). */
    void resize(std::size_t rows, std::size_t cols);
    /** List the nonzero entries of each column of m, or every entry
     *  when every_entry is set; m must have the resize() shape. */
    void assign(const Matrix &m, bool every_entry);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    /** Column j's entries are the positions [begin(j), end(j)). */
    std::size_t begin(std::size_t j) const { return start_[j]; }
    std::size_t end(std::size_t j) const { return start_[j + 1]; }
    /** Row index of the entry at a position. */
    std::size_t row(std::size_t t) const { return row_[t]; }
    /** Value of the entry at a position. */
    double value(std::size_t t) const { return value_[t]; }

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<std::size_t> start_; //!< cols + 1 offsets.
    std::vector<std::size_t> row_;
    std::vector<double> value_;
};

// ---------------------------------------------------------------------
// In-place kernels for allocation-free solver hot paths.
//
// Each *Into kernel writes its result into caller-owned storage,
// resizing it only when the shape differs (a no-op in steady state).
// Output operands must not alias the inputs. The *AddInto / *SubInto
// variants accumulate into the output, which must already have the
// result shape. The matrix-matrix kernels add each output entry's
// terms in the order of the inner index and keep four output entries
// in registers while they do.
// ---------------------------------------------------------------------

/**
 * out = p * a over a's column lists, skipping p's zero entries. Equal
 * bit for bit to the dense product that skips p's zeros whenever a's
 * lists hold every entry, and whenever they hold every nonzero and p
 * is finite: each dropped term is p(i, k) times 0, which is +-0,
 * added to a sum that starts at +0 and so never holds -0.
 */
void multiplyInto(const Matrix &p, const ColumnLists &a, Matrix &out);
/** out = a * v. */
void multiplyInto(const Matrix &a, const Vector &v, Vector &out);
/** out += a * v. */
void multiplyAddInto(const Matrix &a, const Vector &v, Vector &out);
/** out += a^T * x over a's column lists, skipping a's zero entries:
 *  the dense product's terms in its order, for any list contents. */
void transposeMulAddInto(const ColumnLists &a, const Matrix &x,
                         Matrix &out);
/** out -= a^T * b, skipping a's zero entries. */
void transposeMulSubInto(const Matrix &a, const Matrix &b, Matrix &out);
/** out += a^T * v. */
void transposeMulAddInto(const Matrix &a, const Vector &v, Vector &out);
/** out -= a^T * v. */
void transposeMulSubInto(const Matrix &a, const Vector &v, Vector &out);
/** out = a + s * b. */
void addScaledInto(const Vector &a, const Vector &b, double s, Vector &out);

} // namespace robox

#endif // ROBOX_LINALG_MATRIX_HH
