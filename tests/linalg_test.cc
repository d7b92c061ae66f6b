/**
 * @file
 * Unit and property tests for the dense linear algebra substrate:
 * vector/matrix operations, Cholesky factorization, triangular solves,
 * and Gaussian elimination: the kernels the Riccati recursion and the
 * dense-KKT backend run.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>

#include <gtest/gtest.h>

#include "linalg/cholesky.hh"
#include "linalg/matrix.hh"
#include "support/logging.hh"

namespace robox
{
namespace
{

Matrix
randomMatrix(std::size_t rows, std::size_t cols, std::mt19937 &rng)
{
    std::uniform_real_distribution<double> dist(-2.0, 2.0);
    Matrix m(rows, cols);
    for (std::size_t i = 0; i < rows; ++i)
        for (std::size_t j = 0; j < cols; ++j)
            m(i, j) = dist(rng);
    return m;
}

Vector
randomVector(std::size_t n, std::mt19937 &rng)
{
    std::uniform_real_distribution<double> dist(-2.0, 2.0);
    Vector v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = dist(rng);
    return v;
}

/** a b^T, entry by entry. */
Matrix
mulTranspose(const Matrix &a, const Matrix &b)
{
    Matrix out(a.rows(), b.rows());
    for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t j = 0; j < b.rows(); ++j) {
            double acc = 0.0;
            for (std::size_t k = 0; k < a.cols(); ++k)
                acc += a(i, k) * b(j, k);
            out(i, j) = acc;
        }
    }
    return out;
}

/** The largest |a(i, j) - b(i, j)| of two equal-shaped matrices. */
double
maxAbsDiff(const Matrix &a, const Matrix &b)
{
    double m = 0.0;
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < a.cols(); ++j)
            m = std::max(m, std::abs(a(i, j) - b(i, j)));
    return m;
}

/** A random symmetric positive definite matrix A = B B^T + n*I. */
Matrix
randomSpd(std::size_t n, std::mt19937 &rng)
{
    Matrix b = randomMatrix(n, n, rng);
    Matrix a = mulTranspose(b, b);
    for (std::size_t i = 0; i < n; ++i)
        a(i, i) += static_cast<double>(n);
    return a;
}

TEST(Vector, ArithmeticAndNorms)
{
    const Vector a{1.0, 2.0, 3.0};
    const Vector b{4.0, -5.0, 6.0};
    Vector sum = a;
    sum += b;
    EXPECT_DOUBLE_EQ(sum[0], 5.0);
    EXPECT_DOUBLE_EQ(sum[1], -3.0);
    Vector diff = a;
    diff -= b;
    EXPECT_DOUBLE_EQ(diff[2], -3.0);
    EXPECT_DOUBLE_EQ(b.normInf(), 6.0);
    Vector scaled = a;
    scaled *= 2.0;
    EXPECT_DOUBLE_EQ(scaled[2], 6.0);
    scaled *= -0.5;
    EXPECT_DOUBLE_EQ(scaled[1], -2.0);

    // out = a + s b, sized by the kernel.
    Vector out;
    addScaledInto(a, b, -1.0, out);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_DOUBLE_EQ(out[2], -3.0);
    addScaledInto(a, b, 2.0, out);
    EXPECT_DOUBLE_EQ(out[0], 9.0);
    EXPECT_DOUBLE_EQ(out[1], -8.0);
}

TEST(Matrix, IdentityAndDiagonal)
{
    Matrix i3 = Matrix::identity(3);
    for (std::size_t i = 0; i < 3; ++i)
        for (std::size_t j = 0; j < 3; ++j)
            EXPECT_DOUBLE_EQ(i3(i, j), i == j ? 1.0 : 0.0);
}

/** The column lists of m: its nonzero entries, or every entry. */
ColumnLists
listsOf(const Matrix &m, bool every_entry = false)
{
    ColumnLists lists;
    lists.resize(m.rows(), m.cols());
    lists.assign(m, every_entry);
    return lists;
}

TEST(Matrix, MultiplyMatchesHandComputed)
{
    Matrix a(2, 3);
    a(0, 0) = 1; a(0, 1) = 2; a(0, 2) = 3;
    a(1, 0) = 4; a(1, 1) = 5; a(1, 2) = 6;
    Matrix b(3, 2);
    b(0, 0) = 7; b(0, 1) = 8;
    b(1, 0) = 9; b(1, 1) = 10;
    b(2, 0) = 11; b(2, 1) = 12;
    // out = a b overwrites whatever the output held.
    Matrix c(2, 2);
    c.fill(1.0);
    multiplyInto(a, listsOf(b), c);
    EXPECT_DOUBLE_EQ(c(0, 0), 58.0);
    EXPECT_DOUBLE_EQ(c(0, 1), 64.0);
    EXPECT_DOUBLE_EQ(c(1, 0), 139.0);
    EXPECT_DOUBLE_EQ(c(1, 1), 154.0);

    // a v = (1 - 2 + 6, 4 - 5 + 12); the Add variant accumulates.
    const Vector v{1.0, -1.0, 2.0};
    Vector av{-3.0, 7.0};
    multiplyInto(a, v, av);
    EXPECT_DOUBLE_EQ(av[0], 5.0);
    EXPECT_DOUBLE_EQ(av[1], 11.0);
    Vector acc{1.0, 2.0};
    multiplyAddInto(a, v, acc);
    EXPECT_DOUBLE_EQ(acc[0], 6.0);
    EXPECT_DOUBLE_EQ(acc[1], 13.0);
}

TEST(Matrix, TransposeVariantsAgree)
{
    std::mt19937 rng(7);
    Matrix a = randomMatrix(4, 6, rng);
    Matrix b = randomMatrix(4, 5, rng);
    Vector v = randomVector(4, rng);

    // a^T b and a^T v from the definition.
    Matrix atb(6, 5);
    Vector atv(6);
    for (std::size_t i = 0; i < 6; ++i) {
        for (std::size_t k = 0; k < 4; ++k) {
            for (std::size_t j = 0; j < 5; ++j)
                atb(i, j) += a(k, i) * b(k, j);
            atv[i] += a(k, i) * v[k];
        }
    }

    // The Add and Sub variants accumulate onto a non-zero output.
    const Matrix c0 = randomMatrix(6, 5, rng);
    Matrix add = c0;
    Matrix sub = c0;
    transposeMulAddInto(listsOf(a), b, add);
    transposeMulSubInto(a, b, sub);
    for (std::size_t i = 0; i < 6; ++i) {
        for (std::size_t j = 0; j < 5; ++j) {
            EXPECT_NEAR(add(i, j), c0(i, j) + atb(i, j), 1e-12);
            EXPECT_NEAR(sub(i, j), c0(i, j) - atb(i, j), 1e-12);
        }
    }

    const Vector w0 = randomVector(6, rng);
    Vector addv = w0;
    Vector subv = w0;
    transposeMulAddInto(a, v, addv);
    transposeMulSubInto(a, v, subv);
    for (std::size_t i = 0; i < 6; ++i) {
        EXPECT_NEAR(addv[i], w0[i] + atv[i], 1e-12);
        EXPECT_NEAR(subv[i], w0[i] - atv[i], 1e-12);
    }
}

/** The Cholesky factor of a, which must be positive definite. */
Matrix
factor(const Matrix &a)
{
    Matrix l;
    EXPECT_EQ(choleskyInto(a, l), FactorStatus::Ok);
    return l;
}

/** The solution of a x = b by Gaussian elimination. */
Vector
gaussianSolution(Matrix a, Vector b)
{
    EXPECT_EQ(gaussianSolveStatusInPlace(a, b), FactorStatus::Ok);
    return b;
}

// ---------------------------------------------------------------------
// The Riccati kernels against loops in the order of the dense kernels
// they replaced, bit for bit.
// ---------------------------------------------------------------------

/** True when a and b have one shape and the same bits. */
bool
sameBits(const Matrix &a, const Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(),
                       a.rows() * a.cols() * sizeof(double)) == 0;
}

/** A rows x cols matrix with about 70% exact zeros, a tenth of them
 *  -0.0. */
Matrix
sparseMatrix(std::size_t rows, std::size_t cols, std::mt19937 &rng)
{
    std::uniform_real_distribution<double> u(0.0, 1.0);
    std::uniform_real_distribution<double> dist(-2.0, 2.0);
    Matrix m(rows, cols);
    for (std::size_t i = 0; i < rows; ++i) {
        for (std::size_t j = 0; j < cols; ++j) {
            const double draw = u(rng);
            m(i, j) = draw < 0.07 ? -0.0 : draw < 0.7 ? 0.0 : dist(rng);
        }
    }
    return m;
}

/** out = p a: every k with p(i, k) != 0, ascending, from +0. */
Matrix
denseProduct(const Matrix &p, const Matrix &a)
{
    Matrix out(p.rows(), a.cols());
    for (std::size_t i = 0; i < p.rows(); ++i) {
        for (std::size_t k = 0; k < p.cols(); ++k) {
            const double s = p(i, k);
            if (s == 0.0)
                continue;
            for (std::size_t j = 0; j < a.cols(); ++j)
                out(i, j) += s * a(k, j);
        }
    }
    return out;
}

/** out += sign a^T x: every k with a(k, i) != 0, ascending. */
void
denseTransposeProduct(const Matrix &a, const Matrix &x, double sign,
                      Matrix &out)
{
    for (std::size_t k = 0; k < a.rows(); ++k) {
        for (std::size_t i = 0; i < a.cols(); ++i) {
            const double s = sign * a(k, i);
            if (s == 0.0)
                continue;
            for (std::size_t j = 0; j < x.cols(); ++j)
                out(i, j) += s * x(k, j);
        }
    }
}

TEST(ListKernels, MatchDenseOrderBitForBit)
{
    for (unsigned seed = 1; seed <= 13; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        std::mt19937 rng(seed);
        std::uniform_int_distribution<std::size_t> dim(1, 13);
        const std::size_t m = dim(rng), n = dim(rng), c = dim(rng);
        // P A with P finite, zeros in both factors.
        const Matrix p = sparseMatrix(m, n, rng);
        const Matrix a = sparseMatrix(n, c, rng);
        const Matrix expect = denseProduct(p, a);
        for (bool every : {false, true}) {
            Matrix out(m, c);
            out.fill(-0.0);
            multiplyInto(p, listsOf(a, every), out);
            EXPECT_TRUE(sameBits(out, expect)) << "every " << every;
        }

        // out (+|-)= a^T x onto outputs that start at -0.0 and zeros.
        const Matrix x = sparseMatrix(n, c, rng);
        Matrix start = sparseMatrix(c, c, rng);
        for (std::size_t i = 0; i < c; ++i)
            start(i, 0) = -0.0;
        const Matrix at = sparseMatrix(n, c, rng);
        Matrix add_expect = start;
        denseTransposeProduct(at, x, 1.0, add_expect);
        for (bool every : {false, true}) {
            Matrix add = start;
            transposeMulAddInto(listsOf(at, every), x, add);
            EXPECT_TRUE(sameBits(add, add_expect)) << "every " << every;
        }
        Matrix sub_expect = start;
        denseTransposeProduct(at, x, -1.0, sub_expect);
        Matrix sub = start;
        transposeMulSubInto(at, x, sub);
        EXPECT_TRUE(sameBits(sub, sub_expect));

        // The matrix solve against the vector solve, column by column.
        Matrix l = factor(randomSpd(n, rng));
        Matrix rhs = sparseMatrix(n, c, rng);
        Matrix solved = rhs;
        choleskySolveMatrixInPlace(l, solved);
        Matrix by_column = rhs;
        for (std::size_t j = 0; j < c; ++j) {
            Vector col(n);
            for (std::size_t i = 0; i < n; ++i)
                col[i] = rhs(i, j);
            forwardSubstituteInPlace(l, col);
            backwardSubstituteInPlace(l, col);
            for (std::size_t i = 0; i < n; ++i)
                by_column(i, j) = col[i];
        }
        EXPECT_TRUE(sameBits(solved, by_column));
    }
}

TEST(ListKernels, NonFiniteEntriesMatchDenseOrder)
{
    // Every NaN below is the one the hardware makes for Inf * 0, so the
    // comparison does not depend on which NaN operand a sum keeps.
    volatile double zero = 0.0;
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = inf * zero;
    std::mt19937 rng(21);
    const Matrix a = sparseMatrix(9, 7, rng);

    // P holds an Inf and a NaN: with every entry listed, the products
    // keep the dense loops' NaN and Inf terms.
    Matrix p = sparseMatrix(6, 9, rng);
    p(1, 2) = inf;
    p(4, 0) = nan;
    Matrix pa;
    multiplyInto(p, listsOf(a, true), pa);
    EXPECT_TRUE(sameBits(pa, denseProduct(p, a)));
    Matrix fxx = sparseMatrix(7, 9, rng);
    Matrix expect = fxx;
    const Matrix pt = sparseMatrix(6, 7, rng);
    denseTransposeProduct(pt, p, 1.0, expect);
    transposeMulAddInto(listsOf(pt, true), p, fxx);
    EXPECT_TRUE(sameBits(fxx, expect));

    // A finite P with zeros against an A holding an Inf and a NaN: the
    // zeros of P keep those entries out of the sums, as in the dense
    // loop.
    Matrix a_bad = a;
    a_bad(3, 1) = inf;
    a_bad(5, 6) = nan;
    const Matrix p_finite = sparseMatrix(6, 9, rng);
    for (bool every : {false, true}) {
        multiplyInto(p_finite, listsOf(a_bad, every), pa);
        EXPECT_TRUE(sameBits(pa, denseProduct(p_finite, a_bad)))
            << "every " << every;
    }
}

// The accessors are inline, but keep their debug bounds checks: the
// Debug sanitizer builds prove it, and optimized builds skip this.
TEST(LinalgDeathTest, OutOfRangeElementAccessPanics)
{
#if defined(NDEBUG) && !defined(ROBOX_FORCE_ASSERTS)
    GTEST_SKIP() << "bounds checks are compiled out under NDEBUG";
#else
    Matrix m(2, 3);
    const Matrix &cm = m;
    Vector v(3);
    const Vector &cv = v;
    EXPECT_DEATH(m(2, 0) = 1.0, "assertion");
    EXPECT_DEATH(m(0, 3) = 1.0, "assertion");
    EXPECT_DEATH((void)cm(2, 3), "assertion");
    EXPECT_DEATH(v[3] = 1.0, "assertion");
    EXPECT_DEATH((void)cv[3], "assertion");
#endif
}

TEST(Cholesky, FactorsKnownMatrix)
{
    // A = [[4, 2], [2, 3]] -> L = [[2, 0], [1, sqrt(2)]].
    Matrix a(2, 2);
    a(0, 0) = 4; a(0, 1) = 2; a(1, 0) = 2; a(1, 1) = 3;
    Matrix l = factor(a);
    EXPECT_DOUBLE_EQ(l(0, 0), 2.0);
    EXPECT_DOUBLE_EQ(l(1, 0), 1.0);
    EXPECT_NEAR(l(1, 1), std::sqrt(2.0), 1e-15);
    EXPECT_DOUBLE_EQ(l(0, 1), 0.0);
}

TEST(Cholesky, RegularizedRecoversIndefiniteMatrix)
{
    Matrix a(2, 2);
    a(0, 0) = 1; a(0, 1) = 2; a(1, 0) = 2; a(1, 1) = 1;
    double reg = 0.0;
    Matrix l;
    EXPECT_EQ(choleskyRegularizedInto(a, reg, l), FactorStatus::Ok);
    EXPECT_GT(reg, 0.0);
    Matrix shifted = a;
    for (std::size_t i = 0; i < 2; ++i)
        shifted(i, i) += reg;
    EXPECT_LT(maxAbsDiff(mulTranspose(l, l), shifted), 1e-9);
}

TEST(Cholesky, RegularizedLeavesSpdAlone)
{
    std::mt19937 rng(11);
    Matrix a = randomSpd(5, rng);
    double reg = 0.0;
    Matrix l;
    EXPECT_EQ(choleskyRegularizedInto(a, reg, l), FactorStatus::Ok);
    EXPECT_EQ(reg, 0.0);
    EXPECT_LT(maxAbsDiff(mulTranspose(l, l), a), 1e-9);
}

/** Property sweep over sizes: L L^T == A and solves invert A. */
class CholeskyProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(CholeskyProperty, FactorizationAndSolveRoundTrip)
{
    std::mt19937 rng(static_cast<unsigned>(GetParam()));
    std::size_t n = static_cast<std::size_t>(GetParam());
    Matrix a = randomSpd(n, rng);
    Matrix l = factor(a);

    // Reconstruction.
    const double a_max = maxAbsDiff(a, Matrix(n, n));
    EXPECT_LT(maxAbsDiff(mulTranspose(l, l), a), 1e-9 * a_max);

    // Solve round trip.
    Vector x_true = randomVector(n, rng);
    Vector x;
    multiplyInto(a, x_true, x);
    choleskySolveInPlace(l, x);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(x[i], x_true[i], 1e-8);

    // Matrix right-hand side: each column is solved exactly as the
    // vector solve would solve it.
    Matrix rhs = randomMatrix(n, 3, rng);
    Matrix sol = rhs;
    choleskySolveMatrixInPlace(l, sol);
    Matrix a_sol;
    multiplyInto(a, listsOf(sol), a_sol);
    EXPECT_LT(maxAbsDiff(a_sol, rhs), 1e-8);
    for (std::size_t j = 0; j < rhs.cols(); ++j) {
        Vector col(n);
        for (std::size_t i = 0; i < n; ++i)
            col[i] = rhs(i, j);
        choleskySolveInPlace(l, col);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(sol(i, j), col[i]);
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskyProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(Substitution, TriangularSolvesInvertEachOther)
{
    std::mt19937 rng(5);
    Matrix a = randomSpd(6, rng);
    Matrix l = factor(a);
    Vector b = randomVector(6, rng);
    Vector y = b;
    forwardSubstituteInPlace(l, y);
    // L y == b.
    Vector ly;
    multiplyInto(l, y, ly);
    for (std::size_t i = 0; i < 6; ++i)
        EXPECT_NEAR(ly[i], b[i], 1e-10);
    Vector x = y;
    backwardSubstituteInPlace(l, x);
    Vector ltx(6);
    transposeMulAddInto(l, x, ltx);
    for (std::size_t i = 0; i < 6; ++i)
        EXPECT_NEAR(ltx[i], y[i], 1e-10);
}

TEST(GaussianSolve, MatchesCholeskyOnSpdSystems)
{
    std::mt19937 rng(9);
    Matrix a = randomSpd(7, rng);
    Vector b = randomVector(7, rng);
    Vector x_chol = b;
    choleskySolveInPlace(factor(a), x_chol);
    Vector x_gauss = gaussianSolution(a, b);
    for (std::size_t i = 0; i < 7; ++i)
        EXPECT_NEAR(x_gauss[i], x_chol[i], 1e-8);
}

TEST(GaussianSolve, HandlesNonSymmetricAndPivots)
{
    // Requires a row swap: zero on the leading diagonal.
    Matrix a(2, 2);
    a(0, 0) = 0; a(0, 1) = 1; a(1, 0) = 1; a(1, 1) = 0;
    Vector x = gaussianSolution(a, Vector{3.0, 4.0});
    EXPECT_DOUBLE_EQ(x[0], 4.0);
    EXPECT_DOUBLE_EQ(x[1], 3.0);
}

// ---------------------------------------------------------------------
// Failure statuses: the kernels report numeric failure instead of
// throwing (the MPC failsafe path owns recovery).
// ---------------------------------------------------------------------

TEST(FactorStatus, CholeskyIntoReportsInsteadOfThrowing)
{
    Matrix a(2, 2);
    a(0, 0) = 4; a(0, 1) = 2; a(1, 0) = 2; a(1, 1) = 3;
    Matrix l(2, 2);
    EXPECT_EQ(choleskyInto(a, l), FactorStatus::Ok);
    EXPECT_DOUBLE_EQ(l(0, 0), 2.0);

    a(0, 1) = a(1, 0) = 2.5; // Indefinite.
    a(1, 1) = 1.0;
    EXPECT_EQ(choleskyInto(a, l), FactorStatus::NotPositiveDefinite);

    a(0, 0) = std::numeric_limits<double>::quiet_NaN();
    EXPECT_EQ(choleskyInto(a, l), FactorStatus::NonFinite);
}

TEST(FactorStatus, RegularizedLadderIsCappedOnNonFiniteInput)
{
    // NaN data can never be regularized into an SPD matrix; the bump
    // ladder must give up with a status instead of looping or
    // throwing.
    Matrix a(2, 2);
    a(0, 0) = std::numeric_limits<double>::quiet_NaN();
    a(1, 1) = 1.0;
    Matrix l(2, 2);
    double reg = 0.0;
    EXPECT_EQ(choleskyRegularizedInto(a, reg, l),
              FactorStatus::NonFinite);
}

TEST(FactorStatus, RegularizedIntoRecoversIndefiniteMatrix)
{
    // Eigenvalues 3 and -1: the ladder starts at the caller's shift
    // (0.5, still indefinite) and succeeds one decade later.
    Matrix a(2, 2);
    a(0, 0) = 1; a(0, 1) = 2; a(1, 0) = 2; a(1, 1) = 1;
    Matrix l(2, 2);
    double reg = 0.5;
    EXPECT_EQ(choleskyRegularizedInto(a, reg, l), FactorStatus::Ok);
    EXPECT_EQ(reg, 5.0);
}

TEST(FactorStatus, GaussianStatusReportsSingularAndNonFinite)
{
    Matrix a(2, 2);
    a(0, 0) = 1; a(0, 1) = 2; a(1, 0) = 2; a(1, 1) = 4;
    Vector b{1.0, 1.0};
    Matrix work = a;
    EXPECT_EQ(gaussianSolveStatusInPlace(work, b),
              FactorStatus::Singular);

    work = a;
    work(0, 0) = std::numeric_limits<double>::infinity();
    b = Vector{1.0, 1.0};
    EXPECT_EQ(gaussianSolveStatusInPlace(work, b),
              FactorStatus::NonFinite);

    work = Matrix(2, 2);
    work(0, 0) = 2.0;
    work(1, 1) = 4.0;
    b = Vector{2.0, 8.0};
    EXPECT_EQ(gaussianSolveStatusInPlace(work, b), FactorStatus::Ok);
    EXPECT_DOUBLE_EQ(b[0], 1.0);
    EXPECT_DOUBLE_EQ(b[1], 2.0);
}

TEST(FactorStatus, NamesAreStable)
{
    EXPECT_STREQ(toString(FactorStatus::Ok), "ok");
    EXPECT_STREQ(toString(FactorStatus::NonFinite), "non-finite");
}

} // namespace
} // namespace robox
