/**
 * @file
 * Unit and property tests for the symbolic engine: simplification,
 * evaluation, automatic differentiation (checked against finite
 * differences), and tape compilation in double and fixed point.
 */

#include <cmath>
#include <random>

#include <gtest/gtest.h>

#include "sym/derivatives.hh"
#include "sym/expr.hh"
#include "sym/tape.hh"

namespace robox::sym
{
namespace
{

Expr
var(int id, const std::string &name)
{
    return Expr::variable(id, name);
}

TEST(Expr, ConstantFolding)
{
    Expr e = Expr(2.0) + Expr(3.0) * Expr(4.0);
    ASSERT_TRUE(e.isConst());
    EXPECT_DOUBLE_EQ(e.value(), 14.0);
    EXPECT_TRUE(sin(Expr(0.0)).isConst(0.0));
    EXPECT_TRUE(sqrt(Expr(4.0)).isConst(2.0));
}

TEST(Expr, IdentitySimplifications)
{
    Expr x = var(0, "x");
    EXPECT_EQ((x + Expr(0.0)).id(), x.id());
    EXPECT_EQ((Expr(0.0) + x).id(), x.id());
    EXPECT_EQ((x - Expr(0.0)).id(), x.id());
    EXPECT_EQ((x * Expr(1.0)).id(), x.id());
    EXPECT_EQ((Expr(1.0) * x).id(), x.id());
    EXPECT_TRUE((x * Expr(0.0)).isConst(0.0));
    EXPECT_TRUE((Expr(0.0) / x).isConst(0.0));
    EXPECT_EQ((x / Expr(1.0)).id(), x.id());
    EXPECT_TRUE((x - x).isConst(0.0));
    EXPECT_EQ((-(-x)).id(), x.id());
}

TEST(Expr, PowSimplifications)
{
    Expr x = var(0, "x");
    EXPECT_TRUE(pow(x, 0).isConst(1.0));
    EXPECT_EQ(pow(x, 1).id(), x.id());
    EXPECT_TRUE(pow(Expr(3.0), 2).isConst(9.0));
    EXPECT_EQ(pow(x, 3).op(), Op::Pow);
    EXPECT_EQ(pow(x, 3).ipow(), 3);
}

TEST(Expr, EvalMatchesDoubleMath)
{
    Expr x = var(0, "x");
    Expr y = var(1, "y");
    Expr e = sin(x) * cos(y) + exp(x * y) / (Expr(1.0) + y * y);
    double xv = 0.7;
    double yv = -0.3;
    double expect = std::sin(xv) * std::cos(yv) +
                    std::exp(xv * yv) / (1.0 + yv * yv);
    EXPECT_NEAR(e.eval({xv, yv}), expect, 1e-14);
}

TEST(Expr, VariablesCollectsDistinctIdsSorted)
{
    Expr x = var(0, "x");
    Expr y = var(3, "y");
    Expr z = var(2, "z");
    Expr e = x * y + y * z + x;
    auto ids = e.variables();
    ASSERT_EQ(ids.size(), 3u);
    EXPECT_EQ(ids[0], 0);
    EXPECT_EQ(ids[1], 2);
    EXPECT_EQ(ids[2], 3);
}

TEST(Expr, StrRendersTree)
{
    Expr x = var(0, "x");
    EXPECT_EQ((x + Expr(1.0)).str(), "(add x 1)");
    EXPECT_EQ(pow(x, 2).str(), "(pow x 2)");
}

TEST(Diff, PolynomialDerivative)
{
    Expr x = var(0, "x");
    // d/dx (x^3 + 2x) = 3x^2 + 2.
    Expr e = pow(x, 3) + Expr(2.0) * x;
    Expr d = e.diff(0);
    for (double xv : {-2.0, -0.5, 0.0, 1.0, 3.0})
        EXPECT_NEAR(d.eval({xv}), 3 * xv * xv + 2, 1e-12) << xv;
}

TEST(Diff, WrtOtherVariableIsZero)
{
    Expr x = var(0, "x");
    Expr e = pow(x, 2) + sin(x);
    EXPECT_TRUE(e.diff(1).isConst(0.0));
}

TEST(Diff, QuotientRule)
{
    Expr x = var(0, "x");
    Expr y = var(1, "y");
    Expr e = x / y;
    EXPECT_NEAR(e.diff(0).eval({3.0, 2.0}), 0.5, 1e-12);
    EXPECT_NEAR(e.diff(1).eval({3.0, 2.0}), -0.75, 1e-12);
}

/** All unary functions, derivative vs. central finite differences. */
class DiffUnaryProperty
    : public ::testing::TestWithParam<std::pair<std::string, double>>
{
};

TEST_P(DiffUnaryProperty, MatchesFiniteDifference)
{
    auto [fname, x0] = GetParam();
    Expr x = var(0, "x");
    std::string name = fname;
    Expr e = name == "sin" ? sin(x)
           : name == "cos" ? cos(x)
           : name == "tan" ? tan(x)
           : name == "asin" ? asin(x)
           : name == "acos" ? acos(x)
           : name == "atan" ? atan(x)
           : name == "exp" ? exp(x)
           : sqrt(x);
    Expr d = e.diff(0);
    double h = 1e-6;
    double fd = (e.eval({x0 + h}) - e.eval({x0 - h})) / (2 * h);
    EXPECT_NEAR(d.eval({x0}), fd, 1e-5 * (1 + std::abs(fd)))
        << name << " at " << x0;
}

INSTANTIATE_TEST_SUITE_P(
    Functions, DiffUnaryProperty,
    ::testing::Values(std::pair{"sin", 0.5}, std::pair{"cos", -0.8},
                      std::pair{"tan", 0.4}, std::pair{"asin", 0.3},
                      std::pair{"acos", -0.2}, std::pair{"atan", 1.7},
                      std::pair{"exp", 0.9}, std::pair{"sqrt", 2.5}));

TEST(Diff, ChainRuleThroughComposition)
{
    Expr x = var(0, "x");
    Expr y = var(1, "y");
    // f = exp(sin(x*y) + x^2), df/dx = f * (cos(x*y)*y + 2x).
    Expr f = exp(sin(x * y) + pow(x, 2));
    Expr d = f.diff(0);
    double xv = 0.4;
    double yv = 1.3;
    double fv = std::exp(std::sin(xv * yv) + xv * xv);
    double expect = fv * (std::cos(xv * yv) * yv + 2 * xv);
    EXPECT_NEAR(d.eval({xv, yv}), expect, 1e-10);
}

TEST(Diff, SecondDerivative)
{
    Expr x = var(0, "x");
    Expr f = sin(x) * x;
    // f'' = 2cos(x) - x sin(x).
    Expr d2 = f.diff(0).diff(0);
    for (double xv : {-1.0, 0.0, 0.7, 2.0})
        EXPECT_NEAR(d2.eval({xv}), 2 * std::cos(xv) - xv * std::sin(xv),
                    1e-10) << xv;
}

TEST(Diff, SharedSubtermsDifferentiateOnce)
{
    // Build a deep shared chain; without memoization this would blow up.
    Expr x = var(0, "x");
    Expr e = x;
    for (int i = 0; i < 30; ++i)
        e = e * e + Expr(1e-3);
    Expr d = e.diff(0);
    // The derivative of a 2^30-term tree must stay polynomial-sized
    // thanks to sharing.
    EXPECT_LT(d.opCount(), 4000u);
    EXPECT_TRUE(std::isfinite(d.eval({0.1})));
}

TEST(Tape, ComputesOutputsAndDedupsSharedSubterms)
{
    Expr x = var(0, "x");
    Expr y = var(1, "y");
    Expr shared = sin(x * y);
    Tape tape({shared + x, shared * y}, 2);
    auto out = tape.eval({0.5, 2.0});
    ASSERT_EQ(out.size(), 2u);
    EXPECT_NEAR(out[0], std::sin(1.0) + 0.5, 1e-14);
    EXPECT_NEAR(out[1], std::sin(1.0) * 2.0, 1e-14);
    // shared term: mul + sin + add + mul = 4 instructions, not 6.
    EXPECT_EQ(tape.instrs().size(), 4u);
}

TEST(Tape, ConstantsAreDeduplicated)
{
    Expr x = var(0, "x");
    Tape tape({x + Expr(2.5), x * Expr(2.5)}, 1);
    EXPECT_EQ(tape.preloads().size(), 1u);
}

TEST(Tape, OutputsCanAliasInputs)
{
    Expr x = var(0, "x");
    Tape tape({x}, 1);
    EXPECT_TRUE(tape.instrs().empty());
    EXPECT_DOUBLE_EQ(tape.eval({7.0})[0], 7.0);
}

TEST(Tape, StatsCountCategories)
{
    Expr x = var(0, "x");
    Expr y = var(1, "y");
    Expr e = sin(x) + x * y - y / x;
    Tape tape({e}, 2);
    OpStats s = tape.stats();
    EXPECT_EQ(s.nonlinear, 1u);
    EXPECT_EQ(s.mul, 1u);
    EXPECT_EQ(s.div, 1u);
    EXPECT_EQ(s.addSub, 2u);
    EXPECT_EQ(s.total(), 5u);
}

TEST(Tape, PowExpandsToMulsInStats)
{
    Expr x = var(0, "x");
    Tape tape({pow(x, 4)}, 1);
    EXPECT_EQ(tape.stats().mul, 4u);
}

TEST(Tape, FixedEvalTracksDoubleEval)
{
    Expr x = var(0, "x");
    Expr y = var(1, "y");
    Expr e = sin(x) * y + sqrt(y * y + Expr(1.0)) - x / (y + Expr(3.0));
    Tape tape({e}, 2);
    const FixedMath &fm = FixedMath::instance();
    std::mt19937 rng(13);
    std::uniform_real_distribution<double> dist(-2.0, 2.0);
    for (int i = 0; i < 200; ++i) {
        double xv = dist(rng);
        double yv = dist(rng);
        double ref = tape.eval({xv, yv})[0];
        Fixed got = tape.evalFixed(
            {Fixed::fromDouble(xv), Fixed::fromDouble(yv)}, fm)[0];
        EXPECT_NEAR(got.toDouble(), ref, 5e-4)
            << "x=" << xv << " y=" << yv;
    }
}

TEST(Tape, RandomExpressionProperty)
{
    // Random expression trees: tape eval must equal direct Expr eval.
    std::mt19937 rng(99);
    std::uniform_real_distribution<double> dist(-1.5, 1.5);
    std::uniform_int_distribution<int> pick(0, 5);
    for (int trial = 0; trial < 50; ++trial) {
        Expr x = var(0, "x");
        Expr y = var(1, "y");
        Expr e = x;
        for (int step = 0; step < 10; ++step) {
            switch (pick(rng)) {
              case 0: e = e + y; break;
              case 1: e = e * Expr(dist(rng)); break;
              case 2: e = sin(e); break;
              case 3: e = e - x * y; break;
              case 4: e = e / (Expr(2.0) + y * y); break;
              default: e = exp(e * Expr(0.1)); break;
            }
        }
        Tape tape({e}, 2);
        double xv = dist(rng);
        double yv = dist(rng);
        EXPECT_NEAR(tape.eval({xv, yv})[0], e.eval({xv, yv}), 1e-12);
    }
}

TEST(Derivatives, GradientAndJacobianShapes)
{
    Expr x = var(0, "x");
    Expr y = var(1, "y");
    Expr f = x * x * y + sin(y);
    auto grad = gradient(f, {0, 1});
    ASSERT_EQ(grad.size(), 2u);
    EXPECT_NEAR(grad[0].eval({2.0, 3.0}), 2 * 2 * 3, 1e-12);
    EXPECT_NEAR(grad[1].eval({2.0, 3.0}), 4 + std::cos(3.0), 1e-12);

    auto jac = jacobian({x + y, x * y}, {0, 1});
    ASSERT_EQ(jac.size(), 4u);
    EXPECT_NEAR(jac[0].eval({5.0, 7.0}), 1.0, 1e-12);
    EXPECT_NEAR(jac[3].eval({5.0, 7.0}), 5.0, 1e-12);
}

TEST(Derivatives, HessianIsSymmetricAndExact)
{
    Expr x = var(0, "x");
    Expr y = var(1, "y");
    // f = x^2 y + exp(x y): known second derivatives.
    Expr f = pow(x, 2) * y + exp(x * y);
    auto hess = hessian(f, {0, 1});
    ASSERT_EQ(hess.size(), 4u);
    double xv = 0.3;
    double yv = 0.7;
    double e = std::exp(xv * yv);
    std::vector<double> env = {xv, yv};
    EXPECT_NEAR(hess[0].eval(env), 2 * yv + yv * yv * e, 1e-10);
    EXPECT_NEAR(hess[3].eval(env), xv * xv * e, 1e-10);
    // Symmetry, including the mixed term 2x + e(1 + xy).
    EXPECT_NEAR(hess[1].eval(env), hess[2].eval(env), 1e-14);
    EXPECT_NEAR(hess[1].eval(env), 2 * xv + e * (1 + xv * yv), 1e-10);
}

TEST(Derivatives, GaussNewtonMatchesHandComputed)
{
    Expr x = var(0, "x");
    Expr y = var(1, "y");
    // Residuals r1 = x - 1 (w=2), r2 = x*y (w=0.5).
    auto gn = gaussNewton({x - Expr(1.0), x * y}, {2.0, 0.5}, {0, 1},
                          {3.0, 4.0});
    ASSERT_EQ(gn.size(), 4u);
    // H = 2*2*[1 0;0 0] + 2*0.5*[y;x][y x] at (3,4).
    EXPECT_NEAR(gn[0], 4.0 + 1.0 * 16.0, 1e-12);
    EXPECT_NEAR(gn[1], 1.0 * 12.0, 1e-12);
    EXPECT_NEAR(gn[2], gn[1], 1e-12);
    EXPECT_NEAR(gn[3], 1.0 * 9.0, 1e-12);
}

} // namespace
} // namespace robox::sym
