/**
 * @file
 * Unit and property tests for Q14.17 fixed-point arithmetic, the lookup
 * tables, and the range-reduced nonlinear math, including the paper's
 * claim that 32-bit/17-fraction fixed point is accurate enough for the
 * control workloads.
 */

#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <random>
#include <thread>

#include <gtest/gtest.h>

#include "fixed/fixed.hh"
#include "fixed/fixed_math.hh"
#include "fixed/lut.hh"
#include "support/logging.hh"

namespace robox
{
namespace
{

constexpr double kEps = 1.0 / Fixed::scale;

TEST(Fixed, RoundTripsSmallValues)
{
    for (double v : {0.0, 1.0, -1.0, 0.5, 3.14159, -127.75, 1000.125}) {
        EXPECT_NEAR(Fixed::fromDouble(v).toDouble(), v, kEps / 2)
            << "value " << v;
    }
}

TEST(Fixed, EpsilonIsOneRawLsb)
{
    EXPECT_DOUBLE_EQ(Fixed::epsilon().toDouble(), 1.0 / 131072.0);
}

TEST(Fixed, AdditionMatchesDouble)
{
    Fixed a = Fixed::fromDouble(12.25);
    Fixed b = Fixed::fromDouble(-3.75);
    EXPECT_DOUBLE_EQ((a + b).toDouble(), 8.5);
    EXPECT_DOUBLE_EQ((a - b).toDouble(), 16.0);
}

TEST(Fixed, MultiplicationRoundsToNearest)
{
    Fixed a = Fixed::fromDouble(1.5);
    Fixed b = Fixed::fromDouble(2.5);
    EXPECT_DOUBLE_EQ((a * b).toDouble(), 3.75);
}

TEST(Fixed, DivisionMatchesDouble)
{
    Fixed a = Fixed::fromDouble(10.0);
    Fixed b = Fixed::fromDouble(4.0);
    EXPECT_NEAR((a / b).toDouble(), 2.5, kEps);
    Fixed c = Fixed::fromDouble(-9.0);
    EXPECT_NEAR((c / b).toDouble(), -2.25, kEps);
}

TEST(Fixed, DivisionByZeroSaturates)
{
    Fixed::resetSaturationCount();
    Fixed a = Fixed::fromDouble(3.0);
    EXPECT_EQ((a / Fixed()).raw(), Fixed::rawMax);
    EXPECT_EQ(((-a) / Fixed()).raw(), Fixed::rawMin);
    EXPECT_EQ(Fixed::saturationCount(), 2u);
}

TEST(Fixed, NanQuantizesToZeroAndCountsAsSaturation)
{
    // NaN has no meaningful quantization; the defined behavior is the
    // safest representable value (zero) plus a saturation event so the
    // numeric-health layer can see the corruption.
    Fixed::resetCounts();
    Fixed nan = Fixed::fromDouble(std::numeric_limits<double>::quiet_NaN());
    EXPECT_EQ(nan.raw(), 0);
    EXPECT_EQ(Fixed::saturationCount(), 1u);

    // Infinities saturate to the range ends like any overflow.
    EXPECT_EQ(Fixed::fromDouble(std::numeric_limits<double>::infinity())
                  .raw(),
              Fixed::rawMax);
    EXPECT_EQ(Fixed::fromDouble(-std::numeric_limits<double>::infinity())
                  .raw(),
              Fixed::rawMin);
    EXPECT_EQ(Fixed::saturationCount(), 3u);
    Fixed::resetCounts();
}

TEST(Fixed, DivByZeroCounterTracksSeparatelyFromSaturations)
{
    Fixed::resetCounts();
    Fixed a = Fixed::fromDouble(3.0);
    (void)(a / Fixed());
    EXPECT_EQ(Fixed::divByZeroCount(), 1u);
    // A div-by-zero is also a saturation (the result pegs at a range
    // end), so both counters move.
    EXPECT_EQ(Fixed::saturationCount(), 1u);

    // An ordinary overflow moves only the saturation counter.
    Fixed big = Fixed::fromDouble(16000.0);
    (void)(big * big);
    EXPECT_EQ(Fixed::divByZeroCount(), 1u);
    EXPECT_EQ(Fixed::saturationCount(), 2u);
    Fixed::resetCounts();
    EXPECT_EQ(Fixed::divByZeroCount(), 0u);
    EXPECT_EQ(Fixed::saturationCount(), 0u);
}

TEST(Fixed, WorkerThreadEventsStayThreadLocal)
{
    Fixed::resetCounts();

    std::thread worker([] {
        Fixed::resetCounts();
        Fixed a = Fixed::fromDouble(2.0);
        for (int i = 0; i < 3; ++i)
            (void)(a / Fixed());
        EXPECT_EQ(Fixed::saturationCount(), 3u);
        EXPECT_EQ(Fixed::divByZeroCount(), 3u);
    });
    worker.join();

    // The worker's events never reach this thread's counters (a solve
    // reports its own thread's deltas through SolveStats::numeric).
    EXPECT_EQ(Fixed::saturationCount(), 0u);
    EXPECT_EQ(Fixed::divByZeroCount(), 0u);
}

TEST(Fixed, AdditionSaturatesAtRangeEnds)
{
    Fixed::resetSaturationCount();
    Fixed big = Fixed::max();
    EXPECT_EQ((big + big).raw(), Fixed::rawMax);
    Fixed small = Fixed::min();
    EXPECT_EQ((small + small).raw(), Fixed::rawMin);
    EXPECT_GE(Fixed::saturationCount(), 2u);
}

TEST(Fixed, OverflowFromDoubleSaturates)
{
    Fixed::resetSaturationCount();
    EXPECT_EQ(Fixed::fromDouble(1e9).raw(), Fixed::rawMax);
    EXPECT_EQ(Fixed::fromDouble(-1e9).raw(), Fixed::rawMin);
    EXPECT_EQ(Fixed::saturationCount(), 2u);
}

TEST(Fixed, NegationOfMinSaturates)
{
    EXPECT_EQ((-Fixed::min()).raw(), Fixed::rawMax);
}

TEST(Fixed, MulAddMatchesSeparateOps)
{
    Fixed a = Fixed::fromDouble(2.5);
    Fixed b = Fixed::fromDouble(-1.25);
    Fixed c = Fixed::fromDouble(7.0);
    EXPECT_NEAR(Fixed::mulAdd(a, b, c).toDouble(),
                2.5 * -1.25 + 7.0, 2 * kEps);
}

/** Property sweep: random arithmetic stays within quantization error. */
class FixedArithmeticProperty : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(FixedArithmeticProperty, RandomOpsTrackDoubleWithinTolerance)
{
    std::mt19937 rng(GetParam());
    std::uniform_real_distribution<double> dist(-100.0, 100.0);
    for (int i = 0; i < 2000; ++i) {
        double x = dist(rng);
        double y = dist(rng);
        Fixed fx = Fixed::fromDouble(x);
        Fixed fy = Fixed::fromDouble(y);
        EXPECT_NEAR((fx + fy).toDouble(), x + y, 2 * kEps);
        EXPECT_NEAR((fx - fy).toDouble(), x - y, 2 * kEps);
        // Product of quantization errors scales with the magnitudes.
        EXPECT_NEAR((fx * fy).toDouble(), x * y,
                    (std::abs(x) + std::abs(y) + 1) * kEps);
        if (std::abs(y) > 0.5) {
            // First-order error: |dx/y| + |x*dy/y^2| + final rounding.
            double bound =
                (std::abs(1.0 / y) * (1.0 + std::abs(x / y)) + 1) * kEps;
            EXPECT_NEAR((fx / fy).toDouble(), x / y, bound);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FixedArithmeticProperty,
                         ::testing::Values(1u, 2u, 3u, 17u, 42u));

TEST(Lut, RejectsDegenerateConfigs)
{
    auto identity = [](double x) { return x; };
    EXPECT_THROW(Lut("bad", identity, 0.0, 1.0, 1), FatalError);
    EXPECT_THROW(Lut("bad", identity, 1.0, 1.0, 16), FatalError);
}

TEST(Lut, NearestLookupHitsSamplePoints)
{
    Lut lut("sq", [](double x) { return x * x; }, 0.0, 4.0, 257);
    // Sample points are exact table entries.
    EXPECT_NEAR(lut.lookup(Fixed::fromDouble(2.0)).toDouble(), 4.0, kEps);
    EXPECT_NEAR(lut.lookup(Fixed::fromDouble(0.0)).toDouble(), 0.0, kEps);
}

TEST(Lut, LookupClampsOutOfDomain)
{
    Lut lut("lin", [](double x) { return x; }, -1.0, 1.0, 128);
    EXPECT_NEAR(lut.lookup(Fixed::fromDouble(5.0)).toDouble(), 1.0, 0.02);
    EXPECT_NEAR(lut.lookupInterp(Fixed::fromDouble(-7.0)).toDouble(),
                -1.0, 0.02);
}

TEST(Lut, EdgeBinsHitTheTableEndsExactly)
{
    auto fn = [](double x) { return x * x; };
    Lut lut("sq", fn, -1.0, 3.0, 513);
    // The first and last bins: lookups at exactly lo and hi must land
    // on the end entries, not wrap or interpolate past the table.
    EXPECT_NEAR(lut.lookup(Fixed::fromDouble(-1.0)).toDouble(), 1.0, kEps);
    EXPECT_NEAR(lut.lookup(Fixed::fromDouble(3.0)).toDouble(), 9.0, kEps);
    EXPECT_NEAR(lut.lookupInterp(Fixed::fromDouble(-1.0)).toDouble(), 1.0,
                kEps);
    EXPECT_NEAR(lut.lookupInterp(Fixed::fromDouble(3.0)).toDouble(), 9.0,
                kEps);
    // One quantum inside each edge stays within the edge bin's error.
    const double step = 4.0 / 512;
    EXPECT_NEAR(lut.lookupInterp(Fixed::fromDouble(-1.0 + kEps)).toDouble(),
                fn(-1.0 + kEps), step * step);
    EXPECT_NEAR(lut.lookupInterp(Fixed::fromDouble(3.0 - kEps)).toDouble(),
                fn(3.0 - kEps), step * step);
    // Beyond the domain both modes clamp to the end entries.
    EXPECT_NEAR(lut.lookup(Fixed::fromDouble(-2.5)).toDouble(), 1.0, kEps);
    EXPECT_NEAR(lut.lookupInterp(Fixed::fromDouble(100.0)).toDouble(), 9.0,
                kEps);
}

TEST(FixedMath, EdgeBinsOfEveryLutMatchReference)
{
    const FixedMath &fm = FixedMath::instance();
    const double pi = std::numbers::pi;

    // sin/cos table covers [-pi, pi]: probe both seams of the range
    // reduction and the exact endpoints.
    for (double x : {-pi, pi, -pi + kEps, pi - kEps}) {
        EXPECT_NEAR(fm.sin(Fixed::fromDouble(x)).toDouble(), std::sin(x),
                    1e-4) << "sin " << x;
        EXPECT_NEAR(fm.cos(Fixed::fromDouble(x)).toDouble(), std::cos(x),
                    1e-4) << "cos " << x;
    }

    // asin/acos tables cover [-1, 1]: the endpoint bins carry the
    // steepest slope, so they get their own check.
    EXPECT_NEAR(fm.asin(Fixed::fromDouble(1.0)).toDouble(), pi / 2, 1e-3);
    EXPECT_NEAR(fm.asin(Fixed::fromDouble(-1.0)).toDouble(), -pi / 2, 1e-3);
    EXPECT_NEAR(fm.acos(Fixed::fromDouble(1.0)).toDouble(), 0.0, 1e-3);
    EXPECT_NEAR(fm.acos(Fixed::fromDouble(-1.0)).toDouble(), pi, 1e-3);

    // atan's table covers [-1, 1] with |x| > 1 served through the
    // reciprocal identity: probe both sides of that seam.
    for (double x : {1.0, -1.0, 1.0 + kEps, -1.0 - kEps}) {
        EXPECT_NEAR(fm.atan(Fixed::fromDouble(x)).toDouble(), std::atan(x),
                    5e-4) << "atan " << x;
    }

    // exp's table covers [0, ln2) with power-of-two range reduction:
    // probe 0, the ln2 seam, and exact integer multiples of ln2.
    const double ln2 = std::numbers::ln2;
    for (double x : {0.0, ln2, ln2 - kEps, 2 * ln2, -ln2}) {
        EXPECT_NEAR(fm.exp(Fixed::fromDouble(x)).toDouble(), std::exp(x),
                    1e-3) << "exp " << x;
    }

    // sqrt's table covers [0.25, 1) with factor-4 normalization: probe
    // the table edges and their scaled images.
    for (double x : {0.25, 1.0, 0.25 - kEps, 1.0 - kEps, 4.0, 16.0}) {
        EXPECT_NEAR(fm.sqrt(Fixed::fromDouble(x)).toDouble(), std::sqrt(x),
                    5e-4) << "sqrt " << x;
    }
}

TEST(Lut, InterpolationBeatsNearestOnSmoothFunction)
{
    auto fn = [](double x) { return std::sin(x); };
    Lut lut("sin", fn, -3.2, 3.2, 1024);
    double nearest_worst = 0.0;
    for (int i = 0; i <= 4096; ++i) {
        double x = -3.2 + 6.4 * i / 4096;
        nearest_worst = std::max(
            nearest_worst,
            std::abs(lut.lookup(Fixed::fromDouble(x)).toDouble() - fn(x)));
    }
    EXPECT_LT(lut.maxInterpError(fn, 4096), nearest_worst);
}

TEST(Lut, PaperSized4096EntryTableIsAccurate)
{
    auto fn = [](double x) { return std::sin(x); };
    Lut lut("sin", fn, -std::numbers::pi, std::numbers::pi, 4096);
    // 4096 entries over 2*pi: interpolation error ~(h^2/8)*max|f''|.
    EXPECT_LT(lut.maxInterpError(fn), 5e-5);
}

TEST(FixedMath, TrigMatchesStdWithinLutError)
{
    const FixedMath &fm = FixedMath::instance();
    for (double x = -10.0; x <= 10.0; x += 0.137) {
        EXPECT_NEAR(fm.sin(Fixed::fromDouble(x)).toDouble(), std::sin(x),
                    1e-4) << "sin " << x;
        EXPECT_NEAR(fm.cos(Fixed::fromDouble(x)).toDouble(), std::cos(x),
                    1e-4) << "cos " << x;
    }
}

TEST(FixedMath, TanMatchesAwayFromPoles)
{
    const FixedMath &fm = FixedMath::instance();
    for (double x = -1.2; x <= 1.2; x += 0.1) {
        EXPECT_NEAR(fm.tan(Fixed::fromDouble(x)).toDouble(), std::tan(x),
                    5e-4) << "tan " << x;
    }
}

TEST(FixedMath, InverseTrigMatches)
{
    const FixedMath &fm = FixedMath::instance();
    for (double x = -0.95; x <= 0.95; x += 0.05) {
        EXPECT_NEAR(fm.asin(Fixed::fromDouble(x)).toDouble(), std::asin(x),
                    5e-4) << "asin " << x;
        EXPECT_NEAR(fm.acos(Fixed::fromDouble(x)).toDouble(), std::acos(x),
                    5e-4) << "acos " << x;
    }
    for (double x = -20.0; x <= 20.0; x += 0.5) {
        EXPECT_NEAR(fm.atan(Fixed::fromDouble(x)).toDouble(), std::atan(x),
                    5e-4) << "atan " << x;
    }
}

TEST(FixedMath, InverseTrigClampsDomain)
{
    const FixedMath &fm = FixedMath::instance();
    EXPECT_NEAR(fm.asin(Fixed::fromDouble(2.0)).toDouble(),
                std::numbers::pi / 2, 1e-4);
    EXPECT_NEAR(fm.asin(Fixed::fromDouble(-2.0)).toDouble(),
                -std::numbers::pi / 2, 1e-4);
}

TEST(FixedMath, ExpMatchesOverUsefulRange)
{
    const FixedMath &fm = FixedMath::instance();
    for (double x = -8.0; x <= 9.0; x += 0.31) {
        double expect = std::exp(x);
        double tol = std::max(1e-4, expect * 2e-5 + 2 * kEps);
        EXPECT_NEAR(fm.exp(Fixed::fromDouble(x)).toDouble(), expect, tol)
            << "exp " << x;
    }
}

TEST(FixedMath, SqrtMatchesOverDynamicRange)
{
    const FixedMath &fm = FixedMath::instance();
    for (double x : {1e-3, 0.01, 0.25, 1.0, 2.0, 10.0, 100.0, 5000.0}) {
        double tol = std::max(2e-4, std::sqrt(x) * 1e-4);
        EXPECT_NEAR(fm.sqrt(Fixed::fromDouble(x)).toDouble(), std::sqrt(x),
                    tol) << "sqrt " << x;
    }
    EXPECT_DOUBLE_EQ(fm.sqrt(Fixed::fromDouble(-4.0)).toDouble(), 0.0);
    EXPECT_DOUBLE_EQ(fm.sqrt(Fixed()).toDouble(), 0.0);
}

TEST(FixedMath, PythagoreanIdentityHolds)
{
    const FixedMath &fm = FixedMath::instance();
    for (double x = -3.0; x <= 3.0; x += 0.21) {
        Fixed s = fm.sin(Fixed::fromDouble(x));
        Fixed c = fm.cos(Fixed::fromDouble(x));
        EXPECT_NEAR((s * s + c * c).toDouble(), 1.0, 3e-4) << "x " << x;
    }
}

TEST(FixedMath, SmallerLutsAreLessAccurate)
{
    FixedMath small(256);
    FixedMath big(4096);
    double worst_small = 0.0;
    double worst_big = 0.0;
    for (double x = -3.0; x <= 3.0; x += 0.0137) {
        worst_small = std::max(
            worst_small,
            std::abs(small.sin(Fixed::fromDouble(x)).toDouble()
                     - std::sin(x)));
        worst_big = std::max(
            worst_big,
            std::abs(big.sin(Fixed::fromDouble(x)).toDouble()
                     - std::sin(x)));
    }
    EXPECT_LT(worst_big, worst_small);
}

} // namespace
} // namespace robox
