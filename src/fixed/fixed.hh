/**
 * @file
 * 32-bit fixed-point arithmetic for the RoboX accelerator datapath.
 *
 * The paper's empirical study (Sec. VIII-A) found that 32-bit fixed point
 * with 17 fractional bits makes the effect on solver convergence
 * negligible. This module implements that format (1 sign bit, 14 integer
 * bits, 17 fractional bits) with saturating arithmetic, which is what a
 * hardware ALU would implement, plus conversion helpers and saturation
 * statistics used by the simulator's numerical-fidelity tests.
 */

#ifndef ROBOX_FIXED_FIXED_HH
#define ROBOX_FIXED_FIXED_HH

#include <cstdint>
#include <limits>

namespace robox
{

/**
 * A 32-bit fixed-point number in Q14.17 format.
 *
 * All arithmetic saturates to the representable range rather than
 * wrapping; saturation events are counted in a thread-local statistic so
 * tests can verify that benchmark workloads stay inside the format.
 */
class Fixed
{
  public:
    /** Number of fractional bits in the representation. */
    static constexpr int fracBits = 17;
    /** Scale factor 2^fracBits. */
    static constexpr double scale = 131072.0;
    /** Raw value of the largest representable number. */
    static constexpr std::int32_t rawMax =
        std::numeric_limits<std::int32_t>::max();
    /** Raw value of the smallest representable number. */
    static constexpr std::int32_t rawMin =
        std::numeric_limits<std::int32_t>::min();

    /** Zero-initialized by default. */
    constexpr Fixed() : raw_(0) {}

    /** Build from a raw two's-complement bit pattern. */
    static constexpr Fixed
    fromRaw(std::int32_t raw)
    {
        Fixed f;
        f.raw_ = raw;
        return f;
    }

    /** Convert from double, rounding to nearest and saturating.
     *  NaN converts to zero and counts as a saturation event; +/-Inf
     *  saturate to the corresponding range end. */
    static Fixed fromDouble(double value);

    /** Convert back to double exactly (every Fixed is a dyadic rational). */
    constexpr double toDouble() const { return raw_ / scale; }

    /** Access the raw bit pattern. */
    constexpr std::int32_t raw() const { return raw_; }

    /** Largest representable value (~16383.99999). */
    static constexpr Fixed max() { return fromRaw(rawMax); }
    /** Smallest representable value (~-16384). */
    static constexpr Fixed min() { return fromRaw(rawMin); }
    /** Smallest positive increment (2^-17). */
    static constexpr Fixed epsilon() { return fromRaw(1); }

    Fixed operator+(Fixed o) const;
    Fixed operator-(Fixed o) const;
    Fixed operator*(Fixed o) const;
    /** Division; division by zero saturates and counts as saturation. */
    Fixed operator/(Fixed o) const;
    Fixed operator-() const;

    Fixed &operator+=(Fixed o) { return *this = *this + o; }
    Fixed &operator-=(Fixed o) { return *this = *this - o; }
    Fixed &operator*=(Fixed o) { return *this = *this * o; }
    Fixed &operator/=(Fixed o) { return *this = *this / o; }

    constexpr bool operator==(const Fixed &o) const = default;
    constexpr bool operator<(Fixed o) const { return raw_ < o.raw_; }
    constexpr bool operator<=(Fixed o) const { return raw_ <= o.raw_; }
    constexpr bool operator>(Fixed o) const { return raw_ > o.raw_; }
    constexpr bool operator>=(Fixed o) const { return raw_ >= o.raw_; }

    /**
     * Fused multiply-add a*b+c, the operation implemented by the
     * compute-enabled interconnect hops. A single rounding step is
     * applied after the wide product is accumulated.
     */
    static Fixed mulAdd(Fixed a, Fixed b, Fixed c);

    /** Largest representable magnitude (|min()| in value units). */
    static constexpr double maxAbs = 16384.0;

    /** Number of saturation events since the last reset (thread local).
     *  Division by zero and NaN conversion count here as well, since a
     *  hardware ALU reports them through the same sticky flag. */
    static std::uint64_t saturationCount();
    /** Reset the saturation statistic. */
    static void resetSaturationCount();

    /** Division-by-zero events since the last reset (thread local).
     *  A subset of saturationCount(): every division by zero is also
     *  counted as a saturation event. */
    static std::uint64_t divByZeroCount();

    /** Reset both thread-local statistics (saturation + div-by-zero). */
    static void resetCounts();

  private:
    /** Clamp a wide intermediate into the 32-bit range, counting events. */
    static std::int32_t saturate(std::int64_t wide);

    std::int32_t raw_;
};

} // namespace robox

#endif // ROBOX_FIXED_FIXED_HH
