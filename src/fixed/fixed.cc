/**
 * @file
 * Implementation of Q14.17 saturating fixed-point arithmetic.
 */

#include "fixed/fixed.hh"

#include <cmath>
#include <cstdlib>

namespace robox
{

namespace
{
thread_local std::uint64_t saturation_events = 0;
thread_local std::uint64_t div_zero_events = 0;
} // namespace

std::int32_t
Fixed::saturate(std::int64_t wide)
{
    if (wide > rawMax) {
        ++saturation_events;
        return rawMax;
    }
    if (wide < rawMin) {
        ++saturation_events;
        return rawMin;
    }
    return static_cast<std::int32_t>(wide);
}

Fixed
Fixed::fromDouble(double value)
{
    // NaN has no ordering, so it would fall through the range checks
    // below into UB (static_cast of NaN). Defined behavior: saturate
    // to zero and report through the saturation flag, mirroring a
    // hardware converter's quiet-NaN handling.
    if (std::isnan(value)) {
        ++saturation_events;
        return fromRaw(0);
    }
    double scaled = value * scale;
    if (scaled >= static_cast<double>(rawMax)) {
        ++saturation_events;
        return fromRaw(rawMax);
    }
    if (scaled <= static_cast<double>(rawMin)) {
        ++saturation_events;
        return fromRaw(rawMin);
    }
    return fromRaw(static_cast<std::int32_t>(std::lround(scaled)));
}

Fixed
Fixed::operator+(Fixed o) const
{
    return fromRaw(saturate(static_cast<std::int64_t>(raw_) + o.raw_));
}

Fixed
Fixed::operator-(Fixed o) const
{
    return fromRaw(saturate(static_cast<std::int64_t>(raw_) - o.raw_));
}

Fixed
Fixed::operator*(Fixed o) const
{
    std::int64_t wide = static_cast<std::int64_t>(raw_) * o.raw_;
    // Round to nearest: add half an LSB before the arithmetic shift.
    wide += (std::int64_t{1} << (fracBits - 1));
    return fromRaw(saturate(wide >> fracBits));
}

Fixed
Fixed::operator/(Fixed o) const
{
    if (o.raw_ == 0) {
        ++saturation_events;
        ++div_zero_events;
        return raw_ >= 0 ? max() : min();
    }
    // Divide magnitudes with a half-divisor bias for round-to-nearest,
    // then reapply the sign; this avoids the toward-zero truncation bias
    // of signed integer division.
    std::int64_t num = std::llabs(static_cast<std::int64_t>(raw_))
                       << fracBits;
    std::int64_t den = std::llabs(static_cast<std::int64_t>(o.raw_));
    std::int64_t mag = (num + den / 2) / den;
    bool negative = (raw_ < 0) != (o.raw_ < 0);
    return fromRaw(saturate(negative ? -mag : mag));
}

Fixed
Fixed::operator-() const
{
    return fromRaw(saturate(-static_cast<std::int64_t>(raw_)));
}

Fixed
Fixed::mulAdd(Fixed a, Fixed b, Fixed c)
{
    std::int64_t wide = static_cast<std::int64_t>(a.raw_) * b.raw_;
    wide += (std::int64_t{1} << (fracBits - 1));
    wide >>= fracBits;
    wide += c.raw_;
    return fromRaw(saturate(wide));
}

std::uint64_t
Fixed::saturationCount()
{
    return saturation_events;
}

void
Fixed::resetSaturationCount()
{
    saturation_events = 0;
}

std::uint64_t
Fixed::divByZeroCount()
{
    return div_zero_events;
}

void
Fixed::resetCounts()
{
    saturation_events = 0;
    div_zero_events = 0;
}

} // namespace robox
