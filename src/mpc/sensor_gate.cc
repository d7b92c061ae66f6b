/**
 * @file
 * Implementation of the sensor-input plausibility gate.
 */

#include "mpc/sensor_gate.hh"

#include <algorithm>
#include <cmath>

#include "mpc/checkpoint_io.hh"

namespace robox::mpc
{

namespace
{

/** Tolerated excursion beyond one finite bound pair. With both bounds
 *  finite the margin scales the span; one-sided boxes scale the
 *  magnitude of the finite bound (floored at 1 so tight-near-zero
 *  bounds still get a usable tolerance). */
double
rangeTolerance(double lower, double upper, double margin)
{
    if (std::isfinite(lower) && std::isfinite(upper))
        return margin * (upper - lower);
    double finite = std::isfinite(lower) ? lower : upper;
    return margin * std::max(1.0, std::abs(finite));
}

} // namespace

const char *
toString(SensorVerdict verdict)
{
    switch (verdict) {
      case SensorVerdict::Ok: return "ok";
      case SensorVerdict::NonFinite: return "non-finite";
      case SensorVerdict::OutOfRange: return "out-of-range";
      case SensorVerdict::Jump: return "jump";
      case SensorVerdict::Frozen: return "frozen";
    }
    return "unknown";
}

SensorGate::SensorGate(const dsl::ModelSpec &model,
                       const MpcOptions &options)
    : model_(&model),
      range_margin_(options.sensorRangeMargin),
      jump_threshold_(options.sensorJumpThreshold),
      frozen_periods_(options.sensorFrozenPeriods)
{
}

SensorVerdict
SensorGate::check(const Vector &x)
{
    const int nx = model_->nx();
    SensorVerdict verdict = SensorVerdict::Ok;

    // 1. Finiteness. A NaN measurement carries no information, so it
    // also breaks the frozen-repeat chain rather than extending it.
    for (int i = 0; i < nx && verdict == SensorVerdict::Ok; ++i)
        if (!std::isfinite(x[i]))
            verdict = SensorVerdict::NonFinite;
    if (verdict != SensorVerdict::Ok) {
        frozen_streak_ = 0;
        last_verdict_ = verdict;
        ++rejected_;
        return verdict;
    }

    // 2. Range against the model's state box plus margin.
    if (range_margin_ >= 0.0) {
        for (int i = 0; i < nx && verdict == SensorVerdict::Ok; ++i) {
            const double lo = model_->stateLower[i];
            const double hi = model_->stateUpper[i];
            if (!std::isfinite(lo) && !std::isfinite(hi))
                continue;
            const double tol = rangeTolerance(lo, hi, range_margin_);
            if (x[i] < lo - tol || x[i] > hi + tol)
                verdict = SensorVerdict::OutOfRange;
        }
    }

    // 3. Frozen: bitwise-identical to the previous measurement for
    // frozen_periods_ consecutive periods. Tracked against the raw
    // previous sample (held in baseline_ only when it was accepted),
    // so keep a dedicated streak keyed on exact repetition of the
    // jump baseline — a frozen sensor never moves the baseline either.
    if (verdict == SensorVerdict::Ok && frozen_periods_ > 0 &&
        has_baseline_) {
        bool identical = true;
        for (int i = 0; i < nx && identical; ++i)
            identical = x[i] == baseline_[i];
        if (identical) {
            // Only reaching frozen_periods_ matters, so the streak
            // stops there.
            if (frozen_streak_ < frozen_periods_)
                ++frozen_streak_;
            if (frozen_streak_ >= frozen_periods_)
                verdict = SensorVerdict::Frozen;
        } else {
            frozen_streak_ = 0;
        }
    }

    // 4. Jump relative to the last accepted measurement. A persistent
    // jump re-homes: the robot genuinely is somewhere new.
    if (verdict == SensorVerdict::Ok && jump_threshold_ > 0.0 &&
        has_baseline_) {
        double jump = 0.0;
        for (int i = 0; i < nx; ++i)
            jump = std::max(jump, std::abs(x[i] - baseline_[i]));
        if (jump > jump_threshold_) {
            if (++jump_streak_ >= kJumpRehomePeriods)
                jump_streak_ = 0; // Re-home: accept below.
            else
                verdict = SensorVerdict::Jump;
        } else {
            jump_streak_ = 0;
        }
    }

    if (verdict == SensorVerdict::Ok) {
        if (baseline_.size() != static_cast<std::size_t>(nx))
            baseline_.resize(static_cast<std::size_t>(nx));
        baseline_.copyFrom(x);
        has_baseline_ = true;
    } else {
        ++rejected_;
    }
    last_verdict_ = verdict;
    return verdict;
}

template <class Io, class Self>
bool
SensorGate::transfer(Io &io, Self &self)
{
    // check() reads nx baseline entries whenever has_baseline_ is set,
    // and never leaves a streak outside the ranges checked here.
    const auto nx = static_cast<std::size_t>(self.model_->nx());
    return sizedField(io, self.baseline_, nx, true) &&
           field(io, self.has_baseline_) &&
           (!self.has_baseline_ || self.baseline_.size() == nx) &&
           field(io, self.frozen_streak_) && self.frozen_streak_ >= 0 &&
           self.frozen_streak_ <= std::max(0, self.frozen_periods_) &&
           field(io, self.jump_streak_) && self.jump_streak_ >= 0 &&
           self.jump_streak_ < kJumpRehomePeriods &&
           support::enumField<std::uint32_t>(io, self.last_verdict_,
                                             SensorVerdict::Frozen) &&
           field(io, self.rejected_);
}

void
SensorGate::checkpoint(support::CheckpointWriter &w) const
{
    transfer(w, *this);
}

bool
SensorGate::restore(support::CheckpointReader &r)
{
    if (transfer(r, *this))
        return true;
    reset();
    rejected_ = 0;
    return false;
}

void
SensorGate::reset()
{
    has_baseline_ = false;
    frozen_streak_ = 0;
    jump_streak_ = 0;
    last_verdict_ = SensorVerdict::Ok;
}

} // namespace robox::mpc
