/**
 * @file
 * Sensor-input plausibility gate for the control layer.
 *
 * A poisoned measurement — NaN from a dropped packet, a wild value
 * from a glitched encoder, a frozen ADC repeating its last word — is
 * cheaper to reject *before* the solve than to let the interior-point
 * method spend its budget diverging on it. The gate runs four checks
 * against each measured state, in order of increasing statefulness:
 *
 *  1. finiteness  — any NaN/Inf component (always on);
 *  2. range       — components outside the model's state box bounds by
 *                   more than MpcOptions::sensorRangeMargin x span;
 *  3. jump        — inter-period inf-norm change above
 *                   MpcOptions::sensorJumpThreshold;
 *  4. frozen      — MpcOptions::sensorFrozenPeriods consecutive
 *                   bitwise-identical measurements.
 *
 * On a bad verdict the caller demotes the robot to its BackupPlan tail
 * for the period (core::Controller::step reports BadInput;
 * BatchController reports ServedFromBackup and never dispatches the
 * solve). The gate is deliberately deterministic — pure arithmetic on
 * the measurement and the last accepted one — so gated chaos campaigns
 * replay bitwise.
 *
 * One instance per robot; not thread-safe.
 */

#ifndef ROBOX_MPC_SENSOR_GATE_HH
#define ROBOX_MPC_SENSOR_GATE_HH

#include <cstdint>

#include "dsl/model_spec.hh"
#include "linalg/matrix.hh"
#include "mpc/options.hh"
#include "support/checkpoint.hh"

namespace robox::mpc
{

/** Outcome of one gate check, ordered by check sequence. */
enum class SensorVerdict
{
    Ok,         //!< Plausible; the solve may proceed.
    NonFinite,  //!< NaN/Inf component.
    OutOfRange, //!< Outside the state box bounds plus margin.
    Jump,       //!< Implausibly large inter-period change.
    Frozen,     //!< Sensor repeating the same word for too long.
};

/** Human-readable verdict name (stable, greppable). */
const char *toString(SensorVerdict verdict);

/** Stateful per-robot plausibility gate; see the file comment. */
class SensorGate
{
  public:
    SensorGate(const dsl::ModelSpec &model, const MpcOptions &options);

    /**
     * Check one measured state. Ok (and Frozen, whose value is
     * individually plausible) updates the jump baseline; NonFinite,
     * OutOfRange, and Jump leave it at the last accepted measurement
     * so a transient spike is rejected without shifting the baseline.
     * A jump that persists for kJumpRehomePeriods consecutive checks
     * re-homes the baseline to the current measurement (the robot
     * really is somewhere new — e.g. it was teleported or re-localized
     * — and refusing forever would starve it).
     */
    SensorVerdict check(const Vector &x);

    /** Forget the baseline and streaks (e.g. after Controller::reset). */
    void reset();

    /** Verdict of the most recent check(). */
    SensorVerdict lastVerdict() const { return last_verdict_; }

    /** Lifetime count of non-Ok verdicts. */
    std::uint64_t rejected() const { return rejected_; }

    /** Consecutive Jump verdicts before the baseline re-homes. */
    static constexpr int kJumpRehomePeriods = 3;

    /** Serialize the baseline and every streak counter, so a restored
     *  gate continues frozen/jump streaks exactly where they stood —
     *  neither resetting them nor double-counting. */
    void checkpoint(support::CheckpointWriter &w) const;

    /** Restore state written by checkpoint(); false on a short
     *  payload (the gate is reset() in that case). */
    bool restore(support::CheckpointReader &r);

  private:
    template <class Io, class Self>
    static bool transfer(Io &io, Self &self); //!< Checkpointed fields.

    const dsl::ModelSpec *model_;
    double range_margin_;
    double jump_threshold_;
    int frozen_periods_;

    Vector baseline_;        //!< Last accepted measurement.
    bool has_baseline_ = false;
    int frozen_streak_ = 0;  //!< Consecutive identical measurements.
    int jump_streak_ = 0;    //!< Consecutive Jump verdicts.
    SensorVerdict last_verdict_ = SensorVerdict::Ok;
    std::uint64_t rejected_ = 0;
};

} // namespace robox::mpc

#endif // ROBOX_MPC_SENSOR_GATE_HH
