/**
 * @file
 * Black-box flight recorder for the serving layer.
 *
 * A fixed-capacity in-place ring of the most recent per-period
 * records — measured state, issued command, SolveStatus, admission
 * rung, sensor/link verdicts — in the same ring discipline as the
 * per-solve iteration trace (mpc/solve_trace.hh): pre-sized once by
 * configure(), written in place, never allocating on the hot path.
 *
 * The recorder is the "black box" of the crash-safe serving story
 * (support/checkpoint.hh): it is embedded in every checkpoint, so the
 * moments leading up to a crash survive the crash, and it is dumped as
 * a deterministic JSON postmortem whenever the failsafe ladder
 * exhausts or a restore rejects a torn/corrupt checkpoint. toJson() is
 * byte-deterministic (formatDouble/jsonNumber rendering), so postmortem
 * dumps can be diffed and golden-tested like every other artifact.
 */

#ifndef ROBOX_MPC_FLIGHT_RECORDER_HH
#define ROBOX_MPC_FLIGHT_RECORDER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "linalg/matrix.hh"
#include "mpc/status.hh"
#include "support/checkpoint.hh"

namespace robox::mpc
{

/** One control period of one robot, as the recorder saw it. */
struct FlightRecord
{
    std::uint64_t period = 0; //!< Virtual period (batch) index.
    std::int32_t robot = -1;  //!< Robot index; -1 for a single robot.
    SolveStatus status = SolveStatus::Unsolved;
    /** Admission-ladder decision (mpc/batch.hh Admit), -1 = n/a. */
    std::int32_t rung = -1;
    /** SensorGate verdict (mpc/sensor_gate.hh), -1 = unchecked. */
    std::int32_t sensorVerdict = -1;
    /** Link service verdict (mpc/link.hh), -1 = direct I/O. */
    std::int32_t linkService = -1;
    bool degraded = false; //!< Served by the failsafe/backup path.
    Vector state;          //!< Measured state fed to the period.
    Vector command;        //!< Command issued to the actuators.
};

/** Fixed-capacity ring of FlightRecords; see the file comment. */
class FlightRecorder
{
  public:
    /** Size (or resize) the ring; capacity 0 disables recording. */
    void configure(int capacity);

    /** Forget all records but keep the storage. */
    void clear();

    /** Append a record, overwriting the oldest when full. */
    void push(const FlightRecord &rec);

    bool enabled() const { return !ring_.empty(); }
    int capacity() const { return static_cast<int>(ring_.size()); }
    int size() const { return static_cast<int>(count_); }
    bool empty() const { return count_ == 0; }
    /** Records pushed since the last clear (>= size when wrapped). */
    std::uint64_t totalRecorded() const { return total_; }
    /** Records lost to ring wrap-around. */
    std::uint64_t dropped() const { return total_ - count_; }

    /** i-th retained record, oldest first (i in [0, size())). */
    const FlightRecord &record(int i) const;

    /**
     * Deterministic JSON postmortem: capacity/recorded/dropped plus
     * every retained record, oldest first. Equal recorder states
     * render byte-identical documents.
     */
    std::string toJson() const;

    /** Serialize the ring (bitwise doubles) into a checkpoint. */
    void checkpoint(support::CheckpointWriter &w) const;

    /** Restore state written by checkpoint(). The recorder must be
     *  configure()d with the same capacity; false (recorder cleared)
     *  on a mismatch or short payload. */
    bool restore(support::CheckpointReader &r);

  private:
    template <class Io, class Self>
    static bool transfer(Io &io, Self &self); //!< Checkpointed fields.

    /** Ring slot of the i-th retained record, oldest first. */
    std::size_t slot(std::size_t i) const
    {
        return (head_ + ring_.size() - count_ + i) % ring_.size();
    }

    std::vector<FlightRecord> ring_;
    std::size_t head_ = 0;  //!< Next write slot.
    std::size_t count_ = 0; //!< Retained records.
    std::uint64_t total_ = 0;
};

} // namespace robox::mpc

#endif // ROBOX_MPC_FLIGHT_RECORDER_HH
