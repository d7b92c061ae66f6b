/**
 * @file
 * Fleet serving timeline: what the batch controller did to every robot,
 * batch by batch, on a virtual-time axis.
 *
 * When enabled on a BatchController, each solveAll() appends one lane
 * entry per robot: a span for robots that were actually solved (full or
 * degraded budget) and an instant marker for robots served without a
 * solve (backup tail, shed, bad input, sensor-gate demotion), plus a
 * rung-change marker whenever a robot's admission decision differs
 * from the previous batch. The time axis is the controller's virtual
 * clock — batch periods accumulate from the admission cost model (the
 * same EWMA/CostHook numbers the ladder decides on), never from the
 * wall clock — so a campaign driven through setCostHook() exports a
 * byte-identical timeline across runs and thread counts.
 *
 * Export is Chrome trace-event JSON through the shared writer
 * (support/trace.hh): one process ("fleet"), one thread lane per robot
 * labeled "robot <i>", spans named by rung, markers named by event.
 */

#ifndef ROBOX_MPC_TIMELINE_HH
#define ROBOX_MPC_TIMELINE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mpc/status.hh"
#include "support/checkpoint.hh"

namespace robox::mpc
{

/** Public mirror of the batch controller's per-robot admission
 *  outcome (the ladder rung a robot was served on). */
enum class ServiceRung : std::uint8_t
{
    Full = 0, //!< Solved with base options.
    Degraded, //!< Solved with a tightened budget.
    Backup,   //!< Served from the backup-plan tail, no solve.
    Shed,     //!< No service at all.
    BadInput, //!< Rejected by input validation; backup command.
};

const char *toString(ServiceRung rung);

/** Instant (zero-duration) fleet events. */
enum class TimelineMarker : std::uint8_t
{
    RungChange,       //!< Admission decision differs from last batch.
    ServedFromBackup, //!< Overload ladder served the backup tail.
    Shed,             //!< Overload ladder shed the robot.
    BadInput,         //!< Input validation rejected the robot.
    SensorDemoted,    //!< Sensor gate demoted the robot pre-solve.

    // Degraded-comms events (mpc/link.hh); exported under the "link"
    // trace category so admission and comms lanes filter separately.
    PlanMissed,        //!< No fresh plan arrived; buffered tail executed.
    StateExtrapolated, //!< Served on a bounded dynamics rollout.
    StaleDemoted,      //!< Measurement aged past the staleness bound.
    LinkDown,          //!< Heartbeat bound exceeded; link declared down.
    LinkUp,            //!< Uplink delivery resumed after a down spell.

    // Live-upgrade events (mpc/upgrade.hh); exported under the
    // "upgrade" trace category. Campaign-level events land on robot
    // 0's lane; CanarySwitched is per-robot.
    UpgradeShadowStart, //!< Candidate accepted; shadow phase began.
    UpgradeCanaryStart, //!< Canary fraction switched to the candidate.
    UpgradeCommitted,   //!< Fleet-wide switch to the candidate.
    UpgradeRolledBack,  //!< Guard tripped; incumbent restored.
    UpgradeRejected,    //!< Candidate rejected while still shadowing.
    CanarySwitched,     //!< This robot now serves the candidate.
};

const char *toString(TimelineMarker marker);

/** Per-robot, per-batch records of fleet service. */
class FleetTimeline
{
  public:
    /** One solved robot in one batch (rung Full or Degraded). */
    struct SolveSpan
    {
        std::uint32_t robot = 0;
        std::uint64_t batch = 0;
        double startSeconds = 0.0;    //!< Virtual batch start.
        double durationSeconds = 0.0; //!< Modeled solve cost.
        ServiceRung rung = ServiceRung::Full;
        SolveStatus status = SolveStatus::Unsolved;
        int iterations = 0;
    };

    /** One instant event on a robot's lane. */
    struct Marker
    {
        std::uint32_t robot = 0;
        std::uint64_t batch = 0;
        double atSeconds = 0.0;
        TimelineMarker kind = TimelineMarker::RungChange;
        ServiceRung from = ServiceRung::Full; //!< RungChange only.
        ServiceRung to = ServiceRung::Full;   //!< RungChange only.
    };

    void recordSpan(const SolveSpan &span) { spans_.push_back(span); }
    void recordMarker(const Marker &marker)
    {
        markers_.push_back(marker);
    }

    void clear()
    {
        spans_.clear();
        markers_.clear();
    }

    const std::vector<SolveSpan> &spans() const { return spans_; }
    const std::vector<Marker> &markers() const { return markers_; }
    bool empty() const { return spans_.empty() && markers_.empty(); }

    /**
     * Export as Chrome trace-event JSON: pid 0 ("fleet"), tid = robot
     * index (lanes labeled "robot <i>" and sorted by index), solve
     * spans as "X" events named by rung, markers as "i" events named
     * by kind; 1 virtual second = 1e6 trace microseconds. Equal record
     * sequences produce byte-identical JSON.
     */
    std::string toChromeJson() const;

    /** Write toChromeJson() to a file; fatal() on I/O failure. */
    void writeChromeJson(const std::string &path) const;

    /** Serialize every recorded span and marker (bitwise doubles). */
    void checkpoint(support::CheckpointWriter &w) const;

    /** Restore records written by checkpoint(); false — with the
     *  timeline cleared — on a short payload or out-of-range enum. */
    bool restore(support::CheckpointReader &r);

  private:
    template <class Io, class Self>
    static bool transfer(Io &io, Self &self); //!< Checkpointed fields.

    std::vector<SolveSpan> spans_;
    std::vector<Marker> markers_;
};

} // namespace robox::mpc

#endif // ROBOX_MPC_TIMELINE_HH
