/**
 * @file
 * Deterministic lossy link layer between each robot and the
 * BatchController (degraded-comms fleet serving).
 *
 * Every hardened layer below this one (solver failsafe, sensor gate,
 * overload ladder) assumed the wire between robot and controller is
 * perfect. Real deployments lose, delay, duplicate, and reorder
 * messages; this module models that wire explicitly, in virtual time,
 * so the rest of the stack can be engineered — and regression-tested —
 * against it.
 *
 * Protocol (lockstep with the batch period; one period == one batch):
 *
 *  - Uplink (robot -> controller): each period every robot transmits a
 *    sequence-numbered state measurement (seq == period) carrying a
 *    piggybacked ack of the newest plan it holds. A fresh measurement
 *    always supersedes an old one, so uplinks are never retransmitted;
 *    any delivery (fresh or stale) also serves as the heartbeat.
 *  - Downlink (controller -> robot): after the batch solve, the
 *    controller transmits each solved robot's full input trajectory as
 *    a sequence-numbered plan (seq == the period its state was
 *    measured for). A plan that goes unacked is retransmitted with
 *    capped exponential backoff (1 period, doubling up to 8)
 *    whenever no fresh plan was produced that period — a robot being
 *    solved every period gets a fresh (newer) plan instead.
 *  - Robot side: delivered plans land in a per-robot plan buffer that
 *    reuses the BackupPlan tail discipline. When the plan for the
 *    current period arrives on time the robot executes its stage-0
 *    input (bitwise the solver's u0); when it misses, the robot
 *    executes the open-loop tail of the newest buffered plan, resuming
 *    `delay` stages in for late deliveries (BackupPlan::skip).
 *  - Controller side: a robot whose uplink missed is compensated by a
 *    bounded dynamics rollout from its last fresh state (applying the
 *    stages of the last computed plan) for up to 3 periods (the
 *    staleness bound); past the bound it is demoted through the
 *    existing admission ladder (ServedFromBackup), and once no uplink
 *    at all has been delivered for 6 periods the link is declared down
 *    and the robot is shed.
 *
 * Determinism contract: all channel impairments (drop / delay /
 * duplicate / blackout) are decided by a ChaosEngine's link channels —
 * pure splitmix64 hashes of (seed, direction, batch, robot, nonce) —
 * and every queue is owned and drained by the coordinating thread in
 * robot-index order, so a link storm replays bitwise across runs and
 * thread counts. With no ChaosEngine attached (or all rates zero) the
 * link is a perfect pass-through: BatchController results are bitwise
 * identical to the direct path, except that shed robots execute their
 * buffered tail instead of receiving the box-projected zero command
 * (the robot-side buffer acts autonomously; see ARCHITECTURE.md
 * "Degraded comms").
 */

#ifndef ROBOX_MPC_LINK_HH
#define ROBOX_MPC_LINK_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "dsl/model_spec.hh"
#include "linalg/matrix.hh"
#include "mpc/chaos.hh"
#include "mpc/failsafe.hh"
#include "mpc/options.hh"
#include "mpc/simulate.hh"
#include "support/checkpoint.hh"
#include "support/stats.hh"

namespace robox::mpc
{

/** Traffic counters of one link direction. */
struct LinkChannelReport
{
    std::uint64_t sent = 0;       //!< Transmissions (incl. dups).
    std::uint64_t dropped = 0;    //!< Transmissions lost.
    std::uint64_t delivered = 0;  //!< Messages delivered.
    std::uint64_t duplicates = 0; //!< Duplicate copies enqueued.
    std::uint64_t reordered = 0;  //!< Deliveries behind a newer seq.
};

/**
 * Link-health counters and virtual-time distributions. Everything here
 * is derived from virtual time (periods) and pure chaos decisions, so
 * it belongs in the replay-stable metrics snapshot — unlike wall-clock
 * fields, equal campaigns produce equal reports at any thread count.
 */
struct LinkReport
{
    LinkChannelReport uplink;   //!< Robot -> controller.
    LinkChannelReport downlink; //!< Controller -> robot.

    /** Plan retransmissions triggered by the ack/backoff schedule. */
    std::uint64_t retransmits = 0;
    /** Uplink deliveries that advanced the controller's acked seq. */
    std::uint64_t acksDelivered = 0;

    /** Robot-periods executed from the buffered open-loop tail
     *  because no fresh plan arrived by its delivery deadline. */
    std::uint64_t planMisses = 0;
    /** Controller-side bounded dynamics rollouts performed. */
    std::uint64_t statesExtrapolated = 0;
    /** Robot-periods demoted to backup because the newest delivered
     *  state aged past the 3-period staleness bound. */
    std::uint64_t staleDemotions = 0;
    /** Up -> down link transitions (heartbeat bound exceeded). */
    std::uint64_t linkDownEvents = 0;
    /** Down -> up link transitions (delivery resumed). */
    std::uint64_t linkUpEvents = 0;
    /** Robot-periods spent with the link down. */
    std::uint64_t linkDownRobotPeriods = 0;

    /** Delivery latency of every delivered message, both directions,
     *  in periods (0 = on time). */
    stats::Histogram deliveryLatency{"link_delivery_latency_periods",
                                     "Message delivery latency, periods",
                                     0.0, 16.0, 16};
    /** Age of the measurement each served robot was solved on, in
     *  periods (0 = fresh, >0 = extrapolated). */
    stats::Histogram staleness{"link_staleness_periods",
                               "Served measurement age, periods", 0.0,
                               16.0, 16};
};

/** Checkpoint every LinkReport counter and histogram as one field
 *  (support/checkpoint.hh). */
bool field(support::CheckpointWriter &w, const LinkReport &report);

/** Restore a LinkReport field; false on a short payload or
 *  histogram-shape mismatch. */
bool field(support::CheckpointReader &r, LinkReport &report);

/**
 * The duplex link fabric for one fleet: per-robot uplink/downlink
 * channels, robot-side plan buffers, and controller-side staleness /
 * ack / heartbeat state. Owned and driven by BatchController (or a
 * test harness) from the coordinating thread only; not thread-safe.
 *
 * Per-period call sequence:
 *   beginPeriod(p, measured, refs)   — transmit + drain uplinks,
 *                                      classify service per robot;
 *   [solve the Fresh/Extrapolated robots on servedStates()]
 *   sendPlan(i, inputs) per solved robot;
 *   finishPeriod()                   — retransmits, downlink drain,
 *                                      robot-side execution.
 */
class FleetLink
{
  public:
    /** What the controller can serve robot i this period. */
    enum class Service : std::uint8_t
    {
        Fresh,        //!< Uplink delivered this period; solve on it.
        Extrapolated, //!< Stale within bound; solve on the rollout.
        Stale,        //!< Past the staleness bound; demote to backup.
        Down,         //!< Heartbeat bound exceeded; shed.
    };

    /**
     * @param model The controller-owned model (binds actuator boxes
     *        and the extrapolation dynamics; must outlive the link).
     * @param options Link knobs (the link* fields) plus dt.
     * @param num_robots Fleet size.
     */
    FleetLink(const dsl::ModelSpec &model, const MpcOptions &options,
              std::size_t num_robots);

    /** Attach the chaos engine whose link channels impair the fabric
     *  (nullptr = perfect link). The engine must outlive the link;
     *  decisions key on its *current* batch index being kept in sync
     *  with the period passed to beginPeriod(). */
    void setChaos(const ChaosEngine *chaos) { chaos_ = chaos; }

    /**
     * Run the uplink half of one period: every robot transmits its
     * measurement (seq = period, piggybacking its plan ack), channels
     * decide drop/delay/duplicate, the controller drains deliveries in
     * robot-index order, and each robot is classified into a Service.
     * A missing or mis-sized measured[i] is transmitted as-is — input
     * validation downstream flags it BadInput exactly like the direct
     * path — but never becomes a fresh-state baseline.
     */
    void beginPeriod(std::uint64_t period,
                     const std::vector<Vector> &measured,
                     const std::vector<Vector> &refs);

    /** The state each robot is served on this period (size robots):
     *  the delivered measurement (Fresh), the bounded rollout
     *  (Extrapolated), or the last known state (Stale/Down — callers
     *  demote those robots rather than solving). */
    const std::vector<Vector> &servedStates() const { return served_; }

    Service service(std::size_t i) const { return service_[i]; }

    /** Periods since robot i's newest delivered state (0 = fresh this
     *  period); a large value when nothing was ever delivered. */
    std::uint64_t stalenessPeriods(std::size_t i) const;

    /** Transmit robot i's freshly computed plan (seq = the current
     *  period) and remember it for retransmits and extrapolation. */
    void sendPlan(std::size_t i, const std::vector<Vector> &inputs);

    /**
     * Run the downlink half of the period: retransmit unacked plans
     * whose backoff timer fired (for robots that got no fresh plan),
     * drain deliveries into the robot-side plan buffers, and compute
     * what each robot actually executes this period.
     */
    void finishPeriod();

    /** True when robot i executed the stage-0 input of a plan
     *  delivered on time this period (the solver's u0, bitwise). */
    bool executedFreshPlan(std::size_t i) const
    {
        return fresh_exec_[i] != 0;
    }

    /** The command robot i executed this period when
     *  !executedFreshPlan(i): the buffered open-loop tail (or the
     *  box-projected zero command when no plan was ever delivered). */
    const Vector &executedCommand(std::size_t i) const
    {
        return exec_[i];
    }

    /** Robot i's plan buffer (tail depth via remainingTail() /
     *  stagesReplayed()). */
    const BackupPlan &planBuffer(std::size_t i) const
    {
        return buffers_[i];
    }

    /** Is robot i's link currently declared down? */
    bool isDown(std::size_t i) const { return down_[i] != 0; }

    // Per-period event flags for timeline markers (valid between
    // beginPeriod/finishPeriod and the next beginPeriod).
    bool wasExtrapolated(std::size_t i) const
    {
        return extrapolated_[i] != 0;
    }
    bool wasStaleDemoted(std::size_t i) const
    {
        return stale_demoted_[i] != 0;
    }
    bool wasPlanMissed(std::size_t i) const
    {
        return plan_missed_[i] != 0;
    }
    bool wentDown(std::size_t i) const { return went_down_[i] != 0; }
    bool cameUp(std::size_t i) const { return came_up_[i] != 0; }

    std::size_t numRobots() const { return buffers_.size(); }

    /** Write the lifetime link-health snapshot into `out`, reusing
     *  its storage. The per-robot latency/staleness histograms are
     *  combined with Histogram::merge in robot-index order, so the
     *  snapshot is deterministic and order-independent. */
    void report(LinkReport &out) const;

    /** Forget all protocol state (queues, buffers, seqs, backoff,
     *  link-down flags). Lifetime counters keep accumulating, matching
     *  BatchController::resetAll()'s contract. */
    void reset();

    /**
     * Serialize the complete protocol state: every in-flight message
     * (both directions), the controller-side seq/ack/backoff/staleness
     * state, the robot-side plan buffers, per-endpoint histograms, and
     * the lifetime counters. A link restored from this payload carries
     * every retransmit timer and reorder baseline forward, so a
     * resumed chaos campaign replays bitwise.
     */
    void checkpoint(support::CheckpointWriter &w) const;

    /** Restore state written by checkpoint(). Returns false — with
     *  the protocol state reset() and lifetime counters zeroed — when
     *  the payload's robot count or histogram shapes mismatch. */
    bool restore(support::CheckpointReader &r);

  private:
    template <class Io, class Self>
    static bool transfer(Io &io, Self &self); //!< Checkpointed fields.

    /** Sentinel for "no sequence number seen yet". */
    static constexpr std::uint64_t kNever = ~std::uint64_t{0};

    /** One message in flight, in either direction. */
    struct Message
    {
        /** The period the carried state was measured for (a plan's
         *  seq is that of the state it was solved on). */
        std::uint64_t seq = 0;
        std::uint64_t sent = 0;      //!< Transmission period.
        std::uint64_t deliverAt = 0; //!< Delivery period.
        std::uint64_t ackSeq = kNever; //!< Uplink: robot's newest plan.
        bool duplicate = false;
        Vector state;              //!< Uplink payload.
        std::vector<Vector> plan;  //!< Downlink payload.
    };

    /** Per-robot protocol state (controller and robot halves; both
     *  live here because the whole fabric is coordinator-driven). */
    struct Endpoint
    {
        /** Messages in flight, indexed by LinkDirection. */
        std::vector<Message> inFlight[2];

        // Controller side.
        std::uint64_t lastFreshSeq = kNever; //!< Newest delivered state.
        Vector lastFreshState;
        std::uint64_t lastAnyDelivery = kNever; //!< Heartbeat baseline.
        std::uint64_t maxUpSeqDelivered = kNever; //!< Reorder baseline.
        std::uint64_t lastPlanSeq = kNever; //!< Newest plan computed.
        std::vector<Vector> lastPlan;
        std::uint64_t ackedSeq = kNever; //!< Newest plan acked.
        std::uint64_t nextRetry = 0;     //!< Earliest retransmit period.
        std::uint64_t retryInterval = 0; //!< Current backoff, periods.
        bool planSentThisPeriod = false;

        // Robot side.
        std::uint64_t bufferedSeq = kNever; //!< Newest buffered plan.
        std::uint64_t maxDownSeqDelivered = kNever;

        // Per-robot histograms, merged into the report on demand.
        stats::Histogram latency{"link_delivery_latency_periods",
                                 "Message delivery latency, periods",
                                 0.0, 16.0, 16};
        stats::Histogram staleness{"link_staleness_periods",
                                   "Served measurement age, periods",
                                   0.0, 16.0, 16};
    };

    /** Transmit one message of robot i's link (and a possible
     *  duplicate copy) through the chaos channel: an uplink carries
     *  `state`, a downlink robot i's last computed plan. */
    void transmit(LinkDirection dir, std::size_t i, std::uint64_t seq,
                  const Vector &state = Vector());
    /** Deliver robot i's messages due this period in one direction:
     *  states and acks to the controller, plans into the robot-side
     *  buffer. */
    void drain(LinkDirection dir, std::size_t i);
    /** Classify robot i's service and build its served state. */
    void classify(std::size_t i, const std::vector<Vector> &measured,
                  const std::vector<Vector> &refs);

    const dsl::ModelSpec *model_;
    MpcOptions options_;
    const ChaosEngine *chaos_ = nullptr;
    Plant plant_; //!< Extrapolation integrator (coordinator only).

    std::uint64_t period_ = 0;
    std::vector<Endpoint> endpoints_;
    std::vector<BackupPlan> buffers_; //!< Robot-side plan buffers.
    std::vector<Vector> served_;      //!< Solver-input states.
    std::vector<Vector> exec_;        //!< Robot-executed commands.
    std::vector<Service> service_;
    std::vector<std::uint8_t> down_;
    std::vector<std::uint8_t> fresh_exec_;
    std::vector<std::uint8_t> extrapolated_;
    std::vector<std::uint8_t> stale_demoted_;
    std::vector<std::uint8_t> plan_missed_;
    std::vector<std::uint8_t> went_down_;
    std::vector<std::uint8_t> came_up_;

    LinkReport totals_; //!< Counters (histograms live per endpoint).
    Vector roll_x_, roll_u_, roll_ref_; //!< Extrapolation scratch.
    /** Delivered messages whose payload storage the next transmit
     *  reuses, so a warm link copies into buffers it already owns. */
    std::vector<Message> spare_;
    std::vector<Message> due_; //!< drain() scratch, kept between calls.
};

const char *toString(FleetLink::Service service);

} // namespace robox::mpc

#endif // ROBOX_MPC_LINK_HH
