/**
 * @file
 * Batched multi-robot MPC: one controller instance per robot, solved
 * across a fixed pool of worker threads.
 *
 * The paper's deployment target is a fleet setting where
 * one host controls many plants at a fixed control rate. Because a
 * warmed-up IpmSolver is allocation-free (see ipm.hh), the per-robot
 * solve is pure compute and scales across cores; BatchController
 * provides that scaling without giving up reproducibility.
 *
 * Threading and determinism contract:
 *  - Robot i is ALWAYS solved by solver instance i, whichever worker
 *    thread claims it. All mutable solve state (trajectories, slacks,
 *    workspaces, backup plans, sensor gates) lives inside that robot's
 *    slot, and slots share nothing, so results are bitwise identical
 *    to solving the robots serially in index order — thread count and
 *    scheduling only change wall time, never output.
 *  - solveAll() is synchronous: workers are parked between batches and
 *    the call returns only after every robot's solve finished.
 *  - BatchController itself is not thread-safe: call solveAll(),
 *    resetAll(), and the accessors from one coordinating thread.
 *
 * Overload management (MpcOptions::batchDeadlineSeconds >= 0):
 * solveAll() runs an admission pass before dispatching. A per-robot
 * EWMA solve-cost model (fed by SolveStats::solveSeconds, or by an
 * injected virtual-time hook) projects the batch's wall cost; when the
 * projection exceeds the budget, service degrades in explicit rungs:
 *
 *   admit -> degrade (tightened iteration/deadline budget,
 *            SolveStatus::DegradedBudget)
 *         -> backup  (serve the BackupPlan tail, no solve,
 *            SolveStatus::ServedFromBackup)
 *         -> shed    (no service at all, SolveStatus::Shed)
 *
 * Robots are protected in descending setPriority() order (ties keep
 * the lower index); degradation and shedding start from the lowest
 * priority. Robots the admission pass admits at full budget are solved
 * with their base options and remain bitwise identical to an unloaded
 * serial solve — only the admission *decisions* depend on the measured
 * load, and a campaign that injects virtual time through setCostHook()
 * replays bitwise across runs and thread counts (pin
 * MpcOptions::overloadParallelism for the latter). See the "Overload
 * ladder" section of ARCHITECTURE.md.
 */

#ifndef ROBOX_MPC_BATCH_HH
#define ROBOX_MPC_BATCH_HH

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "mpc/failsafe.hh"
#include "mpc/flight_recorder.hh"
#include "mpc/ipm.hh"
#include "mpc/link.hh"
#include "mpc/sensor_gate.hh"
#include "mpc/status.hh"
#include "mpc/timeline.hh"
#include "support/checkpoint.hh"
#include "support/stats.hh"

namespace robox::mpc
{

/** Overload-management outcome of the batch controller: admission
 *  decisions, budget utilization, and batch-latency percentiles. */
struct OverloadReport
{
    /** The configured batch budget (< 0 when admission is off). */
    double budgetSeconds = -1.0;
    /** Pre-admission projected wall cost of the last batch, from the
     *  EWMA cost model (0 until the model has measurements). */
    double projectedSeconds = 0.0;
    /** Projected wall cost of the work actually dispatched after the
     *  admission ladder ran. At most ~budgetSeconds when admission is
     *  active and the model is warm. */
    double admittedSeconds = 0.0;
    /** lastBatchSeconds / budgetSeconds (0 when admission is off). */
    double utilization = 0.0;
    /** Batches whose pre-admission projection exceeded the budget. */
    std::uint64_t overloadedBatches = 0;

    /** Robots demoted pre-solve by the sensor gate in the last batch
     *  (a subset of its ServedFromBackup robots; the other last-batch
     *  decisions are BatchReport::lastBatch(status)). */
    std::uint64_t lastBatchPoisoned = 0;

    /** Lifetime counts of the DegradedBudget, ServedFromBackup, Shed
     *  and BadInput statuses, and of sensor-gate demotions. */
    std::uint64_t degraded = 0;
    std::uint64_t servedFromBackup = 0;
    std::uint64_t shed = 0;
    std::uint64_t badInput = 0;
    std::uint64_t poisoned = 0;

    /** Batch wall-time distribution; p50/p99 via
     *  Histogram::percentile(0.5/0.99). */
    stats::Histogram batchLatency;

    /** Link-health snapshot (all zero unless MpcOptions::linkEnabled).
     *  Virtual-time-derived, so unlike the wall fields it belongs in
     *  the replay-stable metrics snapshot. */
    LinkReport link;
};

/** Aggregate statistics over the controller's lifetime, refreshed by
 *  each solveAll() call. */
struct BatchReport
{
    std::size_t robots = 0;
    std::size_t threads = 0;          //!< Worker threads (0 = inline).
    std::uint64_t batches = 0;        //!< solveAll() calls so far.
    /** Robot-solves so far: robots whose solver ran (not those shed,
     *  served from backup, refused as bad input or quarantined). */
    std::uint64_t solves = 0;
    std::uint64_t totalIterations = 0;   //!< Summed IPM iterations.
    std::uint64_t totalKktFlops = 0;     //!< Summed KKT-backend flops.
    std::uint64_t unconverged = 0;       //!< Solves that hit maxIterations.
    double lastBatchSeconds = 0.0;       //!< Wall time of the last batch.
    double totalBatchSeconds = 0.0;      //!< Summed batch wall time.
    double robotsPerSecond = 0.0;        //!< Throughput of the last batch.
    /** Heap allocations during the last batch, summed over robots
     *  (counted per solving thread; see support/alloc_hook.hh). Zero
     *  once every solver is warm. */
    std::uint64_t lastBatchAllocations = 0;
    /** Per-robot status of the last batch (size robots). Faults are
     *  isolated: one robot's failure never perturbs the others. This
     *  is the one tally of last-batch outcomes; the lifetime counts
     *  below are summed from it. */
    std::vector<SolveStatus> statuses;

    /** Robots in the last batch whose status was `status`. */
    std::uint64_t lastBatch(SolveStatus status) const
    {
        return static_cast<std::uint64_t>(
            std::count(statuses.begin(), statuses.end(), status));
    }
    /** Robots in the last batch whose status was not usable (includes
     *  robots served from backup or shed by the overload ladder; 0
     *  before the first batch). */
    std::uint64_t lastBatchFailures() const
    {
        return static_cast<std::uint64_t>(std::count_if(
            statuses.begin(), statuses.end(), [](SolveStatus s) {
                return s != SolveStatus::Unsolved && !statusUsable(s);
            }));
    }

    /** Lifetime count of non-usable solves. */
    std::uint64_t failures = 0;

    /**
     * Unexpected exceptions escaping a robot's solve in the last batch.
     * Such a robot is quarantined (SolveStatus::NumericFailure plus its
     * backup command, zero iterations and objective) and counts as
     * unsolved in the totals above; the batch completes and nothing
     * is rethrown — the serving loop must outlive any single robot's
     * bug. The lowest throwing robot's index and message are kept for
     * postmortems.
     */
    std::uint64_t lastBatchExceptions = 0;
    /** Lifetime count of quarantined exceptions. */
    std::uint64_t exceptions = 0;
    /** Lowest robot index that threw in the last batch (-1 = none). */
    std::int64_t lastExceptionRobot = -1;
    /** what() of that robot's exception (empty = none). */
    std::string lastExceptionMessage;

    /**
     * Fixed-point numeric events of the last batch, summed over every
     * robot's SolveStats::numeric (each solve's delta of its thread's
     * Fixed counters). The counters themselves are thread-local to
     * whichever worker ran the solve, so reading Fixed::saturationCount()
     * from the coordinating thread would see none of them; these sums
     * are the batch totals. All zero when MpcOptions::fixedPointTapes
     * is off.
     */
    std::uint64_t lastBatchSaturations = 0;
    std::uint64_t lastBatchDivByZeros = 0;
    std::uint64_t lastBatchFaultsInjected = 0;
    /** Lifetime sums of the per-batch numeric events above. */
    std::uint64_t saturations = 0;
    std::uint64_t divByZeros = 0;
    std::uint64_t faultsInjected = 0;
    /** Lifetime AccelFault solves (the self-check recovery ladder hit
     *  the CPU-fallback rung). */
    std::uint64_t accelFaults = 0;

    /**
     * Self-checking execution detections and recovery-ladder activity
     * (MpcOptions::accelSelfCheck), summed over every robot's
     * SolveStats::numeric.selfCheck. All zero with self-checking off.
     */
    SelfCheckStats lastBatchSelfCheck;
    /** Lifetime sums of the per-batch self-check counters above. */
    SelfCheckStats selfCheck;

    /** Overload-management decisions and budget accounting. */
    OverloadReport overload;
};

/**
 * Fixed worker-pool controller for N independent robots sharing one
 * model and option set.
 */
class BatchController
{
  public:
    /** Solve-cost model override: maps (robot, measured seconds) to
     *  the cost fed into the robot's EWMA. A chaos harness injects
     *  virtual time here so admission decisions replay bitwise. */
    using CostHook = std::function<double(std::size_t, double)>;
    /** Called on the worker thread immediately before a robot's
     *  solve; a chaos harness injects real stalls here. Must not
     *  touch controller state. */
    using StallHook = std::function<void(std::size_t)>;

    /**
     * Build num_robots solver instances and (for num_threads > 1) a
     * parked pool of num_threads workers. num_threads is clamped to
     * num_robots; num_threads <= 1 solves inline on the caller thread.
     */
    BatchController(const dsl::ModelSpec &model,
                    const MpcOptions &options, std::size_t num_robots,
                    std::size_t num_threads);
    ~BatchController();

    BatchController(const BatchController &) = delete;
    BatchController &operator=(const BatchController &) = delete;

    /**
     * Solve every robot's MPC problem: states[i] and refs[i] feed
     * solver i. Returns per-robot results in robot order (storage is
     * reused across batches; copy to keep a snapshot).
     *
     * Input-validation contract: a robot whose state/reference entry
     * is missing (short vectors) or wrongly sized gets
     * SolveStatus::BadInput and its backup command; the batch never
     * crashes on malformed inputs. Entries beyond numRobots() are
     * ignored.
     *
     * Fault isolation contract: a robot whose solve fails (malformed
     * state, numeric breakdown, deadline miss) reports that failure in
     * its own Result::status and in report().statuses — the batch
     * still completes and every healthy robot's result is bitwise
     * identical to what a serial solve would produce. Even genuinely
     * unexpected exceptions (bugs, resource exhaustion) never escape
     * the serving path: the throwing robot is quarantined with
     * SolveStatus::NumericFailure and its backup command, and the
     * incident is recorded in report().lastBatchExceptions /
     * lastExceptionRobot / lastExceptionMessage for postmortems.
     */
    const std::vector<IpmSolver::Result> &
    solveAll(const std::vector<Vector> &states,
             const std::vector<Vector> &refs);

    /** Drop every solver's warm start, backup plan, and sensor-gate
     *  baseline. Lifetime counters in report() keep accumulating. */
    void resetAll();

    std::size_t numRobots() const { return solvers_.size(); }
    std::size_t numThreads() const { return workers_.size(); }

    /** Direct access to robot i's solver (e.g. for its lastStats()). */
    IpmSolver &solver(std::size_t i) { return *solvers_[i]; }
    const IpmSolver &solver(std::size_t i) const { return *solvers_[i]; }

    /** Robot i's backup plan (the overload ladder's rung-2 source). */
    const BackupPlan &backup(std::size_t i) const { return backups_[i]; }

    /** Robot i's sensor gate (stateful plausibility checks). */
    const SensorGate &gate(std::size_t i) const { return gates_[i]; }

    /**
     * The degraded-comms link fabric, present when
     * MpcOptions::linkEnabled (nullptr otherwise). When present,
     * solveAll() routes all fleet I/O through it: measurements arrive
     * as sequence-numbered uplinks (solving against the delivered,
     * extrapolated, or demoted view), computed plans leave as acked /
     * retransmitted downlinks, and a robot's effective command is what
     * its side of the link actually executed. See mpc/link.hh.
     */
    const FleetLink *link() const { return link_.get(); }

    /** Attach the chaos engine whose link channels impair the fabric;
     *  no-op unless MpcOptions::linkEnabled. */
    void setLinkChaos(const ChaosEngine *chaos)
    {
        if (link_)
            link_->setChaos(chaos);
    }

    /**
     * Admission priority of robot i (default 0). Higher priorities are
     * protected longer by the overload ladder; degradation, backup
     * demotion, and shedding start from the lowest priority (ties
     * demote the higher index first).
     */
    void setPriority(std::size_t i, double priority);
    double priority(std::size_t i) const { return priority_[i]; }

    /** Current EWMA solve-cost estimate for robot i, seconds (0 until
     *  the robot has been measured at least once). */
    double costEstimate(std::size_t i) const { return ewma_[i]; }

    /** Install a solve-cost model override (see CostHook). While a
     *  hook is installed the admission pass stops applying real
     *  wall-clock deadlines to degraded robots and degrades purely
     *  via the (deterministic) iteration cap, so campaigns replay
     *  bitwise. Pass nullptr to restore measured time. */
    void setCostHook(CostHook hook) { cost_hook_ = std::move(hook); }

    /** Install a pre-solve worker callback (see StallHook). */
    void setStallHook(StallHook hook) { stall_hook_ = std::move(hook); }

    /** Lifetime statistics, refreshed after each solveAll(). */
    const BatchReport &report() const { return report_; }

    /**
     * Record the fleet serving timeline (see mpc/timeline.hh). Off by
     * default; recording appends a handful of records per robot per
     * batch on the coordinating thread, after the batch drained, so it
     * never perturbs solve results. The virtual clock keeps running
     * while recording is off, so a late enable still lands on the
     * campaign's time axis.
     */
    void enableTimeline(bool on) { timeline_enabled_ = on; }

    /** The recorded fleet timeline (empty until enableTimeline). */
    const FleetTimeline &timeline() const { return timeline_; }

    /** Drop all recorded timeline records (the virtual clock and
     *  rung-change baselines are preserved). */
    void clearTimeline() { timeline_.clear(); }

    /**
     * The black-box flight recorder: a bounded ring of the most recent
     * per-robot service records (rung, sensor verdict, link service,
     * status, state, command), appended by the coordinator after each
     * batch when MpcOptions::flightRecorderCapacity > 0. Rides inside
     * every checkpoint so a postmortem of a crashed or corrupted fleet
     * can replay the final moments; dump with
     * flightRecorder().toJson().
     */
    const FlightRecorder &flightRecorder() const { return recorder_; }

    /**
     * Serialize the complete resumable serving state: every robot's
     * solver warm start, backup plan, and sensor gate; the admission
     * cost model, priorities, and rung-change baselines; the virtual
     * clock; the lifetime report (histograms included); the link
     * fabric's full protocol state; recorded timeline; and the flight
     * recorder. A controller restored from this payload and fed the
     * same subsequent inputs produces bitwise-identical results and
     * replay-stable metrics to one that never stopped.
     */
    void checkpoint(support::CheckpointWriter &w) const;

    /**
     * Restore from a checkpoint() payload. Returns false — leaving the
     * controller in a clean cold-start state (resetAll semantics plus
     * zeroed lifetime counters) — when the payload's layout does not
     * match this controller's configuration (robot count, horizon,
     * link enablement, histogram shapes). Never throws on bad bytes;
     * header-level corruption is already rejected by CheckpointReader.
     */
    bool restore(support::CheckpointReader &r);

  private:
    template <class Io, class Self>
    static bool transfer(Io &io, Self &self); //!< Checkpointed fields.

    void workerLoop();
    /** Claim-and-solve until the batch's index queue is empty. */
    void drainQueue();
    /** Validate per-robot inputs and run the sensor gates. */
    void validateInputs();
    /** The admission ladder: fills decisions_/scale_ and the
     *  projection fields of report_.overload. */
    void runAdmission();
    /** Apply per-robot budget overrides for this batch's decisions. */
    void applyBudgets();
    /** Serve robot i without solving (Backup/Shed/BadInput). */
    void serveLocal(std::size_t i);
    /** Solve robot i and apply the per-robot failsafe/relabeling. */
    void solveOne(std::size_t i);
    /** Fold measured (or injected) solve costs into the EWMA model. */
    void updateCostModel();
    /** Downlink half of a link-enabled batch: transmit fresh plans,
     *  run retransmits and robot-side execution, and relabel robots
     *  whose plan missed its delivery deadline. */
    void finishLinkPeriod();
    /** Append this batch's spans/markers and advance the virtual
     *  clock; runs on the coordinating thread after updateCostModel. */
    void recordTimeline();
    /** Append one flight-recorder record per robot for this batch;
     *  coordinator only, after the batch drained. */
    void recordFlight();
    /** Return to the as-constructed state (resetAll plus zeroed
     *  lifetime counters); the landing spot of a failed restore(). */
    void coldStart();

    std::vector<std::unique_ptr<IpmSolver>> solvers_;
    std::vector<IpmSolver::Result> results_;
    std::vector<BackupPlan> backups_;
    std::vector<SensorGate> gates_;
    std::unique_ptr<FleetLink> link_; //!< Present iff linkEnabled.
    BatchReport report_;

    MpcOptions options_;   //!< Shared options (base budget values).
    std::vector<double> priority_;
    std::vector<double> ewma_;      //!< Per-robot cost model, seconds.
    std::vector<ServiceRung> decisions_; //!< This batch's admissions.
    /** 1 when robot i's solver returned this batch (and the robot was
     *  not quarantined): only then are its lastStats() this batch's. */
    std::vector<std::uint8_t> solved_;
    std::vector<double> scale_;     //!< Budget scale for Degraded.
    std::vector<std::size_t> order_; //!< Admission service order scratch.
    CostHook cost_hook_;
    StallHook stall_hook_;

    // Fleet timeline state (all touched only by the coordinator).
    bool timeline_enabled_ = false;
    FleetTimeline timeline_;
    double virtual_now_ = 0.0; //!< Virtual campaign time, seconds.
    std::vector<ServiceRung> prev_decisions_; //!< Rung-change baseline.
    std::vector<std::uint8_t> poisoned_; //!< Sensor-gate demotions.
    std::vector<double> batch_cost_; //!< Modeled cost of this batch.

    FlightRecorder recorder_; //!< Black-box ring (coordinator only).
    FlightRecord flight_;     //!< Reused record storage for recordFlight.

    // Current batch inputs (valid only while solveAll is running).
    const std::vector<Vector> *states_ = nullptr;
    const std::vector<Vector> *refs_ = nullptr;
    std::atomic<std::size_t> next_{0}; //!< Next unclaimed robot index.
    std::exception_ptr error_;
    std::size_t error_robot_ = 0; //!< Lowest robot index that threw.
    std::uint64_t thrown_ = 0;    //!< Robots that threw this batch.

    // Worker pool: workers park on cv_work_ between batches; a batch
    // is announced by bumping generation_ under the mutex.
    std::vector<std::thread> workers_;
    std::mutex mutex_;
    std::condition_variable cv_work_;
    std::condition_variable cv_done_;
    std::uint64_t generation_ = 0;
    std::size_t pending_ = 0; //!< Workers still draining this batch.
    bool stop_ = false;
};

/**
 * Render a BatchReport in the uniform metrics schema of
 * stats::StatGroup::toJson() (group name "batch"): lifetime counters,
 * last-batch decision counts, and the overload ladder's accounting.
 *
 * include_timing=false omits every environment-dependent field (the
 * worker-pool size, batch seconds, throughput, utilization, the
 * latency histogram) so campaign snapshots driven by a virtual-time
 * cost hook diff byte-identically across runs and thread counts.
 */
std::string batchMetricsJson(const BatchReport &report,
                             bool include_timing = true);

} // namespace robox::mpc

#endif // ROBOX_MPC_BATCH_HH
