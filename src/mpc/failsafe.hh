/**
 * @file
 * Graceful degradation helpers for the control layer.
 *
 * The solver reports structured SolveStatus outcomes (mpc/status.hh)
 * instead of throwing; this file supplies the policy side: what to
 * command the actuators when a solve is not usable. The answer —
 * standard in real-time MPC deployments (TinyMPC-style embedded
 * solvers use the same discipline) — is the time-shifted tail of the
 * last accepted plan: at the instant solve k fails, the plan accepted
 * at step k-1 already contains an input intended for the current
 * period, so BackupPlan replays it and keeps advancing along the tail
 * for consecutive failures, holding the final input (clamped to the
 * actuator box) once the tail is exhausted.
 *
 * SolverHealth aggregates solve outcomes and latency into the
 * support/stats framework so long-running fleets can report status
 * counts and p50/p99 solve time in the same greppable format as the
 * accelerator simulator.
 */

#ifndef ROBOX_MPC_FAILSAFE_HH
#define ROBOX_MPC_FAILSAFE_HH

#include <vector>

#include "dsl/model_spec.hh"
#include "linalg/matrix.hh"
#include "mpc/ipm.hh"
#include "mpc/status.hh"
#include "support/checkpoint.hh"
#include "support/stats.hh"

namespace robox::mpc
{

/**
 * Backup-command store: the time-shifted tail of the last accepted
 * plan. Not thread-safe; one instance per controlled robot.
 */
class BackupPlan
{
  public:
    /** Binds the actuator box the backup commands are clamped to. */
    explicit BackupPlan(const dsl::ModelSpec &model);

    /**
     * Record an accepted plan (the solver's N-stage input trajectory)
     * and reset the degradation streak. Storage is reused, so the
     * steady-state accept path performs no heap allocation once the
     * plan shape is stable.
     */
    void accept(const std::vector<Vector> &inputs);

    /**
     * The command to issue for the current (failed) period: the next
     * unused input of the stored tail, clamped to the actuator box,
     * advancing one stage per call. Falls back to holding the tail's
     * last input, and to the box-projected zero command when no plan
     * was ever accepted. Increments the degradation streak.
     */
    const Vector &command();

    /**
     * Advance the tail cursor by `stages` without issuing a command,
     * clamped to the final stage. Used by the link layer when a plan
     * is delivered late: the stages that elapsed while the message was
     * in flight were (open-loop) consumed by the plant, so the next
     * command() must resume that many stages into the tail.
     */
    void skip(std::size_t stages);

    /** True once accept() has stored at least one plan. */
    bool available() const { return !plan_.empty(); }

    /**
     * Distinct tail stages still unreplayed before command() pins to
     * the plan's final input: how much genuine open-loop plan is left.
     * 0 when no plan is stored or the cursor reached the last stage.
     */
    std::size_t remainingTail() const
    {
        if (plan_.empty())
            return 0;
        return plan_.size() - 1 - std::min(cursor_, plan_.size() - 1);
    }

    /** Distinct tail stages consumed since the last accept(): how deep
     *  into open-loop execution this plan is. Unlike
     *  consecutiveDegraded(), stops growing once the tail is pinned to
     *  its final stage. */
    std::size_t stagesReplayed() const
    {
        return plan_.empty() || cursor_ == 0 ? 0 : cursor_ - 1;
    }

    /** Backup commands issued since the last accept(). */
    int consecutiveDegraded() const { return consecutive_; }

    /** Total backup commands issued over this plan's lifetime. */
    int totalDegraded() const { return total_; }

    /** Forget the stored plan and the streak (e.g. after reset()). */
    void clear();

    /** Serialize the stored tail, cursor, and streak counters. */
    void checkpoint(support::CheckpointWriter &w) const;

    /** Restore state written by checkpoint(); false on a short or
     *  mismatched payload (the plan is left cleared in that case). */
    bool restore(support::CheckpointReader &r);

  private:
    template <class Io, class Self>
    static bool transfer(Io &io, Self &self); //!< Checkpointed fields.

    const dsl::ModelSpec *model_;
    std::vector<Vector> plan_; //!< Last accepted input trajectory.
    std::size_t cursor_ = 0;   //!< Next tail stage to replay.
    int consecutive_ = 0;
    int total_ = 0;
    Vector command_;           //!< Clamped command storage.
};

/**
 * Aggregated solver-health statistics for a run: per-status solve
 * counts, recovery-ladder activity, and a solve-latency histogram
 * whose percentiles (support/stats Histogram::percentile) are what a
 * deployment uses to pick MpcOptions::solveDeadlineSeconds.
 */
class SolverHealth
{
  public:
    /**
     * @param name Stat-group name (e.g. "solver_health").
     * @param latency_hi Upper edge of the latency histogram, seconds.
     */
    explicit SolverHealth(const std::string &name,
                          double latency_hi = 0.05);

    /** Record one solve outcome. */
    void record(const SolveStats &stats);

    /** Record a control-layer backup-command substitution. */
    void recordDegraded() { ++degraded_; }

    std::uint64_t solves() const
    {
        return static_cast<std::uint64_t>(solves_.value());
    }
    double statusCount(SolveStatus status) const;
    const stats::Histogram &latency() const { return latency_; }

    /** Render the group (gem5-style aligned dump). */
    std::string dump() const { return group_.dump(); }
    void reset() { group_.resetAll(); }

  private:
    stats::StatGroup group_;
    stats::Scalar solves_;
    stats::Scalar converged_;
    stats::Scalar maxIterations_;
    stats::Scalar deadlineMisses_;
    stats::Scalar numericFailures_;
    stats::Scalar diverged_;
    stats::Scalar badInput_;
    stats::Scalar numericDegraded_;
    stats::Scalar accelFaults_;
    stats::Scalar degradedBudget_;
    stats::Scalar servedFromBackup_;
    stats::Scalar shed_;
    stats::Scalar recoveryAttempts_;
    stats::Scalar coldRestarts_;
    stats::Scalar degraded_;
    stats::Scalar saturations_;
    stats::Scalar divByZeros_;
    stats::Scalar faultsInjected_;
    // Self-checking execution (MpcOptions::accelSelfCheck): on-line
    // detections and recovery-ladder activity, from
    // SolveStats::numeric.selfCheck.
    stats::Scalar parityErrors_;
    stats::Scalar watchdogTrips_;
    stats::Scalar accelReexecutions_;
    stats::Scalar accelReloads_;
    stats::Scalar accelCpuFallbacks_;
    stats::Histogram latency_;
};

} // namespace robox::mpc

#endif // ROBOX_MPC_FAILSAFE_HH
