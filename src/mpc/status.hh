/**
 * @file
 * Solver outcome taxonomy for the RoboX failsafe layer.
 *
 * RoboX targets hard real-time control loops (paper Sec. III/VII): the
 * controller must emit a command every period even when a solve goes
 * wrong. Instead of throwing on numeric trouble, every layer of the
 * solve stack (linalg kernels -> riccati/dense KKT -> IpmSolver ->
 * BatchController / core::Controller) reports one of these statuses,
 * and the control layer decides what command to issue (see
 * mpc/failsafe.hh and the "Failure taxonomy and recovery ladder"
 * section of ARCHITECTURE.md).
 */

#ifndef ROBOX_MPC_STATUS_HH
#define ROBOX_MPC_STATUS_HH

namespace robox::mpc
{

/** Outcome of one IpmSolver::solve() invocation. */
enum class SolveStatus
{
    /** No solve has run yet (freshly constructed Result/SolveStats). */
    Unsolved,
    /** Converged to tolerance; the plan is trustworthy. */
    Converged,
    /** Hit the iteration cap; the iterate is feasible but inexact. */
    MaxIterations,
    /** The wall-clock budget expired; the best iterate so far is
     *  returned (anytime MPC; see MpcProblem::setSolveDeadline). */
    DeadlineMiss,
    /** A KKT factorization failed and the recovery ladder was
     *  exhausted; the returned plan must not be trusted. */
    NumericFailure,
    /** Iterates blew past the solver's divergence threshold (1e12,
     *  inf-norm) or went NaN/Inf, and recovery failed; the plan must
     *  not be trusted. */
    Diverged,
    /** The measured state or reference contained NaN/Inf; the solve
     *  was refused before touching the warm start. */
    BadInput,
    /** The fixed-point accelerator path diverged from the golden
     *  double-precision model beyond the fail tolerance band (soft
     *  error, saturation cascade, or overflow); the plan must not be
     *  trusted. See MpcOptions::crossCheckFixedPoint. */
    NumericDegraded,
    /** The fixed-point tape path's self-checking execution (parity;
     *  see MpcOptions::accelSelfCheck) detected corruption that
     *  re-execution and reload could not clear — rung 3 of the
     *  accelerator recovery ladder. Evaluations after the escalation
     *  were served from the CPU double-precision fallback, but the
     *  iterate mixes pre- and post-detection arithmetic, so it is
     *  routed exactly like NumericDegraded: not trusted, failsafe
     *  ladder engaged. */
    AccelFault,
    /** The batch admission pass solved this robot under a tightened
     *  iteration/deadline budget to keep the fleet inside
     *  MpcOptions::batchDeadlineSeconds. The iterate is feasible but
     *  coarser than an unloaded solve (overload ladder rung 1; see
     *  mpc/batch.hh). */
    DegradedBudget,
    /** The robot was not solved this period: the admission pass (or
     *  the sensor gate) served the time-shifted tail of its last
     *  accepted plan instead (overload ladder rung 2). */
    ServedFromBackup,
    /** The robot was shed outright under extreme overload: no solve,
     *  no backup command (overload ladder rung 3). The caller should
     *  hold the previous actuation. */
    Shed,
};

/** Human-readable status name (stable, greppable). */
inline const char *
toString(SolveStatus status)
{
    switch (status) {
      case SolveStatus::Unsolved: return "unsolved";
      case SolveStatus::Converged: return "converged";
      case SolveStatus::MaxIterations: return "max-iterations";
      case SolveStatus::DeadlineMiss: return "deadline-miss";
      case SolveStatus::NumericFailure: return "numeric-failure";
      case SolveStatus::Diverged: return "diverged";
      case SolveStatus::BadInput: return "bad-input";
      case SolveStatus::NumericDegraded: return "numeric-degraded";
      case SolveStatus::AccelFault: return "accel-fault";
      case SolveStatus::DegradedBudget: return "degraded-budget";
      case SolveStatus::ServedFromBackup: return "served-from-backup";
      case SolveStatus::Shed: return "shed";
    }
    return "unknown";
}

/**
 * True when the status's iterate is safe to apply to actuators:
 * converged, iteration-capped, deadline-capped, and budget-degraded
 * solves all carry a strictly feasible (interior) iterate. Failure
 * statuses require the control layer to fall back to the backup
 * command instead. ServedFromBackup is deliberately not "usable": its
 * u0 is already the backup command, and treating it as a fresh plan
 * would re-accept stale inputs into the backup store.
 */
inline bool
statusUsable(SolveStatus status)
{
    return status == SolveStatus::Converged ||
           status == SolveStatus::MaxIterations ||
           status == SolveStatus::DeadlineMiss ||
           status == SolveStatus::DegradedBudget;
}

} // namespace robox::mpc

#endif // ROBOX_MPC_STATUS_HH
