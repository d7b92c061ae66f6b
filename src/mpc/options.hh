/**
 * @file
 * Solver meta-parameters for RoboX MPC.
 *
 * These are the user-provided meta-parameters of Sec. III (prediction
 * horizon length, controller rate, convergence criteria) plus the
 * interior-point tuning knobs the paper's parameterized solver template
 * fixes internally.
 */

#ifndef ROBOX_MPC_OPTIONS_HH
#define ROBOX_MPC_OPTIONS_HH

#include <cstdint>

namespace robox::mpc
{

/** Linear-system backend for the interior-point Newton steps. */
enum class KktSolver
{
    Riccati, //!< Stagewise Cholesky recursion, O(N) in the horizon.
    Dense,   //!< Full KKT assembly + elimination, O(N^3); ablation.
};

/** Integration scheme for discretizing the continuous dynamics. */
enum class Integrator
{
    Euler, //!< Explicit Euler: x+ = x + dt f(x, u).
    Rk4,   //!< Classic fourth-order Runge-Kutta.
};

/** Meta-parameters of one MPC controller instance. */
struct MpcOptions
{
    /** Prediction horizon length N (time steps). */
    int horizon = 32;

    /** Discretization/controller period in seconds. */
    double dt = 0.05;

    /** Integrator used to build the discrete dynamics. */
    Integrator integrator = Integrator::Euler;

    /** Newton-step linear solver (Riccati is the paper's choice). */
    KktSolver kktSolver = KktSolver::Riccati;

    /**
     * Use a Mehrotra-style predictor-corrector step: an affine
     * (mu = 0) solve sets the centering parameter adaptively and
     * contributes a second-order correction, typically cutting the
     * iteration count at the cost of two structured solves per
     * iteration.
     */
    bool predictorCorrector = false;

    /** Maximum interior-point iterations per controller invocation. */
    int maxIterations = 60;

    /** Convergence tolerance on step size and equality residuals. */
    double tolerance = 1e-6;

    /** Initial barrier parameter. */
    double muInit = 1e-1;

    /** Barrier parameter floor (also the complementarity target). */
    double muMin = 1e-9;

    /** Barrier reduction factor per accepted iteration. */
    double muShrink = 0.2;

    /** Fraction-to-boundary factor for slack/dual steps. */
    double fractionToBoundary = 0.995;

    /** Initial slack floor when initializing from the start trajectory. */
    double slackFloor = 1e-3;

    /** Levenberg regularization added when stage Hessians fail Cholesky. */
    double initialRegularization = 1e-8;

    /**
     * Per-solve wall-clock budget in seconds (anytime MPC). When
     * non-negative, solve() checks the deadline before each iteration
     * and, on expiry, returns the best strictly feasible iterate so
     * far flagged SolveStatus::DeadlineMiss. Zero means "already
     * expired": the warm-shifted previous plan is returned without
     * iterating. Negative (the default) disables the deadline.
     */
    double solveDeadlineSeconds = -1.0;

    /**
     * Iterate magnitude (inf-norm over states and inputs) beyond which
     * the solve is declared diverged and the recovery ladder runs.
     */
    double divergenceThreshold = 1e12;

    /**
     * Wall-clock budget for one BatchController::solveAll() call
     * (seconds). When non-negative, the batch admission pass projects
     * the batch cost from a per-robot EWMA solve-cost model and, when
     * the projection exceeds the budget, degrades service in explicit
     * rungs: tighten per-robot budgets (SolveStatus::DegradedBudget),
     * serve from the backup-plan tail (ServedFromBackup), shed
     * (Shed). Negative (the default) disables admission control.
     * See the "Overload ladder" section of ARCHITECTURE.md.
     */
    double batchDeadlineSeconds = -1.0;

    /** EWMA smoothing factor for the per-robot solve-cost model that
     *  feeds the batch admission pass (0 < alpha <= 1). */
    double overloadEwmaAlpha = 0.3;

    /**
     * Parallelism the admission pass assumes when projecting batch
     * wall cost (projection = summed per-robot cost / parallelism).
     * Zero (the default) uses the actual worker count; pin a positive
     * value to make admission decisions independent of the machine's
     * thread count (required for bitwise-replayable chaos campaigns).
     */
    int overloadParallelism = 0;

    /**
     * Lowest per-robot budget scale the degrade rung may apply before
     * the ladder escalates to serving robots from backup. A scale s
     * tightens a robot's deadline to s x its EWMA cost and its
     * iteration cap to s x maxIterations.
     */
    double overloadDegradeFloor = 0.25;

    /** Floor on the tightened per-robot iteration cap applied by the
     *  degrade rung. */
    int overloadMinIterations = 3;

    /** Estimated cost of serving one robot from its backup plan,
     *  charged against the batch budget by the admission pass. */
    double overloadBackupCostSeconds = 2e-5;

    /**
     * Multiplicative decay applied each batch to the EWMA cost of a
     * robot that was not freshly solved (served from backup or shed),
     * so demoted robots are eventually re-admitted, remeasured, and —
     * if still expensive — re-demoted.
     */
    double overloadRecoveryFactor = 0.5;

    /**
     * Sensor-gate range check: tolerated excursion beyond the model's
     * state box bounds, as a fraction of the bound span, before a
     * measurement is declared implausible and the robot is demoted to
     * its backup plan *before* the solve. Negative (default) disables
     * the range check. See mpc/sensor_gate.hh.
     */
    double sensorRangeMargin = -1.0;

    /** Sensor-gate jump check: maximum plausible inter-period change
     *  (inf-norm) of the measured state. Non-positive disables. */
    double sensorJumpThreshold = -1.0;

    /** Sensor-gate frozen check: consecutive bitwise-identical
     *  measurements before the sensor is declared frozen. Zero or
     *  negative disables. */
    int sensorFrozenPeriods = 0;

    /**
     * Route BatchController I/O through the deterministic lossy link
     * layer (mpc/link.hh): per-robot sequence-numbered state uplinks
     * and plan downlinks, with drop/delay/duplicate/reorder decided by
     * a ChaosEngine's link channels. Off (the default), solveAll()
     * consumes measurements and emits commands directly. With the link
     * enabled but every impairment rate zero, results are bitwise
     * identical to the direct path. See the "Degraded comms" section
     * of ARCHITECTURE.md.
     */
    bool linkEnabled = false;

    /**
     * Maximum age, in control periods, of the newest delivered state
     * the controller will still serve a robot on (compensated by a
     * bounded dynamics-rollout extrapolation when
     * linkExtrapolateState is set). A robot whose measurement is older
     * is demoted to its backup-plan tail (SolveStatus::ServedFromBackup)
     * instead of being served a solve against garbage.
     */
    int linkStalenessBoundPeriods = 3;

    /**
     * Heartbeat bound: consecutive periods without *any* delivered
     * uplink before the robot's link is declared down and the robot is
     * shed (SolveStatus::Shed) rather than served from an ever-staler
     * plan. Re-delivery brings the link back up immediately.
     */
    int linkDownPeriods = 6;

    /**
     * Controller-side compensation for a missing uplink: roll the
     * model dynamics forward from the last fresh state, applying the
     * stages of the last computed plan, for up to
     * linkStalenessBoundPeriods periods, and solve against the
     * extrapolated state. Off, a robot with a missing uplink is served
     * from its backup tail immediately.
     */
    bool linkExtrapolateState = true;

    /** Periods to wait before the first retransmit of an unacked plan
     *  downlink; subsequent retransmits back off exponentially. */
    int linkRetransmitBackoffBase = 1;

    /** Cap on the retransmit backoff interval, periods. */
    int linkRetransmitBackoffCap = 8;

    /**
     * Escalating in-solve recovery (the failsafe ladder): how many
     * regularization bumps to attempt when a KKT factorization fails
     * before escalating to a step backoff and then a cold restart.
     * See ARCHITECTURE.md "Failure taxonomy and recovery ladder".
     */
    int maxRegularizationBumps = 2;

    /** Factor applied to the KKT regularization on each bump. */
    double regularizationBumpFactor = 1e4;

    /** Cold restarts (warm-start reset + reinitialization) to attempt
     *  inside one solve() before giving up with a failure status. */
    int maxColdRestarts = 1;

    /** Relaxation half-width used to pose equality task constraints as
     *  two-sided inequalities. */
    double equalityRelaxation = 1e-6;

    /**
     * Capacity of the per-solve iteration trace ring
     * (SolveStats::trace): the last N interior-point iterations of
     * every solve are retained with their residuals, barrier value,
     * step lengths, regularization, and recovery-ladder activity. The
     * ring is pre-sized at solver construction and written in place, so
     * tracing stays on the allocation-free hot path. 0 disables
     * recording entirely.
     */
    int solveTraceCapacity = 64;

    /**
     * Capacity of the black-box flight recorder (mpc/flight_recorder):
     * a fixed-capacity in-place ring of the most recent per-period
     * records (state, command, status, admission rung, link/sensor
     * verdicts) kept by core::Controller and BatchController. The ring
     * is embedded in every checkpoint and dumped as a deterministic
     * JSON postmortem when the failsafe ladder exhausts or a restore
     * rejects a torn/corrupt checkpoint. 0 (the default) disables
     * recording.
     */
    int flightRecorderCapacity = 0;

    /**
     * Evaluate all problem tapes in the accelerator's Q14.17 fixed
     * point with LUT nonlinears instead of double precision. Used to
     * validate the paper's claim that 32-bit fixed point with 17
     * fractional bits leaves convergence unaffected (Sec. VIII-A).
     */
    bool fixedPointTapes = false;

    /** LUT entries per nonlinear function in fixed-point mode (the
     *  paper found 4096 sufficient; Sec. VIII-A). */
    int lutEntries = 4096;

    /**
     * Golden-model cross-check for the fixed-point path: every tape
     * evaluated in Q14.17 is also evaluated in double precision and
     * the outputs compared. Divergence beyond the warn band is counted
     * in SolveStats::numeric; divergence beyond the fail band (in
     * absolute AND relative terms) marks the solve
     * SolveStatus::NumericDegraded so the failsafe ladder replaces the
     * command. This is the detection half of the fault-injection
     * harness; it roughly doubles tape-evaluation cost, so it is a
     * validation/diagnostic mode rather than a deployment default.
     * Only meaningful with fixedPointTapes.
     */
    bool crossCheckFixedPoint = false;

    /** Absolute divergence beyond which a compared output counts as a
     *  tolerance warning. Sized well above honest Q14.17 rounding
     *  (LUT interpolation error is ~1e-4 on benchmark tapes). */
    double crossCheckWarnAbs = 1e-2;

    /**
     * Fail band: a compared output is a breach when it diverges by
     * more than crossCheckFailAbs AND more than crossCheckFailRel x
     * the golden magnitude. The conjunction keeps large-magnitude
     * Jacobian entries from tripping on rounding while still catching
     * a single upset bit above the low-order positions.
     */
    double crossCheckFailAbs = 0.25;

    /** Relative half of the fail band (see crossCheckFailAbs). */
    double crossCheckFailRel = 5e-2;

    /**
     * Self-checking accelerator execution for the fixed-point tape
     * path: every quantized environment word carries a parity bit
     * computed at host write time and verified when the accelerator
     * reads it, so an upset is caught at first use instead of flowing
     * silently into the iterate. A detection engages the recovery
     * ladder: re-execute the evaluation (up to accelMaxReexecutions,
     * re-rolling the deterministic fault hash each attempt), then a
     * simulated program-image reload with one more attempt, then the
     * CPU double-precision fallback — which marks the solve
     * SolveStatus::AccelFault so the failsafe ladder replaces the
     * command. With no faults injected the checks change nothing:
     * detection is pure overhead, never perturbation. Only meaningful
     * with fixedPointTapes.
     */
    bool accelSelfCheck = false;

    /** Recovery rung 1 depth: tape re-executions per detection before
     *  escalating to reload and then CPU fallback. */
    int accelMaxReexecutions = 2;

    /**
     * Live-upgrade staging (mpc/upgrade.hh): control periods a
     * scheduled candidate controller shadow-solves copies of the live
     * inputs — zero effect on commands — before any robot switches
     * over. See the "Live upgrades" section of ARCHITECTURE.md.
     */
    int upgradeShadowPeriods = 8;

    /** Control periods the deterministic canary fraction serves on the
     *  candidate before the fleet-wide commit. */
    int upgradeCanaryPeriods = 8;

    /** Fraction of the fleet selected (splitmix64 on upgradeSeed and
     *  the robot index) as canaries; clamped to (0, 1], and at least
     *  one robot is always selected. */
    double upgradeCanaryFraction = 0.25;

    /** Seed for the deterministic canary selection hash. */
    std::uint64_t upgradeSeed = 0;

    /**
     * Shadow/canary divergence warn band: absolute per-component
     * difference between the incumbent's and the candidate's first
     * commands beyond which a comparison counts as a warning
     * (mirrors crossCheckWarnAbs for the fixed-point path).
     */
    double upgradeWarnAbs = 1e-2;

    /**
     * Divergence fail band: a compared command component is a breach
     * when it diverges by more than upgradeFailAbs AND more than
     * upgradeFailRel x the incumbent magnitude. Any breach rejects a
     * shadowing candidate or rolls back a canarying one.
     */
    double upgradeFailAbs = 0.25;

    /** Relative half of the divergence fail band. */
    double upgradeFailRel = 5e-2;

    /**
     * Latency guard: the candidate is rolled back when its fleet-level
     * EWMA solve cost exceeds this multiple of the incumbent's (after
     * at least two periods of both models being warm).
     */
    double upgradeMaxCostRatio = 2.0;

    /**
     * Fault-rate guard: the candidate is rolled back when its rate of
     * bad solves (non-usable status, NumericDegraded, or AccelFault)
     * over the current phase exceeds the incumbent's by more than this
     * margin, once each version has at least a fleet-sized sample.
     */
    double upgradeFaultRateMargin = 0.10;
};

} // namespace robox::mpc

#endif // ROBOX_MPC_OPTIONS_HH
