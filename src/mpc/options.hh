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

/** EWMA smoothing factor of the per-robot solve-cost model that feeds
 *  batch admission. */
inline constexpr double kCostEwmaAlpha = 0.3;

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

    /**
     * Parallelism the admission pass assumes when projecting batch
     * wall cost (projection = summed per-robot cost / parallelism).
     * Zero (the default) uses the actual worker count; pin a positive
     * value to make admission decisions independent of the machine's
     * thread count (required for bitwise-replayable chaos campaigns).
     */
    int overloadParallelism = 0;

    /** Estimated cost of serving one robot from its backup plan,
     *  charged against the batch budget by the admission pass. */
    double overloadBackupCostSeconds = 2e-5;

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
     * the outputs compared. Divergence beyond the warn band (1e-2) is
     * counted in SolveStats::numeric; divergence beyond the fail band
     * (0.25 absolute AND 5% relative) marks the solve
     * SolveStatus::NumericDegraded so the failsafe ladder replaces the
     * command. This is the detection half of the fault-injection
     * harness; it roughly doubles tape-evaluation cost, so it is a
     * validation/diagnostic mode rather than a deployment default.
     * Only meaningful with fixedPointTapes.
     */
    bool crossCheckFixedPoint = false;

    /**
     * Self-checking accelerator execution for the fixed-point tape
     * path: every quantized environment word carries a parity bit
     * computed at host write time and verified when the accelerator
     * reads it, so an upset is caught at first use instead of flowing
     * silently into the iterate. A detection engages the recovery
     * ladder: re-execute the evaluation (up to twice, re-rolling the
     * deterministic fault hash each attempt), then a simulated
     * program-image reload with one more attempt, then the CPU
     * double-precision fallback — which marks the solve
     * SolveStatus::AccelFault so the failsafe ladder replaces the
     * command. With no faults injected the checks change nothing:
     * detection is pure overhead, never perturbation. Only meaningful
     * with fixedPointTapes.
     */
    bool accelSelfCheck = false;
};

} // namespace robox::mpc

#endif // ROBOX_MPC_OPTIONS_HH
