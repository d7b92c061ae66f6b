/**
 * @file
 * MpcProblem: the discretized optimal-control problem compiled from a
 * ModelSpec.
 *
 * This performs the Program Translator's numerical half (Sec. VII):
 * it discretizes the continuous dynamics symbolically (Euler or RK4),
 * collects the running/terminal penalty residuals and inequality rows
 * (task constraints plus state/input box bounds), differentiates
 * everything with the symbolic engine, and compiles five tapes that the
 * solver (and later the accelerator workload builder) evaluate per
 * stage:
 *
 *  - dynamics tape:   [F, dF/dx, dF/du](x, u, ref)
 *  - running cost:    [r, dr/dx, dr/du](x, u, ref)
 *  - terminal cost:   [t, dt/dx](x, ref)
 *  - running ineq:    [h, dh/dx, dh/du](x, u, ref)
 *  - terminal ineq:   [ht, dht/dx](x, ref)
 */

#ifndef ROBOX_MPC_PROBLEM_HH
#define ROBOX_MPC_PROBLEM_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "dsl/model_spec.hh"
#include "fixed/health.hh"
#include "linalg/matrix.hh"
#include "mpc/options.hh"
#include "sym/tape.hh"

#include <memory>

namespace robox::mpc
{

/** Evaluated stage data filled by MpcProblem::eval* methods. */
struct StageEval
{
    Vector value;  //!< Function value (F, r, or h).
    Matrix jx;     //!< Jacobian with respect to x.
    Matrix ju;     //!< Jacobian with respect to u (running only).
    /**
     * sym::Tape::serial() of the tape whose constant outputs value, jx
     * and ju hold, or 0. While it names the evaluated tape and the
     * shapes fit, an evaluation writes only the tape's computed
     * outputs; code that writes into a StageEval itself sets it to 0.
     */
    std::uint64_t tapeSerial = 0;
};

/**
 * Per row of a stage tape, its Jacobian columns that are not the
 * compile-time constant 0, ascending. Every other entry of the row is
 * 0 at any (x, u, ref).
 */
struct JacobianPattern
{
    std::vector<std::vector<int>> x; //!< Nonzero d/dx columns per row.
    std::vector<std::vector<int>> u; //!< Nonzero d/du columns per row.
};

/** The discretized problem with compiled evaluation tapes. */
class MpcProblem
{
  public:
    MpcProblem(const dsl::ModelSpec &model, const MpcOptions &options);

    int nx() const { return nx_; }
    int nu() const { return nu_; }
    int nref() const { return nref_; }
    int horizon() const { return options_.horizon; }
    const MpcOptions &options() const { return options_; }
    const dsl::ModelSpec &model() const { return model_; }

    /**
     * Set the per-solve wall-clock budget in seconds (anytime MPC: the
     * budget is typically whatever slack remains in the current
     * control period). When non-negative, solve() checks the deadline
     * before each iteration and, on expiry, returns the best strictly
     * feasible iterate so far flagged SolveStatus::DeadlineMiss. Zero
     * means "already expired": the warm-shifted previous plan is
     * returned without iterating. Negative, as constructed, disables
     * the deadline.
     */
    void setSolveDeadline(double seconds)
    {
        solve_deadline_seconds_ = seconds;
    }
    double solveDeadline() const { return solve_deadline_seconds_; }

    /** Adjust the per-solve iteration cap at runtime. The batch
     *  admission pass uses this as the deterministic half of budget
     *  degradation (a wall-clock deadline depends on machine load; an
     *  iteration cap replays bitwise). */
    void setMaxIterations(int iterations)
    {
        options_.maxIterations = iterations;
    }

    /** Number of running penalty residuals. */
    int numRunningResiduals() const { return static_cast<int>(
        running_weights_.size()); }
    /** Number of terminal penalty residuals. */
    int numTerminalResiduals() const { return static_cast<int>(
        terminal_weights_.size()); }
    /** Number of running inequality rows h(x, u) <= 0. */
    int numRunningIneq() const { return num_run_ineq_; }
    /** Number of terminal inequality rows ht(x) <= 0. */
    int numTerminalIneq() const { return num_term_ineq_; }

    /** Penalty weights (diagonal of W). */
    const std::vector<double> &runningWeights() const
    {
        return running_weights_;
    }
    const std::vector<double> &terminalWeights() const
    {
        return terminal_weights_;
    }

    /** Discrete dynamics and Jacobians at (x, u, ref). */
    void evalDynamics(const Vector &x, const Vector &u, const Vector &ref,
                      StageEval &out) const;
    /** Running residuals and Jacobians. */
    void evalRunningCost(const Vector &x, const Vector &u,
                         const Vector &ref, StageEval &out) const;
    /** Terminal residuals and Jacobian. */
    void evalTerminalCost(const Vector &x, const Vector &ref,
                          StageEval &out) const;
    /** Running inequalities and Jacobians; no-op when there are none. */
    void evalRunningIneq(const Vector &x, const Vector &u,
                         const Vector &ref, StageEval &out) const;
    /** Terminal inequalities and Jacobian. */
    void evalTerminalIneq(const Vector &x, const Vector &ref,
                          StageEval &out) const;

    /** Value-only objective of a trajectory under per-stage references
     *  (refs.size() == N + 1), for the line-search merit. */
    double objective(const std::vector<Vector> &xs,
                     const std::vector<Vector> &us,
                     const std::vector<Vector> &refs) const;

    /**
     * Value-only evaluators for the solver's warm hot path (merit
     * evaluations, trajectory rollouts): the output is resized on first
     * use and reused afterwards, so they are allocation-free.
     */
    void runningIneqValueInto(const Vector &x, const Vector &u,
                              const Vector &ref, Vector &out) const;
    void terminalIneqValueInto(const Vector &x, const Vector &ref,
                               Vector &out) const;
    void dynamicsValueInto(const Vector &x, const Vector &u,
                           const Vector &ref, Vector &out) const;

    /** Nonzero Jacobian columns of the cost and inequality tapes. */
    const JacobianPattern &runningCostPattern() const
    {
        return run_cost_pattern_;
    }
    const JacobianPattern &terminalCostPattern() const
    {
        return term_cost_pattern_;
    }
    const JacobianPattern &runningIneqPattern() const
    {
        return run_ineq_pattern_;
    }
    const JacobianPattern &terminalIneqPattern() const
    {
        return term_ineq_pattern_;
    }

    /** Access the compiled tapes (workload input for the accelerator). */
    const sym::Tape &dynamicsTape() const { return dyn_tape_; }
    const sym::Tape &runningCostTape() const { return run_cost_tape_; }
    const sym::Tape &terminalCostTape() const { return term_cost_tape_; }
    const sym::Tape &runningIneqTape() const { return run_ineq_tape_; }
    const sym::Tape &terminalIneqTape() const { return term_ineq_tape_; }

    /** Per running row: does h_i reference any state variable? */
    const std::vector<bool> &runningRowUsesState() const
    {
        return run_row_uses_state_;
    }

    /** Per running row: does h_i reference any control input? Rows
     *  with an input dependence still bind at the fixed initial stage
     *  even when they also mention the state. */
    const std::vector<bool> &runningRowUsesInput() const
    {
        return run_row_uses_input_;
    }

    /**
     * Hook invoked on the quantized environment words right before
     * each fixed-point tape evaluation; returns the number of faults
     * it injected. The second argument is a monotone evaluation
     * counter that serves as the fault engine's cycle coordinate
     * (accel::FaultInjector::tapeHook adapts to this signature). Only
     * called when fixedPointTapes is on. Pass an empty function to
     * detach.
     */
    using TapeFaultHook =
        std::function<std::uint64_t(std::vector<Fixed> &, std::uint64_t)>;
    void setTapeFaultHook(TapeFaultHook hook)
    {
        fault_hook_ = std::move(hook);
    }

    /**
     * Numeric-integrity report accumulated over every fixed-point tape
     * evaluation since the last resetNumericHealth(): evaluation and
     * injected-fault counts, peak stored magnitude, and (with
     * crossCheckFixedPoint) golden-model divergence verdicts.
     * Saturation/div-by-zero deltas are added by the solver, which
     * snapshots the thread-local Fixed counters around each solve.
     */
    const NumericHealth &numericHealth() const { return numeric_health_; }
    /** Clear the accumulated report (the solver does this per solve). */
    void
    resetNumericHealth() const
    {
        numeric_health_ = NumericHealth();
        accel_fault_ = false;
    }

    /**
     * True when self-checking execution (MpcOptions::accelSelfCheck)
     * escalated to the CPU-fallback rung since the last
     * resetNumericHealth(): corruption survived re-execution and
     * reload, so the solver marks the solve SolveStatus::AccelFault.
     */
    bool accelFaultDetected() const { return accel_fault_; }

  private:
    /** Build the symbolic discrete-time dynamics F(x, u, ref). */
    std::vector<sym::Expr> discretize() const;

    /**
     * Pack [x | u | ref] into the inputs of the slot scratch (a
     * terminal stage passes no u and packs [x | 0 | ref]) and evaluate
     * a tape there in double or fixed point per the options. Output o
     * is then tape_work_[tape.outputSlots()[o]]; the first `outputs`
     * are valid. The double path runs only the instruction prefix
     * those outputs need (sym::Tape::outputEnds()); the fixed-point
     * path always runs the whole tape, so its saturation counts do not
     * depend on the caller. Reuses mutable per-instance buffers, sized
     * at construction, so evaluation is allocation-free; an MpcProblem
     * instance is therefore not safe to share across threads
     * (BatchController gives each worker its own solver, and with it
     * its own problem).
     */
    void runTape(const sym::Tape &tape, const Vector &x, const Vector *u,
                 const Vector &ref, std::size_t outputs) const;

    /** Fixed-point evaluation of the inputs packed by runTape(),
     *  dequantized into the output slots of the scratch. */
    void runFixed(const sym::Tape &tape) const;

    /**
     * Evaluate a stage tape at (x, u, ref) into out, laid out as
     * [value | Jx | Ju]; a terminal tape (no u) has no input block.
     * When out already holds this tape's constants (same serial and
     * shapes), only the computed outputs are written; otherwise out is
     * shaped and filled completely.
     */
    void evalInto(const sym::Tape &tape, int rows, const Vector &x,
                  const Vector *u, const Vector &ref,
                  StageEval &out) const;
    /** Value-only evaluation: the first rows outputs of the tape,
     *  which on the double path run only the value prefix. */
    void valueInto(const sym::Tape &tape, int rows, const Vector &x,
                   const Vector *u, const Vector &ref, Vector &out) const;

    dsl::ModelSpec model_;
    MpcOptions options_;
    double solve_deadline_seconds_ = -1.0; //!< See setSolveDeadline.
    int nx_;
    int nu_;
    int nref_;
    int num_run_ineq_ = 0;
    int num_term_ineq_ = 0;

    std::vector<double> running_weights_;
    std::vector<double> terminal_weights_;
    std::vector<bool> run_row_uses_state_;
    std::vector<bool> run_row_uses_input_;

    // Evaluation scratch, reused across calls (see runTape).
    mutable std::vector<double> tape_work_;
    mutable std::vector<Fixed> fixed_env_;
    mutable std::vector<Fixed> fixed_work_;
    mutable std::vector<Fixed> fixed_out_;
    mutable std::vector<double> golden_work_;
    /** Per-word parity bits of the quantized environment, computed at
     *  host write time (accelSelfCheck). */
    mutable std::vector<std::uint8_t> parity_scratch_;

    TapeFaultHook fault_hook_;
    mutable NumericHealth numeric_health_;
    mutable bool accel_fault_ = false;
    /** Monotone fixed-point evaluation counter; the fault engine's
     *  cycle coordinate. Never reset, so identically-constructed
     *  problems see identical cycles (campaign reproducibility). */
    mutable std::uint64_t tape_eval_counter_ = 0;

    std::unique_ptr<FixedMath> fixed_math_; //!< Fixed-point mode only.
    sym::Tape dyn_tape_;
    sym::Tape run_cost_tape_;
    sym::Tape term_cost_tape_;
    sym::Tape run_ineq_tape_;
    sym::Tape term_ineq_tape_;
    JacobianPattern run_cost_pattern_;
    JacobianPattern term_cost_pattern_;
    JacobianPattern run_ineq_pattern_;
    JacobianPattern term_ineq_pattern_;
};

} // namespace robox::mpc

#endif // ROBOX_MPC_PROBLEM_HH
