/**
 * @file
 * Primal-dual interior-point solver for RoboX MPC problems.
 *
 * Implements the paper's solver (Sec. II-B): a slack-based primal-dual
 * interior point method whose Newton systems are factored stage-wise
 * with Cholesky decompositions and forward/backward substitution
 * (mpc/riccati.hh). The cost Hessian uses the Gauss-Newton
 * approximation, which is exact in structure for the translator's
 * weighted-norm objective sum_i ||p_i||^2_{W_i}. Successive controller
 * invocations warm-start from the shifted previous trajectory.
 *
 * Hot-path discipline: every buffer the solve loop touches is owned by
 * a per-instance SolverWorkspace pre-sized at construction, so a
 * warmed-up solve performs zero heap allocations (verified by the
 * allocation hook in SolveStats and tests/batch_test.cc). This is what
 * makes the per-solve latency worth batching across robots with
 * mpc/batch.hh.
 */

#ifndef ROBOX_MPC_IPM_HH
#define ROBOX_MPC_IPM_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "mpc/dense_kkt.hh"
#include "mpc/problem.hh"
#include "mpc/riccati.hh"
#include "mpc/solve_trace.hh"
#include "mpc/status.hh"
#include "support/checkpoint.hh"

namespace robox::mpc
{

/** Statistics from the most recent solve, fed to performance models
 *  and to BatchController::report(). */
struct SolveStats
{
    int iterations = 0;
    bool converged = false;
    double objective = 0.0;
    double eqResidual = 0.0;    //!< Final inf-norm of dynamics residual.
    double compAverage = 0.0;   //!< Final average complementarity.
    /** KKT-backend flops this solve, summed from
     *  RiccatiSolution::flops: the dense-equivalent model count, which
     *  the Riccati pass's skipping of zero Jacobian entries leaves
     *  unchanged, so mpc.kkt_kflops_per_iter stays comparable across
     *  versions. */
    std::uint64_t riccatiFlops = 0;
    /** Line-search trial points evaluated; the starting merit is not
     *  a trial point and is not counted. */
    int lineSearchEvals = 0;
    double solveSeconds = 0.0;  //!< Wall time of the last solve() call.
    /** Heap allocations made by the solving thread during the last
     *  solve(). Zero in steady state; always zero when the counting
     *  hook is not linked (support/alloc_hook.hh). */
    std::uint64_t heapAllocations = 0;

    /** Structured outcome of the solve (never throws past this). */
    SolveStatus status = SolveStatus::Unsolved;
    /** Total recovery-ladder activations during the solve. */
    int recoveryAttempts = 0;
    /** Ladder rung counts: KKT regularization bumps, step-length
     *  backoffs, and warm-start resets (cold restarts). */
    int regularizationBumps = 0;
    int stepBackoffs = 0;
    int coldRestarts = 0;

    /** Numeric-integrity report of the fixed-point accelerator path
     *  for this solve: saturation/div-by-zero deltas, peak magnitude,
     *  injected faults, golden cross-check verdicts. All zero when
     *  MpcOptions::fixedPointTapes is off. */
    NumericHealth numeric;

    /** Ring of the last 64 iterations of this solve (residuals,
     *  barrier, steps, regularization, ladder activity); see
     *  mpc/solve_trace.hh and formatSolveTrace(). */
    SolveTrace trace;

    /**
     * Reset every per-solve field while keeping the trace ring's
     * storage. solve() calls this instead of reassigning a fresh
     * SolveStats so the warm path stays allocation-free.
     */
    void resetForSolve()
    {
        iterations = 0;
        converged = false;
        objective = 0.0;
        eqResidual = 0.0;
        compAverage = 0.0;
        riccatiFlops = 0;
        lineSearchEvals = 0;
        solveSeconds = 0.0;
        heapAllocations = 0;
        status = SolveStatus::Unsolved;
        recoveryAttempts = 0;
        regularizationBumps = 0;
        stepBackoffs = 0;
        coldRestarts = 0;
        numeric = NumericHealth();
        trace.clear();
    }
};

/** The interior-point MPC solver. */
class IpmSolver
{
  public:
    IpmSolver(const dsl::ModelSpec &model, const MpcOptions &options);

    /** Result of one controller invocation. */
    struct Result
    {
        Vector u0;          //!< First control of the optimized plan.
        bool converged = false;
        int iterations = 0;
        double objective = 0.0;
        /** Structured outcome; u0 is only the optimized plan's first
         *  control when statusUsable(status). On failure statuses u0
         *  holds the last finite command (see solve()). */
        SolveStatus status = SolveStatus::Unsolved;
        /** Set by the control layer (Controller/simulate) when u0 was
         *  replaced by the backup command — the time-shifted tail of
         *  the previous accepted plan (mpc/failsafe.hh). */
        bool degraded = false;
    };

    /**
     * Solve the MPC problem from the measured state and current
     * reference values; warm-starts from the previous invocation.
     * Returns a reference to per-instance storage (valid until the
     * next solve) so the steady-state path stays allocation-free;
     * copy-assign it to keep a snapshot.
     *
     * Failsafe contract: after construction, solve() never throws on
     * numeric input. Malformed states/references, failed KKT
     * factorizations, divergence, and deadline expiry all surface as
     * Result::status (with recovery attempts recorded in SolveStats),
     * and Result::u0 is always finite. A BadInput refusal leaves the
     * warm start untouched; NumericFailure/Diverged drop it so the
     * next call cold-starts.
     */
    const Result &solve(const Vector &x0, const Vector &ref);

    /**
     * Solve with per-stage references: refs[k] applies at horizon
     * stage k (refs[N] at the terminal stage). This is how a
     * trajectory-tracking task feeds the future reference trajectory
     * to the controller; refs.size() must be horizon + 1.
     */
    const Result &solve(const Vector &x0, const std::vector<Vector> &refs);

    /** Drop the warm start (e.g. after a large disturbance). */
    void reset() { warm_ = false; }

    /** Runtime deadline control; see MpcProblem::setSolveDeadline. */
    void setSolveDeadline(double seconds)
    {
        problem_.setSolveDeadline(seconds);
    }

    /** Runtime iteration-cap control; see MpcProblem::setMaxIterations. */
    void setMaxIterations(int iterations)
    {
        problem_.setMaxIterations(iterations);
    }

    /** Attach a fault hook to the fixed-point tape path; see
     *  MpcProblem::setTapeFaultHook. */
    void setTapeFaultHook(MpcProblem::TapeFaultHook hook)
    {
        problem_.setTapeFaultHook(std::move(hook));
    }

    const MpcProblem &problem() const { return problem_; }
    const SolveStats &lastStats() const { return stats_; }

    /** Planned trajectories from the last solve. */
    const std::vector<Vector> &stateTrajectory() const { return xs_; }
    const std::vector<Vector> &inputTrajectory() const { return us_; }

    /**
     * Serialize the resumable solver state: the warm-start flag, the
     * state/input trajectories, the per-block slacks and duals the
     * warm shift reads, and the last Result. Everything else the solve
     * loop touches lives in the pre-sized workspace and is recomputed,
     * so a restored solver's next solve() is bitwise-identical to the
     * one an uninterrupted solver would have run.
     */
    void checkpoint(support::CheckpointWriter &w) const;

    /**
     * Restore state written by checkpoint() into a solver constructed
     * from the same model and options. Returns false — with the warm
     * start dropped, equivalent to a cold reset() — when the payload
     * is short or its shapes disagree with this solver's layout.
     */
    bool restore(support::CheckpointReader &r);

  private:
    template <class Io, class Self>
    static bool transfer(Io &io, Self &self); //!< Checkpointed fields.

    /** Per-stage slack/dual block. */
    struct IneqBlock
    {
        std::vector<int> rows; //!< Active row indices into the tape rows.
        Vector h;              //!< Current h values (selected rows).
        /** Jacobians w.r.t. x and u (u: running only). Only the
         *  columns in ineqPattern() are written; the rest stay 0 from
         *  construction and are never read. */
        Matrix hx;
        Matrix hu;
        Vector s;              //!< Slacks.
        Vector lam;            //!< Duals.
        Vector ds;             //!< Slack step.
        Vector dlam;           //!< Dual step.
    };

    /**
     * Every buffer the solve loop writes, pre-sized at construction
     * and reused across iterations and invocations. Nothing in here
     * carries state between solves; it exists purely to keep the hot
     * path off the heap.
     */
    struct SolverWorkspace
    {
        std::vector<StageQp> stages;  //!< N condensed stage QPs.
        /** Terminal stage: Hessian q and gradient qv (cost plus
         *  barrier); its input blocks r, s, rv are empty. */
        StageQp terminal;
        /** Stage evaluations, one per tape they serve, so each keeps
         *  its tape's constants and is rewritten only where the tape
         *  computes (StageEval::tapeSerial). */
        std::vector<StageEval> dyn;   //!< N dynamics evaluations.
        StageEval runCost;
        StageEval termCost;
        StageEval runIneq;
        StageEval termIneq;
        /** Objective at the iterate, summed by assembleStage in
         *  MpcProblem::objective()'s order. */
        double objective = 0.0;
        std::vector<Vector> qv0;      //!< N+1 cost-only x gradients.
        /** N+1 cost-only u gradients; the terminal one is empty. */
        std::vector<Vector> rv0;
        std::vector<Vector> yblk;     //!< Barrier target per block.
        Vector dx0;                   //!< x0 - xs[0].
        std::vector<Vector> trialXs;  //!< Line-search trial states.
        std::vector<Vector> trialUs;  //!< Line-search trial inputs.
        std::vector<Vector> trialS;   //!< Line-search trial slacks.
        std::vector<Vector> trialLam; //!< Line-search trial duals.
        Vector meritDyn;              //!< Merit dynamics scratch.
        Vector meritH;                //!< Merit constraint scratch.
        std::vector<Vector> refsScratch; //!< Constant-ref broadcast.
        RiccatiWorkspace riccati;
        DenseKktWorkspace dense;
        RiccatiSolution sol;          //!< Newton step of this iterate.
    };

    void initializeTrajectory(const Vector &x0,
                              const std::vector<Vector> &refs);
    /** Initialize slacks/duals; warm invocations shift the previous
     *  solve's values by one stage (using the row maps precomputed in
     *  the constructor) and return a matching barrier. */
    double initializeSlacks(const std::vector<Vector> &refs);
    /** Nonzero Jacobian columns of block k's inequality tape rows
     *  (the terminal tape's at k == N), indexed by IneqBlock::rows. */
    const JacobianPattern &ineqPattern(int k) const;
    /** Evaluate stage k's inequality tape (the terminal one at k == N)
     *  and select its block's rows into h, hx and hu. */
    void evaluateIneq(int k, const std::vector<Vector> &refs);
    /**
     * Fill stage k's Hessian blocks and cost-only gradients (qv0, rv0)
     * from its Gauss-Newton cost terms and the barrier curvature of
     * its inequality rows, then mirror the lower triangles; add its
     * cost to ws_.objective. Both loops run over each Jacobian row's
     * nonzero columns only (MpcProblem's JacobianPatterns). The
     * terminal stage (k == N) runs the same code with an empty input
     * block.
     */
    void assembleStage(int k, const std::vector<Vector> &refs);
    /** Average s_i lam_i over every inequality row (0 without rows). */
    double averageComplementarity() const;
    /**
     * The l1 merit of (xs, us, slacks). With from_stages, (xs, us) is
     * the iterate this iteration assembled, and the objective, the
     * dynamics defects and the inequality values come from that
     * assembly (ws_.objective, StageQp::c, IneqBlock::h) instead of
     * fresh tape evaluations; the values are the same bits.
     */
    double meritFunction(const std::vector<Vector> &xs,
                         const std::vector<Vector> &us,
                         const std::vector<Vector> &slacks,
                         const Vector &x0,
                         const std::vector<Vector> &refs, double mu,
                         double rho, bool from_stages);

    MpcProblem problem_;
    bool warm_ = false;
    std::vector<Vector> xs_; //!< N+1 states.
    std::vector<Vector> us_; //!< N inputs.
    std::vector<IneqBlock> ineq_; //!< N running blocks + 1 terminal.
    std::size_t ineq_rows_ = 0;   //!< Rows over all of ineq_.
    SolveStats stats_;
    Result result_;
    SolverWorkspace ws_;
    std::vector<int> full_run_rows_;   //!< 0..nh_run-1.
    std::vector<int> stage0_run_rows_; //!< Rows enforceable at fixed x_0.
    std::vector<int> term_rows_;       //!< 0..nh_term-1.

    // Warm-start shift maps, precomputed once: position of each
    // destination row in its warm-source block (-1 when absent).
    std::vector<int> stage0_in_full_; //!< Stage-0 row -> full-block pos.
    std::vector<int> stage0_in_term_; //!< Stage-0 row -> terminal pos.
    std::vector<int> full_in_term_;   //!< Full row -> terminal pos.
};

} // namespace robox::mpc

#endif // ROBOX_MPC_IPM_HH
