/**
 * @file
 * Implementation of the primal-dual interior-point MPC solver.
 */

#include "mpc/ipm.hh"

#include "mpc/dense_kkt.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "mpc/checkpoint_io.hh"
#include "support/alloc_hook.hh"
#include "support/logging.hh"

namespace robox::mpc
{

namespace
{

/** Barrier curvature lam/s with an overflow guard: rows pinned hard
 *  against their bound can otherwise drive sigma to infinity in
 *  unconverged solves. */
double
cappedSigma(double lam, double s)
{
    return std::min(lam / s, 1e10);
}

/** Dual safeguard applied after each accepted step. */
constexpr double kLambdaCap = 1e10;

// Barrier schedule: initial value, floor (also the complementarity
// target), and reduction factor per accepted iteration.
constexpr double kMuInit = 1e-1;
constexpr double kMuMin = 1e-9;
constexpr double kMuShrink = 0.2;

/** Fraction-to-boundary factor for slack/dual steps. */
constexpr double kFractionToBoundary = 0.995;

/** Slack floor when initializing from the start trajectory. */
constexpr double kSlackFloor = 1e-3;

// Failsafe ladder (ARCHITECTURE.md "Failure taxonomy and recovery
// ladder"): the starting KKT regularization, how many times a failed
// factorization bumps it and by what factor before a step backoff, and
// the cold restarts to attempt before giving up.
constexpr double kInitialRegularization = 1e-8;
constexpr int kMaxRegularizationBumps = 2;
constexpr double kRegularizationBumpFactor = 1e4;
constexpr int kMaxColdRestarts = 1;

/** Position of row id in rows, or -1 when absent. */
int
positionOf(const std::vector<int> &rows, int id)
{
    for (std::size_t j = 0; j < rows.size(); ++j)
        if (rows[j] == id)
            return static_cast<int>(j);
    return -1;
}

/** True when every entry of v is finite. */
bool
allFinite(const Vector &v)
{
    for (std::size_t i = 0; i < v.size(); ++i)
        if (!std::isfinite(v[i]))
            return false;
    return true;
}

} // namespace

IpmSolver::IpmSolver(const dsl::ModelSpec &model, const MpcOptions &options)
    : problem_(model, options)
{
    const std::vector<bool> &uses_state = problem_.runningRowUsesState();
    const std::vector<bool> &uses_input = problem_.runningRowUsesInput();
    for (int i = 0; i < problem_.numRunningIneq(); ++i) {
        full_run_rows_.push_back(i);
        // At stage 0 the state is fixed, so rows that depend only on x
        // are constants there and cannot be enforced. Mixed rows
        // h(x, u) still constrain the stage-0 input through their
        // input Jacobian and must be kept.
        if (!uses_state[i] || uses_input[i])
            stage0_run_rows_.push_back(i);
    }
    for (int i = 0; i < problem_.numTerminalIneq(); ++i)
        term_rows_.push_back(i);

    // Warm-start shift maps: where each block's rows live in the block
    // it inherits slacks from. Built once so initializeSlacks never
    // rescans row sets.
    for (int id : stage0_run_rows_) {
        stage0_in_full_.push_back(positionOf(full_run_rows_, id));
        stage0_in_term_.push_back(positionOf(term_rows_, id));
    }
    for (int id : full_run_rows_)
        full_in_term_.push_back(positionOf(term_rows_, id));

    // Pre-size every solver-owned buffer; after this, a warm solve does
    // not touch the heap.
    const int n_stages = problem_.horizon();
    const std::size_t nx = static_cast<std::size_t>(problem_.nx());
    const std::size_t nu = static_cast<std::size_t>(problem_.nu());

    ineq_.resize(static_cast<std::size_t>(n_stages) + 1);
    ws_.yblk.resize(ineq_.size());
    ws_.trialS.resize(ineq_.size());
    ws_.trialLam.resize(ineq_.size());
    for (int k = 0; k <= n_stages; ++k) {
        IneqBlock &blk = ineq_[k];
        blk.rows = k == n_stages ? term_rows_
                   : k == 0      ? stage0_run_rows_
                                 : full_run_rows_;
        const std::size_t rows = blk.rows.size();
        blk.h.resize(rows);
        blk.hx.resize(rows, nx);
        blk.hu.resize(rows, k == n_stages ? 0 : nu);
        blk.s.resize(rows);
        blk.lam.resize(rows);
        blk.ds.resize(rows);
        blk.dlam.resize(rows);
        ws_.yblk[k].resize(rows);
        ws_.trialS[k].resize(rows);
        ws_.trialLam[k].resize(rows);
    }

    ws_.stages.resize(static_cast<std::size_t>(n_stages));
    for (StageQp &st : ws_.stages) {
        st.a.resize(nx, nx);
        st.b.resize(nx, nu);
        st.c.resize(nx);
        st.q.resize(nx, nx);
        st.r.resize(nu, nu);
        st.s.resize(nu, nx);
        st.qv.resize(nx);
        st.rv.resize(nu);
    }
    ws_.dyn.resize(static_cast<std::size_t>(n_stages));
    ws_.qv0.assign(static_cast<std::size_t>(n_stages), Vector(nx));
    ws_.rv0.assign(static_cast<std::size_t>(n_stages), Vector(nu));
    ws_.qn.resize(nx, nx);
    ws_.qnv0.resize(nx);
    ws_.qnv.resize(nx);
    ws_.dx0.resize(nx);
    ws_.meritDyn.resize(nx);
    ws_.trialXs.assign(static_cast<std::size_t>(n_stages) + 1,
                       Vector(nx));
    ws_.trialUs.assign(static_cast<std::size_t>(n_stages), Vector(nu));
    ws_.riccati.resize(static_cast<std::size_t>(n_stages), nx, nu);
    ws_.sol.dx.assign(static_cast<std::size_t>(n_stages) + 1,
                      Vector(nx));
    ws_.sol.du.assign(static_cast<std::size_t>(n_stages), Vector(nu));
    result_.u0.resize(nu);
    // Pre-size the iteration-trace ring here, once: recording during
    // solve() is then in-place writes only.
    stats_.trace.configure(options.solveTraceCapacity);
}

void
IpmSolver::initializeTrajectory(const Vector &x0,
                                const std::vector<Vector> &refs)
{
    const int n_stages = problem_.horizon();
    const int nx = problem_.nx();
    const int nu = problem_.nu();

    if (warm_ && static_cast<int>(us_.size()) == n_stages) {
        // Shift the previous plan by one step; repeat the last input.
        for (int k = 0; k + 1 < n_stages; ++k)
            us_[k].copyFrom(us_[k + 1]);
        xs_[0].copyFrom(x0);
        for (int k = 0; k < n_stages; ++k)
            problem_.dynamicsValueInto(xs_[k], us_[k], refs[k],
                                       xs_[k + 1]);
        return;
    }

    // Cold start: inputs at the midpoint of their finite bounds (zero
    // when unbounded), states from a rollout.
    const dsl::ModelSpec &model = problem_.model();
    Vector u_init(static_cast<std::size_t>(nu));
    for (int i = 0; i < nu; ++i) {
        double lo = model.inputLower[i];
        double hi = model.inputUpper[i];
        if (lo != -dsl::kUnbounded && hi != dsl::kUnbounded)
            u_init[i] = 0.5 * (lo + hi);
        else if (lo != -dsl::kUnbounded)
            u_init[i] = lo + 0.1;
        else if (hi != dsl::kUnbounded)
            u_init[i] = hi - 0.1;
        else
            u_init[i] = 0.0;
    }
    us_.assign(n_stages, u_init);
    xs_.assign(n_stages + 1, Vector(static_cast<std::size_t>(nx)));
    xs_[0].copyFrom(x0);
    for (int k = 0; k < n_stages; ++k)
        problem_.dynamicsValueInto(xs_[k], us_[k], refs[k], xs_[k + 1]);
}

void
IpmSolver::evaluateIneq(IneqBlock &blk, const StageEval &eval) const
{
    const std::size_t rows = blk.rows.size();
    if (blk.h.size() != rows)
        blk.h.resize(rows);
    if (blk.hx.rows() != rows || blk.hx.cols() != eval.jx.cols())
        blk.hx.resize(rows, eval.jx.cols());
    if (blk.hu.rows() != rows || blk.hu.cols() != eval.ju.cols())
        blk.hu.resize(rows, eval.ju.cols());
    for (std::size_t i = 0; i < rows; ++i) {
        int src = blk.rows[i];
        blk.h[i] = eval.value[src];
        for (std::size_t j = 0; j < eval.jx.cols(); ++j)
            blk.hx(i, j) = eval.jx(src, j);
        for (std::size_t j = 0; j < eval.ju.cols(); ++j)
            blk.hu(i, j) = eval.ju(src, j);
    }
}

double
IpmSolver::initializeSlacks(const std::vector<Vector> &refs)
{
    const int n_stages = problem_.horizon();
    const bool shift = warm_;

    // The shift runs in place: block k inherits from block k + 1 (the
    // terminal block from itself), and blocks are processed in
    // ascending k, so every source is read before it is overwritten.
    StageEval &eval = ws_.ineqEval;
    for (int k = 0; k <= n_stages; ++k) {
        IneqBlock &blk = ineq_[k];
        if (k == n_stages)
            problem_.evalTerminalIneq(xs_[k], refs[k], eval);
        else
            problem_.evalRunningIneq(xs_[k], us_[k], refs[k], eval);
        evaluateIneq(blk, eval);
        const std::size_t rows = blk.rows.size();

        const IneqBlock *prev = nullptr;
        const std::vector<int> *map = nullptr; // null: same row set.
        if (shift) {
            if (k == n_stages) {
                prev = &blk; // Terminal rows carry over unshifted.
            } else {
                prev = &ineq_[k + 1];
                if (k == 0)
                    map = n_stages == 1 ? &stage0_in_term_
                                        : &stage0_in_full_;
                else if (k == n_stages - 1)
                    map = &full_in_term_;
                // Interior blocks share the full running row set:
                // positions match one-to-one, no lookup needed.
            }
        }
        for (std::size_t i = 0; i < rows; ++i) {
            double s = std::max(kSlackFloor, -blk.h[i]);
            double lam = kMuInit / s;
            if (prev) {
                int j = map ? (*map)[i] : static_cast<int>(i);
                if (j >= 0) {
                    s = std::max(kSlackFloor * 1e-2, prev->s[j]);
                    lam = std::max(kSlackFloor * 1e-2, prev->lam[j]);
                }
            }
            blk.s[i] = s;
            blk.lam[i] = lam;
        }
    }

    // Barrier start: for warm starts, resume near the carried-over
    // complementarity instead of re-climbing from kMuInit.
    double comp_sum = 0.0;
    std::size_t count = 0;
    for (const IneqBlock &blk : ineq_) {
        for (std::size_t i = 0; i < blk.rows.size(); ++i) {
            comp_sum += blk.s[i] * blk.lam[i];
            ++count;
        }
    }
    if (!shift || count == 0)
        return kMuInit;
    double comp_avg = comp_sum / count;
    return std::clamp(0.5 * comp_avg, kMuMin * 10.0, kMuInit);
}

double
IpmSolver::meritFunction(const std::vector<Vector> &xs,
                         const std::vector<Vector> &us,
                         const std::vector<Vector> &slacks,
                         const Vector &x0,
                         const std::vector<Vector> &refs, double mu,
                         double rho)
{
    const int n_stages = problem_.horizon();
    double merit = problem_.objective(xs, us, refs);
    ++stats_.lineSearchEvals;

    double infeas = 0.0;
    for (std::size_t i = 0; i < x0.size(); ++i)
        infeas += std::abs(xs[0][i] - x0[i]);
    for (int k = 0; k < n_stages; ++k) {
        problem_.dynamicsValueInto(xs[k], us[k], refs[k], ws_.meritDyn);
        for (std::size_t i = 0; i < ws_.meritDyn.size(); ++i)
            infeas += std::abs(ws_.meritDyn[i] - xs[k + 1][i]);
    }
    for (int k = 0; k <= n_stages; ++k) {
        const IneqBlock &blk = ineq_[k];
        const Vector &s = slacks[k];
        if (k == n_stages)
            problem_.terminalIneqValueInto(xs[k], refs[k], ws_.meritH);
        else
            problem_.runningIneqValueInto(xs[k], us[k], refs[k],
                                          ws_.meritH);
        for (std::size_t i = 0; i < blk.rows.size(); ++i) {
            infeas += std::abs(ws_.meritH[blk.rows[i]] + s[i]);
            if (s[i] <= 0.0)
                return std::numeric_limits<double>::infinity();
            merit -= mu * std::log(s[i]);
        }
    }
    return merit + rho * infeas;
}

const IpmSolver::Result &
IpmSolver::solve(const Vector &x0, const Vector &ref)
{
    const std::size_t count =
        static_cast<std::size_t>(problem_.horizon()) + 1;
    if (ws_.refsScratch.size() != count)
        ws_.refsScratch.assign(count, ref);
    else
        for (Vector &r : ws_.refsScratch)
            r.copyFrom(ref);
    return solve(x0, ws_.refsScratch);
}

const IpmSolver::Result &
IpmSolver::solve(const Vector &x0, const std::vector<Vector> &refs)
{
    const auto t_start = std::chrono::steady_clock::now();
    const std::uint64_t allocs_start = support::allocCount();

    const MpcOptions &opt = problem_.options();
    const int n_stages = opt.horizon;
    const int nx = problem_.nx();
    const int nu = problem_.nu();
    const int np_run = problem_.numRunningResiduals();
    const int np_term = problem_.numTerminalResiduals();
    const dsl::ModelSpec &model = problem_.model();

    stats_.resetForSolve();

    // Numeric-health bookkeeping for the fixed-point path: restart the
    // problem's per-solve report and delta the thread-local Fixed
    // counters across this solve.
    const std::uint64_t sat_start = Fixed::saturationCount();
    const std::uint64_t div_start = Fixed::divByZeroCount();
    problem_.resetNumericHealth();

    // Keep the issued command finite no matter what happened, then
    // project it onto the actuator limits: the interior point method
    // converges to the bounds from the inside but an early stop can
    // leave micro-violations, and failure paths must never leak
    // NaN/Inf to the actuators.
    auto finish = [&](SolveStatus status) -> const Result & {
        if (opt.fixedPointTapes) {
            stats_.numeric = problem_.numericHealth();
            stats_.numeric.saturations =
                Fixed::saturationCount() - sat_start;
            stats_.numeric.divByZeros =
                Fixed::divByZeroCount() - div_start;
        }
        stats_.status = status;
        for (int i = 0; i < nu; ++i) {
            if (!std::isfinite(result_.u0[i]))
                result_.u0[i] = 0.0;
            result_.u0[i] = std::clamp(result_.u0[i],
                                       model.inputLower[i],
                                       model.inputUpper[i]);
        }
        result_.converged = stats_.converged;
        result_.iterations = stats_.iterations;
        result_.objective = stats_.objective;
        result_.status = status;
        result_.degraded = false;
        stats_.solveSeconds = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() -
                                  t_start)
                                  .count();
        stats_.heapAllocations = support::allocCount() - allocs_start;
        return result_;
    };

    // Refuse mis-shaped inputs before touching anything: a malformed
    // robot must surface as a structured BadInput on the serving path,
    // never abort the fleet process. The warm start is left untouched
    // so the next well-formed sample resumes normally.
    bool shapes_ok = static_cast<int>(refs.size()) == n_stages + 1 &&
                     static_cast<int>(x0.size()) == nx;
    const auto nref = static_cast<std::size_t>(problem_.nref());
    for (std::size_t r = 0; shapes_ok && r < refs.size(); ++r)
        shapes_ok = refs[r].size() == nref;
    if (!shapes_ok)
        return finish(SolveStatus::BadInput);

    // Refuse NaN/Inf measurements and references outright: the warm
    // start is left untouched so the next valid sample resumes
    // normally, and result_.u0 keeps the last finite command.
    bool inputs_ok = allFinite(x0);
    for (std::size_t r = 0; inputs_ok && r < refs.size(); ++r)
        inputs_ok = allFinite(refs[r]);
    if (!inputs_ok)
        return finish(SolveStatus::BadInput);

    initializeTrajectory(x0, refs);
    double mu = initializeSlacks(refs);

    // Failsafe ladder state (see ARCHITECTURE.md): escalating
    // regularization bumps, then a step backoff, then a cold restart,
    // then give up with a structured status.
    double kkt_reg = kInitialRegularization;
    double alpha_cap = 1.0;
    int reg_bumps = 0;
    int backoffs = 0;
    int cold_restarts = 0;
    SolveStatus final_status = SolveStatus::MaxIterations;
    const bool deadline_active = opt.solveDeadlineSeconds >= 0.0;
    auto elapsed = [&] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t_start)
            .count();
    };

    std::vector<StageQp> &stages = ws_.stages;
    std::vector<StageEval> &dyn = ws_.dyn;
    StageEval &cost_eval = ws_.costEval;
    StageEval &ineq_eval = ws_.ineqEval;
    std::vector<Vector> &qv0 = ws_.qv0;
    std::vector<Vector> &rv0 = ws_.rv0;
    Vector &qnv0 = ws_.qnv0;
    Matrix &qn = ws_.qn;
    Vector &qnv = ws_.qnv;
    std::vector<Vector> &yblk = ws_.yblk;
    RiccatiSolution &sol = ws_.sol;

    // Apply a given set of barrier target vectors y to the gradients.
    auto apply_gradients = [&]() {
        for (int k = 0; k < n_stages; ++k) {
            StageQp &st = stages[k];
            st.qv.copyFrom(qv0[k]);
            st.rv.copyFrom(rv0[k]);
            const IneqBlock &blk = ineq_[k];
            for (std::size_t i = 0; i < blk.rows.size(); ++i) {
                double y = yblk[k][i];
                for (int a = 0; a < nx; ++a)
                    st.qv[a] += blk.hx(i, a) * y;
                for (int a = 0; a < nu; ++a)
                    st.rv[a] += blk.hu(i, a) * y;
            }
        }
        qnv.copyFrom(qnv0);
        const IneqBlock &term = ineq_[n_stages];
        for (std::size_t i = 0; i < term.rows.size(); ++i) {
            double y = yblk[n_stages][i];
            for (int a = 0; a < nx; ++a)
                qnv[a] += term.hx(i, a) * y;
        }
    };

    // Solve the structured QP with the selected backend into ws_.sol.
    // Reports factorization failures and non-finite steps through the
    // status instead of throwing; the ladder below owns recovery.
    auto solve_kkt = [&]() -> FactorStatus {
        FactorStatus status;
        if (opt.kktSolver == KktSolver::Dense)
            status = solveDenseKkt(stages, qn, qnv, ws_.dx0, ws_.dense,
                                   sol, reg_bumps > 0 ? kkt_reg : 0.0);
        else
            status = solveRiccati(stages, qn, qnv, ws_.dx0, kkt_reg,
                                  ws_.riccati, sol);
        stats_.riccatiFlops += sol.flops;
        if (status != FactorStatus::Ok)
            return status;
        for (int k = 0; k <= n_stages; ++k)
            if (!allFinite(sol.dx[k]))
                return FactorStatus::NonFinite;
        for (int k = 0; k < n_stages; ++k)
            if (!allFinite(sol.du[k]))
                return FactorStatus::NonFinite;
        return FactorStatus::Ok;
    };

    /**
     * One rung of the in-solve recovery ladder. reg_helps marks
     * failures a larger Levenberg shift can cure (indefinite but
     * finite KKT blocks); NaN/Inf data and divergence skip straight to
     * the cold restart. Returns false when the ladder is exhausted, in
     * which case final_status carries the give-up classification.
     */
    RecoveryRung last_rung = RecoveryRung::None;
    auto recover = [&](SolveStatus kind, bool reg_helps) -> bool {
        ++stats_.recoveryAttempts;
        if (reg_helps && reg_bumps < kMaxRegularizationBumps) {
            kkt_reg = std::max(kkt_reg, 1e-8) * kRegularizationBumpFactor;
            ++reg_bumps;
            ++stats_.regularizationBumps;
            last_rung = RecoveryRung::RegBump;
            return true;
        }
        if (reg_helps && backoffs < 1) {
            alpha_cap *= 0.1;
            ++backoffs;
            ++stats_.stepBackoffs;
            last_rung = RecoveryRung::StepBackoff;
            return true;
        }
        if (cold_restarts < kMaxColdRestarts) {
            ++cold_restarts;
            ++stats_.coldRestarts;
            warm_ = false;
            alpha_cap = 1.0;
            initializeTrajectory(x0, refs);
            mu = initializeSlacks(refs);
            last_rung = RecoveryRung::ColdRestart;
            return true;
        }
        final_status = kind;
        last_rung = RecoveryRung::Exhausted;
        return false;
    };

    // Append one record to the iteration-trace ring (in-place write;
    // see SolveTrace). mu is passed explicitly because a cold restart
    // inside recover() resets the captured variable before the failed
    // iteration is recorded.
    auto record_iter = [&](int iteration, double eq_res, double comp,
                           double mu_at, double alpha, double step_inf,
                           FactorStatus factor, RecoveryRung rung) {
        if (!stats_.trace.enabled())
            return;
        IterationRecord rec;
        rec.iteration = iteration;
        rec.eqResidual = eq_res;
        rec.compAverage = comp;
        rec.mu = mu_at;
        rec.stepAlpha = alpha;
        rec.stepInf = step_inf;
        rec.regularization = kkt_reg;
        rec.factor = factor;
        rec.rung = rung;
        rec.regularizationBumps = stats_.regularizationBumps;
        rec.stepBackoffs = stats_.stepBackoffs;
        rec.coldRestarts = stats_.coldRestarts;
        stats_.trace.push(rec);
    };

    // Slack/dual steps for the primal direction under barrier targets
    // y, plus the fraction-to-boundary step length.
    auto compute_steps = [&]() {
        double alpha = 1.0;
        const double tau = kFractionToBoundary;
        for (int k = 0; k <= n_stages; ++k) {
            IneqBlock &blk = ineq_[k];
            std::size_t rows = blk.rows.size();
            if (rows == 0)
                continue;
            Vector &hdz = ws_.hdz;
            multiplyInto(blk.hx, sol.dx[k], hdz);
            if (k < n_stages)
                multiplyAddInto(blk.hu, sol.du[k], hdz);
            for (std::size_t i = 0; i < rows; ++i) {
                double sigma = cappedSigma(blk.lam[i], blk.s[i]);
                blk.ds[i] = -(blk.h[i] + blk.s[i]) - hdz[i];
                blk.dlam[i] =
                    sigma * hdz[i] + (yblk[k][i] - blk.lam[i]);
                if (blk.ds[i] < 0.0)
                    alpha = std::min(alpha, -tau * blk.s[i] / blk.ds[i]);
                if (blk.dlam[i] < 0.0)
                    alpha = std::min(alpha,
                                     -tau * blk.lam[i] / blk.dlam[i]);
            }
        }
        return alpha;
    };

    for (int iter = 0; iter < opt.maxIterations; ++iter) {
        // Anytime MPC: once the wall-clock budget is spent, stop and
        // return the best strictly feasible iterate so far. With a
        // zero budget this fires before the first iteration and the
        // warm-shifted previous plan is returned as-is.
        if (deadline_active && elapsed() >= opt.solveDeadlineSeconds) {
            final_status = SolveStatus::DeadlineMiss;
            break;
        }

        // --------------------------------------------------------
        // Evaluate stage data and build the Newton/LQR subproblem.
        // --------------------------------------------------------
        double eq_residual = 0.0;
        for (int k = 0; k < n_stages; ++k) {
            problem_.evalDynamics(xs_[k], us_[k], refs[k], dyn[k]);
            StageQp &st = stages[k];
            st.a.copyFrom(dyn[k].jx);
            st.b.copyFrom(dyn[k].ju);
            st.c.copyFrom(dyn[k].value);
            st.c -= xs_[k + 1];
            eq_residual = std::max(eq_residual, st.c.normInf());

            st.q.fill(0.0);
            st.r.fill(0.0);
            st.s.fill(0.0);
            qv0[k].fill(0.0);
            rv0[k].fill(0.0);

            if (np_run > 0) {
                problem_.evalRunningCost(xs_[k], us_[k], refs[k],
                                         cost_eval);
                const auto &w = problem_.runningWeights();
                // Gauss-Newton: H += 2 J^T W J, g += 2 J^T W r.
                for (int i = 0; i < np_run; ++i) {
                    double wi = 2.0 * w[i];
                    double ri = cost_eval.value[i];
                    for (int a = 0; a < nx; ++a) {
                        double ja = cost_eval.jx(i, a);
                        if (ja == 0.0 && ri == 0.0)
                            continue;
                        qv0[k][a] += wi * ja * ri;
                        for (int b = 0; b <= a; ++b)
                            st.q(a, b) += wi * ja * cost_eval.jx(i, b);
                    }
                    for (int a = 0; a < nu; ++a) {
                        double ja = cost_eval.ju(i, a);
                        rv0[k][a] += wi * ja * ri;
                        for (int b = 0; b <= a; ++b)
                            st.r(a, b) += wi * ja * cost_eval.ju(i, b);
                        for (int b = 0; b < nx; ++b)
                            st.s(a, b) += wi * ja * cost_eval.jx(i, b);
                    }
                }
            }

            // Barrier Hessian contributions of the stage inequalities.
            IneqBlock &blk = ineq_[k];
            if (!blk.rows.empty()) {
                problem_.evalRunningIneq(xs_[k], us_[k], refs[k],
                                         ineq_eval);
                evaluateIneq(blk, ineq_eval);
                for (std::size_t i = 0; i < blk.rows.size(); ++i) {
                    double sigma = cappedSigma(blk.lam[i], blk.s[i]);
                    for (int a = 0; a < nx; ++a) {
                        double ha = blk.hx(i, a);
                        if (ha != 0.0) {
                            for (int b = 0; b <= a; ++b)
                                st.q(a, b) += sigma * ha * blk.hx(i, b);
                        }
                    }
                    for (int a = 0; a < nu; ++a) {
                        double ha = blk.hu(i, a);
                        if (ha != 0.0) {
                            for (int b = 0; b <= a; ++b)
                                st.r(a, b) += sigma * ha * blk.hu(i, b);
                            for (int b = 0; b < nx; ++b)
                                st.s(a, b) += sigma * ha * blk.hx(i, b);
                        }
                    }
                }
            }

            // Mirror the lower triangles built above.
            for (int a = 0; a < nx; ++a)
                for (int b = a + 1; b < nx; ++b)
                    st.q(a, b) = st.q(b, a);
            for (int a = 0; a < nu; ++a)
                for (int b = a + 1; b < nu; ++b)
                    st.r(a, b) = st.r(b, a);
        }

        // NaN/Inf in the dynamics residual means the trajectory (or
        // the model evaluated on it) has gone non-numeric; no KKT
        // solve can fix that, so escalate straight to a cold restart.
        if (!std::isfinite(eq_residual)) {
            stats_.iterations = iter + 1;
            double mu_at = mu;
            bool again = recover(SolveStatus::NumericFailure, false);
            record_iter(iter + 1, eq_residual, stats_.compAverage,
                        mu_at, 0.0, 0.0, FactorStatus::Ok, last_rung);
            if (again)
                continue;
            break;
        }

        // Terminal stage.
        qn.fill(0.0);
        qnv0.fill(0.0);
        if (np_term > 0) {
            problem_.evalTerminalCost(xs_[n_stages], refs[n_stages],
                                      cost_eval);
            const auto &w = problem_.terminalWeights();
            for (int i = 0; i < np_term; ++i) {
                double wi = 2.0 * w[i];
                double ri = cost_eval.value[i];
                for (int a = 0; a < nx; ++a) {
                    double ja = cost_eval.jx(i, a);
                    if (ja == 0.0 && ri == 0.0)
                        continue;
                    qnv0[a] += wi * ja * ri;
                    for (int b = 0; b <= a; ++b)
                        qn(a, b) += wi * ja * cost_eval.jx(i, b);
                }
            }
        }
        IneqBlock &term = ineq_[n_stages];
        if (!term.rows.empty()) {
            problem_.evalTerminalIneq(xs_[n_stages], refs[n_stages],
                                      ineq_eval);
            evaluateIneq(term, ineq_eval);
            for (std::size_t i = 0; i < term.rows.size(); ++i) {
                double sigma = cappedSigma(term.lam[i], term.s[i]);
                for (int a = 0; a < nx; ++a) {
                    double ha = term.hx(i, a);
                    if (ha != 0.0) {
                        for (int b = 0; b <= a; ++b)
                            qn(a, b) += sigma * ha * term.hx(i, b);
                    }
                }
            }
        }
        for (int a = 0; a < nx; ++a)
            for (int b = a + 1; b < nx; ++b)
                qn(a, b) = qn(b, a);

        // Current average complementarity (for the adaptive centering).
        double comp_now = 0.0;
        std::size_t comp_rows = 0;
        for (const IneqBlock &blk : ineq_) {
            for (std::size_t i = 0; i < blk.rows.size(); ++i) {
                comp_now += blk.s[i] * blk.lam[i];
                ++comp_rows;
            }
        }
        if (comp_rows)
            comp_now /= comp_rows;

        // --------------------------------------------------------
        // Newton step: plain barrier step, or Mehrotra-style
        // predictor-corrector (affine solve -> adaptive centering ->
        // corrected solve).
        // --------------------------------------------------------
        ws_.dx0.copyFrom(x0);
        ws_.dx0 -= xs_[0];
        auto barrier_targets = [&](double mu_t, bool corrector) {
            for (int k = 0; k <= n_stages; ++k) {
                const IneqBlock &blk = ineq_[k];
                for (std::size_t i = 0; i < blk.rows.size(); ++i) {
                    double sigma = cappedSigma(blk.lam[i], blk.s[i]);
                    double y = blk.lam[i] + sigma * blk.h[i] +
                               mu_t / blk.s[i];
                    if (corrector)
                        y -= blk.ds[i] * blk.dlam[i] / blk.s[i];
                    yblk[k][i] = std::clamp(y, -1e12, 1e12);
                }
            }
        };

        double alpha = 1.0;
        FactorStatus kkt_status = FactorStatus::Ok;
        if (opt.predictorCorrector && comp_rows) {
            // Affine predictor: mu = 0.
            barrier_targets(0.0, false);
            apply_gradients();
            kkt_status = solve_kkt();
            if (kkt_status == FactorStatus::Ok) {
                double alpha_aff = compute_steps();
                // Complementarity after the full affine step.
                double comp_aff = 0.0;
                for (const IneqBlock &blk : ineq_) {
                    for (std::size_t i = 0; i < blk.rows.size(); ++i) {
                        comp_aff +=
                            (blk.s[i] + alpha_aff * blk.ds[i]) *
                            (blk.lam[i] + alpha_aff * blk.dlam[i]);
                    }
                }
                comp_aff /= comp_rows;
                double ratio =
                    comp_now > 0.0 ? comp_aff / comp_now : 0.0;
                double centering = ratio * ratio * ratio;
                mu = std::max(kMuMin, centering * comp_now);
                // Corrector with second-order term from the affine
                // steps.
                barrier_targets(mu, true);
                apply_gradients();
                kkt_status = solve_kkt();
                if (kkt_status == FactorStatus::Ok)
                    alpha = compute_steps();
            }
        } else {
            barrier_targets(mu, false);
            apply_gradients();
            kkt_status = solve_kkt();
            if (kkt_status == FactorStatus::Ok)
                alpha = compute_steps();
        }
        if (kkt_status != FactorStatus::Ok) {
            // An indefinite-but-finite KKT block responds to a bigger
            // Levenberg shift; NaN/Inf data does not.
            stats_.iterations = iter + 1;
            double mu_at = mu;
            bool again = recover(SolveStatus::NumericFailure,
                                 kkt_status != FactorStatus::NonFinite);
            record_iter(iter + 1, eq_residual, comp_now, mu_at, 0.0,
                        0.0, kkt_status, last_rung);
            if (again)
                continue;
            break;
        }
        alpha = std::min(alpha, alpha_cap);

        double step_inf = 0.0;
        for (int k = 0; k <= n_stages; ++k)
            step_inf = std::max(step_inf, sol.dx[k].normInf());
        for (int k = 0; k < n_stages; ++k)
            step_inf = std::max(step_inf, sol.du[k].normInf());

        // --------------------------------------------------------
        // Backtracking line search on an l1 merit function.
        // --------------------------------------------------------
        double max_lam = 0.0;
        for (const IneqBlock &blk : ineq_)
            max_lam = std::max(max_lam, blk.lam.size() ? blk.lam.normInf()
                                                       : 0.0);
        double rho = 10.0 * (1.0 + max_lam);
        for (int k = 0; k <= n_stages; ++k)
            ws_.trialS[k].copyFrom(ineq_[k].s);
        double merit0 =
            meritFunction(xs_, us_, ws_.trialS, x0, refs, mu, rho);

        double used_alpha = alpha;
        bool accepted = false;
        for (int ls = 0; ls < 8; ++ls) {
            for (int k = 0; k <= n_stages; ++k) {
                addScaledInto(xs_[k], sol.dx[k], used_alpha,
                              ws_.trialXs[k]);
                const IneqBlock &blk = ineq_[k];
                for (std::size_t i = 0; i < blk.rows.size(); ++i) {
                    ws_.trialS[k][i] = blk.s[i] + used_alpha * blk.ds[i];
                    ws_.trialLam[k][i] = std::min(
                        kLambdaCap,
                        blk.lam[i] + used_alpha * blk.dlam[i]);
                }
            }
            for (int k = 0; k < n_stages; ++k)
                addScaledInto(us_[k], sol.du[k], used_alpha,
                              ws_.trialUs[k]);
            double merit = meritFunction(ws_.trialXs, ws_.trialUs,
                                         ws_.trialS, x0, refs, mu, rho);
            if (merit <= merit0 + 1e-9 * std::abs(merit0) + 1e-12) {
                accepted = true;
                break;
            }
            used_alpha *= 0.5;
        }
        // Even if the merit check failed at every trial length, take the
        // smallest step rather than stalling; the barrier keeps iterates
        // strictly feasible.
        std::swap(xs_, ws_.trialXs);
        std::swap(us_, ws_.trialUs);
        for (int k = 0; k <= n_stages; ++k) {
            ineq_[k].s.copyFrom(ws_.trialS[k]);
            ineq_[k].lam.copyFrom(ws_.trialLam[k]);
        }
        (void)accepted;

        // --------------------------------------------------------
        // Divergence detection on the accepted iterate: NaN/Inf
        // anywhere, or magnitudes beyond the divergence threshold,
        // trigger the recovery ladder (cold restart rung).
        // --------------------------------------------------------
        bool finite_iterate = true;
        double iterate_inf = 0.0;
        for (int k = 0; k <= n_stages && finite_iterate; ++k) {
            finite_iterate = allFinite(xs_[k]) &&
                             allFinite(ineq_[k].s) &&
                             allFinite(ineq_[k].lam);
            if (finite_iterate)
                iterate_inf = std::max(iterate_inf, xs_[k].normInf());
        }
        for (int k = 0; k < n_stages && finite_iterate; ++k) {
            finite_iterate = allFinite(us_[k]);
            if (finite_iterate)
                iterate_inf = std::max(iterate_inf, us_[k].normInf());
        }
        if (!finite_iterate || iterate_inf > opt.divergenceThreshold) {
            stats_.iterations = iter + 1;
            double mu_at = mu;
            bool again =
                recover(finite_iterate ? SolveStatus::Diverged
                                       : SolveStatus::NumericFailure,
                        false);
            record_iter(iter + 1, eq_residual, stats_.compAverage,
                        mu_at, used_alpha, step_inf, FactorStatus::Ok,
                        last_rung);
            if (again)
                continue;
            break;
        }

        // --------------------------------------------------------
        // Barrier update and convergence test.
        // --------------------------------------------------------
        double comp_sum = 0.0;
        std::size_t comp_count = 0;
        for (const IneqBlock &blk : ineq_) {
            for (std::size_t i = 0; i < blk.rows.size(); ++i) {
                comp_sum += blk.s[i] * blk.lam[i];
                ++comp_count;
            }
        }
        double comp_avg = comp_count ? comp_sum / comp_count : 0.0;
        if (!opt.predictorCorrector) {
            mu = std::max(kMuMin, std::min(mu, kMuShrink * comp_avg));
        }

        stats_.iterations = iter + 1;
        stats_.eqResidual = eq_residual;
        stats_.compAverage = comp_avg;
        record_iter(iter + 1, eq_residual, comp_avg, mu, used_alpha,
                    step_inf, FactorStatus::Ok, RecoveryRung::None);

        if (step_inf * used_alpha < opt.tolerance &&
            eq_residual < 10.0 * opt.tolerance &&
            (comp_count == 0 || comp_avg < 1e-6)) {
            stats_.converged = true;
            final_status = SolveStatus::Converged;
            break;
        }
    }

    stats_.objective = problem_.objective(xs_, us_, refs);

    // Self-check verdict: the accelerator recovery ladder fell through
    // to the CPU fallback at least once, so the iterate mixes pre- and
    // post-detection arithmetic. This outranks the cross-check verdict
    // below because it names the cause (a detected hardware fault),
    // not just the symptom.
    if (opt.fixedPointTapes && statusUsable(final_status) &&
        problem_.accelFaultDetected()) {
        final_status = SolveStatus::AccelFault;
    }

    // Golden cross-check verdict: an iterate computed through a
    // fixed-point path that diverged from the double-precision model
    // beyond the fail band must not reach the actuators (or seed the
    // next warm start), however healthy the solver loop looked.
    if (opt.fixedPointTapes && statusUsable(final_status) &&
        problem_.numericHealth().degraded()) {
        final_status = SolveStatus::NumericDegraded;
    }

    // Usable statuses (converged, iteration-capped, deadline-capped)
    // carry a valid interior iterate that seeds the next warm start;
    // failure statuses drop it so the next call cold-starts instead of
    // iterating from a poisoned trajectory.
    const bool usable = statusUsable(final_status);
    warm_ = usable;
    if (usable || allFinite(us_[0]))
        result_.u0.copyFrom(us_[0]);
    return finish(final_status);
}

namespace
{

/** Write side of the problem-sized fields below: the usual encoding;
 *  the shape matters only to a read. */
template <class T, class... Shape>
bool
sizedField(support::CheckpointWriter &w, const T &x, Shape...)
{
    return field(w, x);
}

/** A vector whose length the problem fixes: the read fails unless the
 *  stored length is `n`, or 0 when `may_be_empty`. */
bool
sizedField(support::CheckpointReader &r, Vector &v, std::size_t n,
           bool may_be_empty)
{
    std::uint64_t stored = 0;
    if (!r.u64(&stored) || (stored != n && !(may_be_empty && stored == 0)))
        return false;
    if (v.size() != stored)
        v.resize(static_cast<std::size_t>(stored));
    return r.f64Array(v.data(), v.size());
}

/** A trajectory of `count` vectors of length `dim`, or none at all. */
bool
sizedField(support::CheckpointReader &r, std::vector<Vector> &vs,
           std::size_t count, std::size_t dim)
{
    std::uint64_t n = 0;
    if (!r.u64(&n) || (n != 0 && n != count))
        return false;
    vs.assign(static_cast<std::size_t>(n), Vector(dim));
    for (Vector &v : vs)
        if (!sizedField(r, v, dim, false))
            return false;
    return true;
}

} // namespace

template <class Io, class Self>
bool
IpmSolver::transfer(Io &io, Self &self)
{
    // xs_/us_ and result_.u0 stay empty until the first solve(), so the
    // payload may carry either nothing or full-size storage; a restore
    // sizes it from the problem dimensions, never from the payload.
    const auto stages = static_cast<std::size_t>(self.problem_.horizon());
    const auto nx = static_cast<std::size_t>(self.problem_.nx());
    const auto nu = static_cast<std::size_t>(self.problem_.nu());
    if (!field(io, self.warm_) ||
        !sizedField(io, self.xs_, stages + 1, nx) ||
        !sizedField(io, self.us_, stages, nu) ||
        !support::expectField(io, std::uint64_t{self.ineq_.size()}))
        return false;
    for (auto &blk : self.ineq_)
        if (!sizedField(io, blk.s, blk.s.size(), false) ||
            !sizedField(io, blk.lam, blk.lam.size(), false))
            return false;
    auto &res = self.result_;
    return sizedField(io, res.u0, nu, true) && field(io, res.converged) &&
           field(io, res.iterations) && field(io, res.objective) &&
           support::enumField<std::uint32_t>(io, res.status,
                                             SolveStatus::Shed) &&
           field(io, res.degraded);
}

void
IpmSolver::checkpoint(support::CheckpointWriter &w) const
{
    transfer(w, *this);
}

bool
IpmSolver::restore(support::CheckpointReader &r)
{
    if (transfer(r, *this))
        return true;
    warm_ = false;
    return false;
}

} // namespace robox::mpc
