/**
 * @file
 * Implementation of MpcProblem: symbolic discretization, derivative
 * generation, and tape compilation.
 */

#include "mpc/problem.hh"

#include <cmath>

#include "support/logging.hh"

namespace robox::mpc
{

namespace
{

/** Relaxation half-width used to pose equality task constraints as
 *  two-sided inequalities. */
constexpr double kEqualityRelaxation = 1e-6;

// Fixed-point cross-check bands (MpcOptions::crossCheckFixedPoint). A
// compared output past the warn band counts as a tolerance warning,
// sized well above honest Q14.17 rounding (LUT interpolation error is
// ~1e-4 on benchmark tapes). It is a breach only past both the
// absolute and the relative fail band: the conjunction keeps
// large-magnitude Jacobian entries from tripping on rounding while
// still catching a single upset bit above the low-order positions.
constexpr double kCrossCheckWarnAbs = 1e-2;
constexpr double kCrossCheckFailAbs = 0.25;
constexpr double kCrossCheckFailRel = 5e-2;

/** Self-check recovery rung 1: tape re-executions per detection
 *  before escalating to a reload and then the CPU fallback. */
constexpr int kAccelMaxReexecutions = 2;

/** True if the expression references any variable id in [lo, hi). */
bool
referencesRange(const sym::Expr &e, int lo, int hi)
{
    for (int id : e.variables())
        if (id >= lo && id < hi)
            return true;
    return false;
}

} // namespace

std::vector<sym::Expr>
MpcProblem::discretize() const
{
    const int nx = nx_;
    const int total = nx_ + nu_ + nref_;
    const double dt = options_.dt;
    const std::vector<sym::Expr> &f = model_.dynamics;

    auto state_var = [&](int i) {
        return sym::Expr::variable(i, model_.stateNames[i]);
    };

    if (options_.integrator == Integrator::Euler) {
        std::vector<sym::Expr> next(nx);
        for (int i = 0; i < nx; ++i)
            next[i] = state_var(i) + sym::Expr(dt) * f[i];
        return next;
    }

    // Classic RK4, composed symbolically via substitution of the state
    // variables by intermediate stage estimates.
    auto shift_state = [&](const std::vector<sym::Expr> &k, double scale) {
        std::vector<sym::Expr> repl(total);
        std::vector<bool> active(total, false);
        for (int i = 0; i < nx; ++i) {
            repl[i] = state_var(i) + sym::Expr(scale) * k[i];
            active[i] = true;
        }
        std::vector<sym::Expr> out(nx);
        for (int i = 0; i < nx; ++i)
            out[i] = f[i].substitute(repl, active);
        return out;
    };

    std::vector<sym::Expr> k1 = f;
    std::vector<sym::Expr> k2 = shift_state(k1, dt / 2.0);
    std::vector<sym::Expr> k3 = shift_state(k2, dt / 2.0);
    std::vector<sym::Expr> k4 = shift_state(k3, dt);

    std::vector<sym::Expr> next(nx);
    for (int i = 0; i < nx; ++i) {
        next[i] = state_var(i) +
                  sym::Expr(dt / 6.0) *
                      (k1[i] + sym::Expr(2.0) * k2[i] +
                       sym::Expr(2.0) * k3[i] + k4[i]);
    }
    return next;
}

MpcProblem::MpcProblem(const dsl::ModelSpec &model,
                       const MpcOptions &options)
    : model_(model), options_(options), nx_(model.nx()), nu_(model.nu()),
      nref_(model.nref())
{
    if (options_.horizon < 1)
        fatal("MPC horizon must be at least 1, got {}", options_.horizon);
    if (options_.dt <= 0.0)
        fatal("MPC dt must be positive, got {}", options_.dt);
    if (options_.fixedPointTapes)
        fixed_math_ = std::make_unique<FixedMath>(options_.lutEntries);

    const int total = nx_ + nu_ + nref_;

    // ------------------------------------------------------------
    // Dynamics tape: [F | dF/dx row-major | dF/du row-major].
    // ------------------------------------------------------------
    std::vector<sym::Expr> f_next = discretize();
    std::vector<sym::Expr> dyn_outputs;
    dyn_outputs.reserve(nx_ + nx_ * nx_ + nx_ * nu_);
    for (int i = 0; i < nx_; ++i)
        dyn_outputs.push_back(f_next[i]);
    for (int i = 0; i < nx_; ++i)
        for (int j = 0; j < nx_; ++j)
            dyn_outputs.push_back(f_next[i].diff(j));
    for (int i = 0; i < nx_; ++i)
        for (int j = 0; j < nu_; ++j)
            dyn_outputs.push_back(f_next[i].diff(nx_ + j));
    dyn_tape_ = sym::Tape(dyn_outputs, total);

    // ------------------------------------------------------------
    // Penalty residual tapes.
    // ------------------------------------------------------------
    std::vector<sym::Expr> run_res;
    std::vector<sym::Expr> term_res;
    for (const dsl::PenaltyTerm &p : model_.penalties) {
        if (p.terminal) {
            if (referencesRange(p.expr, nx_, nx_ + nu_)) {
                fatal("terminal penalty '{}' may not reference control "
                      "inputs", p.name);
            }
            term_res.push_back(p.expr);
            terminal_weights_.push_back(p.weight);
        } else {
            run_res.push_back(p.expr);
            running_weights_.push_back(p.weight);
        }
    }

    std::vector<sym::Expr> run_cost_outputs;
    for (const sym::Expr &r : run_res)
        run_cost_outputs.push_back(r);
    for (const sym::Expr &r : run_res)
        for (int j = 0; j < nx_; ++j)
            run_cost_outputs.push_back(r.diff(j));
    for (const sym::Expr &r : run_res)
        for (int j = 0; j < nu_; ++j)
            run_cost_outputs.push_back(r.diff(nx_ + j));
    run_cost_tape_ = sym::Tape(run_cost_outputs, total);

    std::vector<sym::Expr> term_cost_outputs;
    for (const sym::Expr &r : term_res)
        term_cost_outputs.push_back(r);
    for (const sym::Expr &r : term_res)
        for (int j = 0; j < nx_; ++j)
            term_cost_outputs.push_back(r.diff(j));
    term_cost_tape_ = sym::Tape(term_cost_outputs, total);

    // ------------------------------------------------------------
    // Inequality rows h <= 0: box bounds plus task constraints.
    // ------------------------------------------------------------
    std::vector<sym::Expr> run_rows;
    std::vector<sym::Expr> term_rows;

    auto add_bound_rows = [&](const sym::Expr &var, double lo, double hi,
                              const std::string &name,
                              std::vector<sym::Expr> &rows,
                              std::vector<std::string> &names) {
        if (lo != -dsl::kUnbounded) {
            rows.push_back(sym::Expr(lo) - var);
            names.push_back(name + " >= " + std::to_string(lo));
        }
        if (hi != dsl::kUnbounded) {
            rows.push_back(var - sym::Expr(hi));
            names.push_back(name + " <= " + std::to_string(hi));
        }
    };

    for (int i = 0; i < nu_; ++i) {
        sym::Expr u = sym::Expr::variable(nx_ + i, model_.inputNames[i]);
        add_bound_rows(u, model_.inputLower[i], model_.inputUpper[i],
                       model_.inputNames[i], run_rows, run_ineq_names_);
    }
    for (int i = 0; i < nx_; ++i) {
        sym::Expr x = sym::Expr::variable(i, model_.stateNames[i]);
        add_bound_rows(x, model_.stateLower[i], model_.stateUpper[i],
                       model_.stateNames[i], run_rows, run_ineq_names_);
        add_bound_rows(x, model_.stateLower[i], model_.stateUpper[i],
                       model_.stateNames[i], term_rows, term_ineq_names_);
    }

    for (const dsl::ConstraintTerm &c : model_.constraints) {
        std::vector<sym::Expr> *rows =
            c.terminal ? &term_rows : &run_rows;
        std::vector<std::string> *names =
            c.terminal ? &term_ineq_names_ : &run_ineq_names_;
        if (c.terminal && referencesRange(c.expr, nx_, nx_ + nu_)) {
            fatal("terminal constraint '{}' may not reference control "
                  "inputs", c.name);
        }
        if (c.isEquality) {
            // Pose e == v as a relaxed two-sided inequality so the
            // slack-based interior point method keeps strict interiors.
            const double eps = kEqualityRelaxation;
            rows->push_back(c.expr - sym::Expr(c.equalsValue + eps));
            names->push_back(c.name + " == upper");
            rows->push_back(sym::Expr(c.equalsValue - eps) - c.expr);
            names->push_back(c.name + " == lower");
        } else {
            if (c.lower != -dsl::kUnbounded) {
                rows->push_back(sym::Expr(c.lower) - c.expr);
                names->push_back(c.name + " lower");
            }
            if (c.upper != dsl::kUnbounded) {
                rows->push_back(c.expr - sym::Expr(c.upper));
                names->push_back(c.name + " upper");
            }
        }
    }

    num_run_ineq_ = static_cast<int>(run_rows.size());
    run_row_uses_state_.reserve(run_rows.size());
    run_row_uses_input_.reserve(run_rows.size());
    for (const sym::Expr &h : run_rows) {
        run_row_uses_state_.push_back(referencesRange(h, 0, nx_));
        run_row_uses_input_.push_back(
            referencesRange(h, nx_, nx_ + nu_));
    }
    num_term_ineq_ = static_cast<int>(term_rows.size());

    std::vector<sym::Expr> run_ineq_outputs;
    for (const sym::Expr &h : run_rows)
        run_ineq_outputs.push_back(h);
    for (const sym::Expr &h : run_rows)
        for (int j = 0; j < nx_; ++j)
            run_ineq_outputs.push_back(h.diff(j));
    for (const sym::Expr &h : run_rows)
        for (int j = 0; j < nu_; ++j)
            run_ineq_outputs.push_back(h.diff(nx_ + j));
    run_ineq_tape_ = sym::Tape(run_ineq_outputs, total);

    std::vector<sym::Expr> term_ineq_outputs;
    for (const sym::Expr &h : term_rows)
        term_ineq_outputs.push_back(h);
    for (const sym::Expr &h : term_rows)
        for (int j = 0; j < nx_; ++j)
            term_ineq_outputs.push_back(h.diff(j));
    term_ineq_tape_ = sym::Tape(term_ineq_outputs, total);
}

void
MpcProblem::packRunning(const Vector &x, const Vector &u,
                        const Vector &ref) const
{
    // Shape validation happens once per solve at the IpmSolver::solve
    // entry (SolveStatus::BadInput); these per-stage hot-path checks
    // are debug-only so a malformed robot can never abort the shared
    // fleet process from in here.
    robox_assert_dbg(static_cast<int>(x.size()) == nx_);
    robox_assert_dbg(static_cast<int>(u.size()) == nu_);
    robox_assert_dbg(static_cast<int>(ref.size()) == nref_);
    env_.assign(static_cast<std::size_t>(nx_ + nu_ + nref_), 0.0);
    for (int i = 0; i < nx_; ++i)
        env_[i] = x[i];
    for (int i = 0; i < nu_; ++i)
        env_[nx_ + i] = u[i];
    for (int i = 0; i < nref_; ++i)
        env_[nx_ + nu_ + i] = ref[i];
}

void
MpcProblem::packTerminal(const Vector &x, const Vector &ref) const
{
    robox_assert_dbg(static_cast<int>(x.size()) == nx_);
    robox_assert_dbg(static_cast<int>(ref.size()) == nref_);
    env_.assign(static_cast<std::size_t>(nx_ + nu_ + nref_), 0.0);
    for (int i = 0; i < nx_; ++i)
        env_[i] = x[i];
    for (int i = 0; i < nref_; ++i)
        env_[nx_ + nu_ + i] = ref[i];
}

const std::vector<double> &
MpcProblem::runTape(const sym::Tape &tape) const
{
    if (!options_.fixedPointTapes) {
        tape.evalInto(env_, tape_work_, tape_out_);
        return tape_out_;
    }
    // Accelerator datapath: quantize inputs, evaluate with saturating
    // Q14.17 arithmetic and LUT nonlinears, and dequantize the results.
    fixed_env_.resize(env_.size());

    // One evaluation attempt: quantize afresh from the (uncorrupted)
    // host-side environment, run the fault hook at the current cycle
    // coordinate, and — under self-checking execution — verify the
    // parity bit each quantized word carried from host write time.
    // Returns the number of parity detections; the cycle coordinate
    // advances per attempt, so a retry re-rolls the deterministic
    // fault hash exactly like a transient SEU clearing.
    auto attempt = [&]() -> std::uint64_t {
        const std::uint64_t cycle = tape_eval_counter_++;
        for (std::size_t i = 0; i < env_.size(); ++i)
            fixed_env_[i] = Fixed::fromDouble(env_[i]);
        if (!fault_hook_)
            return 0;
        if (!options_.accelSelfCheck) {
            numeric_health_.faultsInjected +=
                fault_hook_(fixed_env_, cycle);
            return 0;
        }
        parity_scratch_.resize(fixed_env_.size());
        for (std::size_t i = 0; i < fixed_env_.size(); ++i)
            parity_scratch_[i] = static_cast<std::uint8_t>(parity32(
                static_cast<std::uint32_t>(fixed_env_[i].raw())));
        numeric_health_.faultsInjected +=
            fault_hook_(fixed_env_, cycle);
        std::uint64_t errors = 0;
        for (std::size_t i = 0; i < fixed_env_.size(); ++i) {
            ++numeric_health_.selfCheck.parityChecks;
            if (parity32(static_cast<std::uint32_t>(
                    fixed_env_[i].raw())) == parity_scratch_[i])
                continue;
            ++numeric_health_.selfCheck.parityErrors;
            ++errors;
            if (accel_fault_reports_.size() < kMaxAccelFaultReports) {
                accel_fault_reports_.push_back(
                    {FaultSite::Scratchpad, cycle,
                     static_cast<std::uint64_t>(i),
                     FaultDetector::Parity, AccelRecoveryRung::None});
            }
        }
        return errors;
    };

    // Stamp the reports a failed attempt produced with the recovery
    // rung that answers them.
    auto stamp = [&](std::size_t from, AccelRecoveryRung rung) {
        for (std::size_t i = from; i < accel_fault_reports_.size(); ++i)
            accel_fault_reports_[i].rung = rung;
    };

    std::size_t mark = accel_fault_reports_.size();
    std::uint64_t errors = attempt();
    if (errors > 0) {
        // Rung 1: re-execute; the upset was transient unless the hash
        // says otherwise.
        int reexec = 0;
        while (errors > 0 && reexec < kAccelMaxReexecutions) {
            stamp(mark, AccelRecoveryRung::Reexecute);
            ++numeric_health_.selfCheck.reexecutions;
            ++reexec;
            mark = accel_fault_reports_.size();
            errors = attempt();
        }
        // Rung 2: reload the program image (its checksum re-verified
        // on the way in; the streams here are known-good by
        // construction, so only the check is modeled) and try once
        // more.
        if (errors > 0) {
            stamp(mark, AccelRecoveryRung::Reload);
            ++numeric_health_.selfCheck.reloads;
            ++numeric_health_.selfCheck.checksumChecks;
            mark = accel_fault_reports_.size();
            errors = attempt();
        }
        // Rung 3: abandon the accelerator for this evaluation and
        // serve it from the CPU double-precision path. The solve is
        // condemned to SolveStatus::AccelFault by the solver.
        if (errors > 0) {
            stamp(mark, AccelRecoveryRung::CpuFallback);
            ++numeric_health_.selfCheck.cpuFallbacks;
            accel_fault_ = true;
            ++numeric_health_.tapeEvals;
            tape.evalInto(env_, tape_work_, tape_out_);
            return tape_out_;
        }
    }

    for (const Fixed &v : fixed_env_)
        numeric_health_.trackValue(v.toDouble());
    tape.evalFixedInto(fixed_env_, *fixed_math_, fixed_work_, fixed_out_);
    tape_out_.resize(fixed_out_.size());
    for (std::size_t i = 0; i < fixed_out_.size(); ++i) {
        tape_out_[i] = fixed_out_[i].toDouble();
        numeric_health_.trackValue(tape_out_[i]);
    }
    ++numeric_health_.tapeEvals;

    if (options_.crossCheckFixedPoint) {
        // Golden model: the same tape in double precision over the
        // unquantized environment. Divergence past the warn band is
        // suspicious; past the fail band (absolute AND relative) the
        // fixed-point result is unusable and the solve will be marked
        // NumericDegraded.
        tape.evalInto(env_, golden_work_, golden_out_);
        for (std::size_t i = 0; i < golden_out_.size(); ++i) {
            double err = std::abs(tape_out_[i] - golden_out_[i]);
            ++numeric_health_.crossChecks;
            if (err > numeric_health_.maxAbsError)
                numeric_health_.maxAbsError = err;
            if (err > kCrossCheckWarnAbs)
                ++numeric_health_.toleranceWarnings;
            if (err > kCrossCheckFailAbs &&
                err > kCrossCheckFailRel * std::abs(golden_out_[i])) {
                ++numeric_health_.toleranceBreaches;
            }
        }
    }
    return tape_out_;
}

namespace
{

/** Unpack a tape result laid out as [value | Jx | Ju]. The StageEval's
 *  buffers are reused when already shaped, so repeated evaluation into
 *  the same StageEval does not allocate. */
void
unpack(const std::vector<double> &out, int rows, int nx, int nu,
       StageEval &eval)
{
    const std::size_t urows = static_cast<std::size_t>(rows);
    if (eval.value.size() != urows)
        eval.value.resize(urows);
    if (eval.jx.rows() != urows ||
        eval.jx.cols() != static_cast<std::size_t>(nx))
        eval.jx.resize(urows, nx);
    if (eval.ju.rows() != urows ||
        eval.ju.cols() != static_cast<std::size_t>(nu))
        eval.ju.resize(urows, nu);
    for (int i = 0; i < rows; ++i)
        eval.value[i] = out[i];
    int at = rows;
    for (int i = 0; i < rows; ++i)
        for (int j = 0; j < nx; ++j)
            eval.jx(i, j) = out[at++];
    for (int i = 0; i < rows; ++i)
        for (int j = 0; j < nu; ++j)
            eval.ju(i, j) = out[at++];
}

} // namespace

void
MpcProblem::evalDynamics(const Vector &x, const Vector &u,
                         const Vector &ref, StageEval &out) const
{
    packRunning(x, u, ref);
    unpack(runTape(dyn_tape_), nx_, nx_, nu_, out);
}

void
MpcProblem::evalRunningCost(const Vector &x, const Vector &u,
                            const Vector &ref, StageEval &out) const
{
    packRunning(x, u, ref);
    unpack(runTape(run_cost_tape_), numRunningResiduals(), nx_, nu_, out);
}

void
MpcProblem::evalTerminalCost(const Vector &x, const Vector &ref,
                             StageEval &out) const
{
    packTerminal(x, ref);
    unpack(runTape(term_cost_tape_), numTerminalResiduals(), nx_, 0, out);
}

void
MpcProblem::evalRunningIneq(const Vector &x, const Vector &u,
                            const Vector &ref, StageEval &out) const
{
    packRunning(x, u, ref);
    unpack(runTape(run_ineq_tape_), num_run_ineq_, nx_, nu_, out);
}

void
MpcProblem::evalTerminalIneq(const Vector &x, const Vector &ref,
                             StageEval &out) const
{
    packTerminal(x, ref);
    unpack(runTape(term_ineq_tape_), num_term_ineq_, nx_, 0, out);
}

double
MpcProblem::objective(const std::vector<Vector> &xs,
                      const std::vector<Vector> &us,
                      const Vector &ref) const
{
    std::vector<Vector> refs(xs.size(), ref);
    return objective(xs, us, refs);
}

double
MpcProblem::objective(const std::vector<Vector> &xs,
                      const std::vector<Vector> &us,
                      const std::vector<Vector> &refs) const
{
    robox_assert_dbg(xs.size() == us.size() + 1);
    double total = 0.0;
    for (std::size_t k = 0; k < us.size(); ++k) {
        // Value-only use of the tapes; Jacobian slots are ignored.
        packRunning(xs[k], us[k], refs[k]);
        const auto &out = runTape(run_cost_tape_);
        for (int i = 0; i < numRunningResiduals(); ++i)
            total += running_weights_[i] * out[i] * out[i];
    }
    packTerminal(xs.back(), refs.back());
    const auto &out = runTape(term_cost_tape_);
    for (int i = 0; i < numTerminalResiduals(); ++i)
        total += terminal_weights_[i] * out[i] * out[i];
    return total;
}

Vector
MpcProblem::runningIneqValue(const Vector &x, const Vector &u,
                             const Vector &ref) const
{
    Vector h;
    runningIneqValueInto(x, u, ref, h);
    return h;
}

void
MpcProblem::runningIneqValueInto(const Vector &x, const Vector &u,
                                 const Vector &ref, Vector &out) const
{
    packRunning(x, u, ref);
    const auto &vals = runTape(run_ineq_tape_);
    if (out.size() != static_cast<std::size_t>(num_run_ineq_))
        out.resize(static_cast<std::size_t>(num_run_ineq_));
    for (int i = 0; i < num_run_ineq_; ++i)
        out[i] = vals[i];
}

Vector
MpcProblem::terminalIneqValue(const Vector &x, const Vector &ref) const
{
    Vector h;
    terminalIneqValueInto(x, ref, h);
    return h;
}

void
MpcProblem::terminalIneqValueInto(const Vector &x, const Vector &ref,
                                  Vector &out) const
{
    packTerminal(x, ref);
    const auto &vals = runTape(term_ineq_tape_);
    if (out.size() != static_cast<std::size_t>(num_term_ineq_))
        out.resize(static_cast<std::size_t>(num_term_ineq_));
    for (int i = 0; i < num_term_ineq_; ++i)
        out[i] = vals[i];
}

Vector
MpcProblem::dynamicsValue(const Vector &x, const Vector &u,
                          const Vector &ref) const
{
    Vector f;
    dynamicsValueInto(x, u, ref, f);
    return f;
}

void
MpcProblem::dynamicsValueInto(const Vector &x, const Vector &u,
                              const Vector &ref, Vector &out) const
{
    packRunning(x, u, ref);
    const auto &vals = runTape(dyn_tape_);
    if (out.size() != static_cast<std::size_t>(nx_))
        out.resize(static_cast<std::size_t>(nx_));
    for (int i = 0; i < nx_; ++i)
        out[i] = vals[i];
}

} // namespace robox::mpc
