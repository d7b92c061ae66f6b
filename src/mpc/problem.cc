/**
 * @file
 * Implementation of MpcProblem: symbolic discretization, derivative
 * generation, and tape compilation.
 */

#include "mpc/problem.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

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

/**
 * Compile a stage tape laid out as [value | d/dx | d/du]: the rows,
 * then each row's gradient in x, then each row's gradient in u, all
 * row-major. A terminal tape has no input block (nu = 0).
 */
sym::Tape
stageTape(const std::vector<sym::Expr> &rows, int nx, int nu, int total)
{
    std::vector<sym::Expr> outputs;
    for (const sym::Expr &r : rows)
        outputs.push_back(r);
    for (const sym::Expr &r : rows)
        for (int j = 0; j < nx; ++j)
            outputs.push_back(r.diff(j));
    for (const sym::Expr &r : rows)
        for (int j = 0; j < nu; ++j)
            outputs.push_back(r.diff(nx + j));
    return sym::Tape(outputs, total);
}

/** The nonzero Jacobian columns of a stage tape laid out as above:
 *  every output except those preloading the constant 0. */
JacobianPattern
jacobianPattern(const sym::Tape &tape, int rows, int nx, int nu)
{
    std::vector<bool> zero(static_cast<std::size_t>(tape.numSlots()));
    for (const sym::Tape::Preload &p : tape.preloads())
        zero[p.slot] = p.value == 0.0;
    const std::vector<int> &slot = tape.outputSlots();
    JacobianPattern pattern;
    pattern.x.resize(static_cast<std::size_t>(rows));
    pattern.u.resize(static_cast<std::size_t>(rows));
    for (int i = 0; i < rows; ++i) {
        for (int j = 0; j < nx; ++j)
            if (!zero[slot[rows + i * nx + j]])
                pattern.x[i].push_back(j);
        for (int j = 0; j < nu; ++j)
            if (!zero[slot[rows + rows * nx + i * nu + j]])
                pattern.u[i].push_back(j);
    }
    return pattern;
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

    dyn_tape_ = stageTape(discretize(), nx_, nu_, total);

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

    run_cost_tape_ = stageTape(run_res, nx_, nu_, total);
    term_cost_tape_ = stageTape(term_res, nx_, 0, total);
    run_cost_pattern_ = jacobianPattern(run_cost_tape_,
                                        numRunningResiduals(), nx_, nu_);
    term_cost_pattern_ = jacobianPattern(term_cost_tape_,
                                         numTerminalResiduals(), nx_, 0);

    // ------------------------------------------------------------
    // Inequality rows h <= 0: box bounds plus task constraints.
    // ------------------------------------------------------------
    std::vector<sym::Expr> run_rows;
    std::vector<sym::Expr> term_rows;

    auto add_bound_rows = [&](const sym::Expr &var, double lo, double hi,
                              std::vector<sym::Expr> &rows) {
        if (lo != -dsl::kUnbounded)
            rows.push_back(sym::Expr(lo) - var);
        if (hi != dsl::kUnbounded)
            rows.push_back(var - sym::Expr(hi));
    };

    for (int i = 0; i < nu_; ++i) {
        sym::Expr u = sym::Expr::variable(nx_ + i, model_.inputNames[i]);
        add_bound_rows(u, model_.inputLower[i], model_.inputUpper[i],
                       run_rows);
    }
    for (int i = 0; i < nx_; ++i) {
        sym::Expr x = sym::Expr::variable(i, model_.stateNames[i]);
        add_bound_rows(x, model_.stateLower[i], model_.stateUpper[i],
                       run_rows);
        add_bound_rows(x, model_.stateLower[i], model_.stateUpper[i],
                       term_rows);
    }

    for (const dsl::ConstraintTerm &c : model_.constraints) {
        std::vector<sym::Expr> *rows =
            c.terminal ? &term_rows : &run_rows;
        if (c.terminal && referencesRange(c.expr, nx_, nx_ + nu_)) {
            fatal("terminal constraint '{}' may not reference control "
                  "inputs", c.name);
        }
        if (c.isEquality) {
            // Pose e == v as a relaxed two-sided inequality so the
            // slack-based interior point method keeps strict interiors.
            const double eps = kEqualityRelaxation;
            rows->push_back(c.expr - sym::Expr(c.equalsValue + eps));
            rows->push_back(sym::Expr(c.equalsValue - eps) - c.expr);
        } else {
            if (c.lower != -dsl::kUnbounded)
                rows->push_back(sym::Expr(c.lower) - c.expr);
            if (c.upper != dsl::kUnbounded)
                rows->push_back(c.expr - sym::Expr(c.upper));
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

    run_ineq_tape_ = stageTape(run_rows, nx_, nu_, total);
    term_ineq_tape_ = stageTape(term_rows, nx_, 0, total);
    run_ineq_pattern_ = jacobianPattern(run_ineq_tape_, num_run_ineq_, nx_,
                                        nu_);
    term_ineq_pattern_ = jacobianPattern(term_ineq_tape_, num_term_ineq_,
                                         nx_, 0);

    // Size the evaluation scratch for the largest tape, so no solve
    // (the first included) grows it.
    std::size_t slots = 0;
    std::size_t outputs = 0;
    for (const sym::Tape *t : {&dyn_tape_, &run_cost_tape_,
                               &term_cost_tape_, &run_ineq_tape_,
                               &term_ineq_tape_}) {
        slots = std::max(slots, static_cast<std::size_t>(t->numSlots()));
        outputs = std::max(outputs, t->outputSlots().size());
    }
    tape_work_.resize(slots);
    if (options_.fixedPointTapes) {
        fixed_env_.resize(static_cast<std::size_t>(total));
        fixed_work_.reserve(slots);
        fixed_out_.reserve(outputs);
        if (options_.crossCheckFixedPoint)
            golden_work_.reserve(slots);
        if (options_.accelSelfCheck)
            parity_scratch_.reserve(fixed_env_.size());
    }
}

void
MpcProblem::runTape(const sym::Tape &tape, const Vector &x, const Vector *u,
                    const Vector &ref, std::size_t outputs) const
{
    // Shape validation happens once per solve at the IpmSolver::solve
    // entry (SolveStatus::BadInput); these per-stage hot-path checks
    // are debug-only so a malformed robot can never abort the shared
    // fleet process from in here.
    robox_assert_dbg(static_cast<int>(x.size()) == nx_);
    robox_assert_dbg(!u || static_cast<int>(u->size()) == nu_);
    robox_assert_dbg(static_cast<int>(ref.size()) == nref_);
    for (int i = 0; i < nx_; ++i)
        tape_work_[i] = x[i];
    for (int i = 0; i < nu_; ++i)
        tape_work_[nx_ + i] = u ? (*u)[i] : 0.0;
    for (int i = 0; i < nref_; ++i)
        tape_work_[nx_ + nu_ + i] = ref[i];
    if (options_.fixedPointTapes)
        runFixed(tape);
    else
        tape.evalInPlace(tape_work_, outputs);
}

void
MpcProblem::runFixed(const sym::Tape &tape) const
{
    // Accelerator datapath: quantize inputs, evaluate with saturating
    // Q14.17 arithmetic and LUT nonlinears, and dequantize the results.

    // One evaluation attempt: quantize afresh from the (uncorrupted)
    // host-side inputs, run the fault hook at the current cycle
    // coordinate, and — under self-checking execution — verify the
    // parity bit each quantized word carried from host write time.
    // Returns the number of parity detections; the cycle coordinate
    // advances per attempt, so a retry re-rolls the deterministic
    // fault hash exactly like a transient SEU clearing.
    auto attempt = [&]() -> std::uint64_t {
        const std::uint64_t cycle = tape_eval_counter_++;
        for (std::size_t i = 0; i < fixed_env_.size(); ++i)
            fixed_env_[i] = Fixed::fromDouble(tape_work_[i]);
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
                    fixed_env_[i].raw())) != parity_scratch_[i])
                ++errors;
        }
        numeric_health_.selfCheck.parityErrors += errors;
        return errors;
    };

    const std::size_t all = tape.outputSlots().size();
    std::uint64_t errors = attempt();
    if (errors > 0) {
        // Rung 1: re-execute; the upset was transient unless the hash
        // says otherwise.
        for (int reexec = 0;
             errors > 0 && reexec < kAccelMaxReexecutions; ++reexec) {
            ++numeric_health_.selfCheck.reexecutions;
            errors = attempt();
        }
        // Rung 2: reload the program image (the streams here are
        // known-good by construction, so only the reload is modeled)
        // and try once more.
        if (errors > 0) {
            ++numeric_health_.selfCheck.reloads;
            errors = attempt();
        }
        // Rung 3: abandon the accelerator for this evaluation and
        // serve it from the CPU double-precision path. The solve is
        // condemned to SolveStatus::AccelFault by the solver.
        if (errors > 0) {
            ++numeric_health_.selfCheck.cpuFallbacks;
            accel_fault_ = true;
            ++numeric_health_.tapeEvals;
            tape.evalInPlace(tape_work_, all);
            return;
        }
    }

    for (const Fixed &v : fixed_env_)
        numeric_health_.trackValue(v.toDouble());
    tape.evalFixedInto(fixed_env_, *fixed_math_, fixed_work_, fixed_out_);
    for (const Fixed &v : fixed_out_)
        numeric_health_.trackValue(v.toDouble());
    ++numeric_health_.tapeEvals;

    const std::vector<int> &slot = tape.outputSlots();
    if (options_.crossCheckFixedPoint) {
        // Golden model: the same tape in double precision over the
        // unquantized inputs. Divergence past the warn band is
        // suspicious; past the fail band (absolute AND relative) the
        // fixed-point result is unusable and the solve will be marked
        // NumericDegraded.
        golden_work_.resize(static_cast<std::size_t>(tape.numSlots()));
        std::copy_n(tape_work_.begin(), fixed_env_.size(),
                    golden_work_.begin());
        tape.evalInPlace(golden_work_, all);
        for (std::size_t i = 0; i < all; ++i) {
            const double golden = golden_work_[slot[i]];
            double err = std::abs(fixed_out_[i].toDouble() - golden);
            ++numeric_health_.crossChecks;
            if (err > numeric_health_.maxAbsError)
                numeric_health_.maxAbsError = err;
            if (err > kCrossCheckWarnAbs)
                ++numeric_health_.toleranceWarnings;
            if (err > kCrossCheckFailAbs &&
                err > kCrossCheckFailRel * std::abs(golden)) {
                ++numeric_health_.toleranceBreaches;
            }
        }
    }
    // Dequantize into the output slots, where every reader looks.
    for (std::size_t i = 0; i < all; ++i)
        tape_work_[slot[i]] = fixed_out_[i].toDouble();
}

void
MpcProblem::evalInto(const sym::Tape &tape, int rows, const Vector &x,
                     const Vector *u, const Vector &ref,
                     StageEval &out) const
{
    const std::vector<int> &slot = tape.outputSlots();
    runTape(tape, x, u, ref, slot.size());
    const auto urows = static_cast<std::size_t>(rows);
    const auto nx = static_cast<std::size_t>(nx_);
    const std::size_t nu = u ? static_cast<std::size_t>(nu_) : 0;
    const std::size_t jx_at = urows;
    const std::size_t ju_at = urows + urows * nx;
    auto entry = [&](std::size_t o) -> double & {
        if (o < jx_at)
            return out.value.data()[o];
        if (o < ju_at)
            return out.jx.data()[o - jx_at];
        return out.ju.data()[o - ju_at];
    };
    const bool shaped = out.value.size() == urows && out.jx.rows() == urows &&
                        out.jx.cols() == nx && out.ju.rows() == urows &&
                        out.ju.cols() == nu;
    // Fixed-point results quantize the constants too, so they never
    // leave the tape's double constants behind.
    const std::uint64_t serial =
        options_.fixedPointTapes ? 0 : tape.serial();
    if (serial != 0 && out.tapeSerial == serial && shaped) {
        for (int o : tape.computedOutputs())
            entry(static_cast<std::size_t>(o)) = tape_work_[slot[o]];
        // Debug builds check the contract: every entry, so every one
        // skipped above, holds the bits of its tape output.
        [[maybe_unused]] auto all_current = [&] {
            for (std::size_t o = 0; o < slot.size(); ++o)
                if (std::memcmp(&entry(o), &tape_work_[slot[o]],
                                sizeof(double)) != 0)
                    return false;
            return true;
        };
        robox_assert_dbg(all_current());
        return;
    }
    if (!shaped) {
        out.value.resize(urows);
        out.jx.resize(urows, nx);
        out.ju.resize(urows, nu);
    }
    for (std::size_t o = 0; o < slot.size(); ++o)
        entry(o) = tape_work_[slot[o]];
    out.tapeSerial = serial;
}

void
MpcProblem::valueInto(const sym::Tape &tape, int rows, const Vector &x,
                      const Vector *u, const Vector &ref,
                      Vector &out) const
{
    runTape(tape, x, u, ref, static_cast<std::size_t>(rows));
    if (out.size() != static_cast<std::size_t>(rows))
        out.resize(static_cast<std::size_t>(rows));
    const std::vector<int> &slot = tape.outputSlots();
    for (int i = 0; i < rows; ++i)
        out[i] = tape_work_[slot[i]];
}

void
MpcProblem::evalDynamics(const Vector &x, const Vector &u,
                         const Vector &ref, StageEval &out) const
{
    evalInto(dyn_tape_, nx_, x, &u, ref, out);
}

void
MpcProblem::evalRunningCost(const Vector &x, const Vector &u,
                            const Vector &ref, StageEval &out) const
{
    evalInto(run_cost_tape_, numRunningResiduals(), x, &u, ref, out);
}

void
MpcProblem::evalTerminalCost(const Vector &x, const Vector &ref,
                             StageEval &out) const
{
    evalInto(term_cost_tape_, numTerminalResiduals(), x, nullptr, ref,
             out);
}

void
MpcProblem::evalRunningIneq(const Vector &x, const Vector &u,
                            const Vector &ref, StageEval &out) const
{
    evalInto(run_ineq_tape_, num_run_ineq_, x, &u, ref, out);
}

void
MpcProblem::evalTerminalIneq(const Vector &x, const Vector &ref,
                             StageEval &out) const
{
    evalInto(term_ineq_tape_, num_term_ineq_, x, nullptr, ref, out);
}

double
MpcProblem::objective(const std::vector<Vector> &xs,
                      const std::vector<Vector> &us,
                      const std::vector<Vector> &refs) const
{
    robox_assert_dbg(xs.size() == us.size() + 1);
    // Value-only use of the tapes: only the residual rows run.
    double total = 0.0;
    const std::vector<int> &run_slot = run_cost_tape_.outputSlots();
    for (std::size_t k = 0; k < us.size(); ++k) {
        runTape(run_cost_tape_, xs[k], &us[k], refs[k],
                running_weights_.size());
        for (int i = 0; i < numRunningResiduals(); ++i) {
            const double r = tape_work_[run_slot[i]];
            total += running_weights_[i] * r * r;
        }
    }
    const std::vector<int> &term_slot = term_cost_tape_.outputSlots();
    runTape(term_cost_tape_, xs.back(), nullptr, refs.back(),
            terminal_weights_.size());
    for (int i = 0; i < numTerminalResiduals(); ++i) {
        const double r = tape_work_[term_slot[i]];
        total += terminal_weights_[i] * r * r;
    }
    return total;
}

void
MpcProblem::runningIneqValueInto(const Vector &x, const Vector &u,
                                 const Vector &ref, Vector &out) const
{
    valueInto(run_ineq_tape_, num_run_ineq_, x, &u, ref, out);
}

void
MpcProblem::terminalIneqValueInto(const Vector &x, const Vector &ref,
                                  Vector &out) const
{
    valueInto(term_ineq_tape_, num_term_ineq_, x, nullptr, ref, out);
}

void
MpcProblem::dynamicsValueInto(const Vector &x, const Vector &u,
                              const Vector &ref, Vector &out) const
{
    valueInto(dyn_tape_, nx_, x, &u, ref, out);
}

} // namespace robox::mpc
