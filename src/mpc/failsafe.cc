/**
 * @file
 * Implementation of the control-layer degradation helpers.
 */

#include "mpc/failsafe.hh"

#include <algorithm>
#include <climits>
#include <cmath>

#include "mpc/checkpoint_io.hh"
#include "support/logging.hh"

namespace robox::mpc
{

void
boxProjectedZero(const dsl::ModelSpec &model, Vector &u)
{
    const auto nu = static_cast<std::size_t>(model.nu());
    if (u.size() != nu)
        u.resize(nu);
    for (std::size_t i = 0; i < nu; ++i)
        u[i] = std::clamp(0.0, model.inputLower[i], model.inputUpper[i]);
}

BackupPlan::BackupPlan(const dsl::ModelSpec &model)
    : model_(&model),
      command_(static_cast<std::size_t>(model.nu()))
{
}

void
BackupPlan::accept(const std::vector<Vector> &inputs)
{
    if (plan_.size() != inputs.size())
        plan_.resize(inputs.size());
    for (std::size_t k = 0; k < inputs.size(); ++k) {
        if (plan_[k].size() != inputs[k].size())
            plan_[k].resize(inputs[k].size());
        plan_[k].copyFrom(inputs[k]);
    }
    // The plan's stage-0 input was (conceptually) applied by the
    // accepting step, so the first backup command is stage 1: the
    // input the accepted plan intended for the following period.
    cursor_ = 1;
    consecutive_ = 0;
}

const Vector &
BackupPlan::command()
{
    if (consecutive_ < INT_MAX)
        ++consecutive_;
    if (plan_.empty()) {
        // Never had a plan: the safest structured command available
        // is zero projected into the actuator box.
        boxProjectedZero(*model_, command_);
        return command_;
    }
    const int nu = model_->nu();
    const std::size_t stage = std::min(cursor_, plan_.size() - 1);
    const Vector &u = plan_[stage];
    for (int i = 0; i < nu; ++i) {
        double v = std::isfinite(u[i]) ? u[i] : 0.0;
        command_[i] = std::clamp(v, model_->inputLower[i],
                                 model_->inputUpper[i]);
    }
    if (cursor_ + 1 < plan_.size())
        ++cursor_;
    return command_;
}

void
BackupPlan::serve(IpmSolver::Result &result)
{
    const Vector &u = command();
    if (result.u0.size() != u.size())
        result.u0.resize(u.size());
    result.u0.copyFrom(u);
    result.degraded = true;
}

bool
BackupPlan::settle(IpmSolver::Result &result, const IpmSolver &solver)
{
    if (statusUsable(result.status)) {
        accept(solver.inputTrajectory());
        return true;
    }
    serve(result);
    return false;
}

void
BackupPlan::skip(std::size_t stages)
{
    if (plan_.size() <= 1)
        return; // Nothing to advance within; command() already pins.
    cursor_ = std::min(cursor_ + stages, plan_.size() - 1);
}

void
BackupPlan::clear()
{
    plan_.clear();
    cursor_ = 0;
    consecutive_ = 0;
}

template <class Io, class Self>
bool
BackupPlan::transfer(Io &io, Self &self)
{
    // command() reads nu entries of whichever stage it replays. The
    // cursor never passes max(1, last stage); past it, command()'s
    // increment would wrap the tail back to stage 0.
    const auto nu = static_cast<std::size_t>(self.model_->nu());
    return sizedField(io, self.plan_, nu) && field(io, self.cursor_) &&
           self.cursor_ < std::max<std::size_t>(2, self.plan_.size()) &&
           field(io, self.consecutive_) && self.consecutive_ >= 0;
}

void
BackupPlan::checkpoint(support::CheckpointWriter &w) const
{
    transfer(w, *this);
}

bool
BackupPlan::restore(support::CheckpointReader &r)
{
    if (transfer(r, *this))
        return true;
    clear();
    return false;
}

SolverHealth::SolverHealth(const std::string &name, double latency_hi)
    : group_(name),
      solves_("solves", "Total solve() invocations"),
      converged_("converged", "Solves that converged to tolerance"),
      maxIterations_("max_iterations", "Solves stopped by the iteration cap"),
      deadlineMisses_("deadline_misses", "Solves stopped by the wall-clock budget"),
      numericFailures_("numeric_failures", "Solves lost to KKT/NaN failures"),
      diverged_("diverged", "Solves lost to divergence"),
      badInput_("bad_input", "Solves refused for NaN/Inf inputs"),
      numericDegraded_("numeric_degraded",
                       "Solves failing the fixed-point golden cross-check"),
      accelFaults_("accel_faults",
                   "Solves condemned by the accelerator recovery ladder"),
      degradedBudget_("degraded_budget",
                      "Solves run under a tightened overload budget"),
      servedFromBackup_("served_from_backup",
                        "Periods served from the backup-plan tail"),
      shed_("shed", "Periods shed outright under overload"),
      recoveryAttempts_("recovery_attempts", "Recovery-ladder activations"),
      coldRestarts_("cold_restarts", "In-solve warm-start resets"),
      degraded_("degraded_steps", "Control periods served by the backup plan"),
      saturations_("saturations", "Fixed-point saturation events"),
      divByZeros_("div_by_zeros", "Fixed-point division-by-zero events"),
      faultsInjected_("faults_injected", "Injected fault-engine bit flips"),
      parityErrors_("parity_errors",
                    "Self-check parity detections on accelerator words"),
      accelReexecutions_("accel_reexecutions",
                         "Recovery rung 1: tape re-executions"),
      accelReloads_("accel_reloads",
                    "Recovery rung 2: program-image reloads"),
      accelCpuFallbacks_("accel_cpu_fallbacks",
                         "Recovery rung 3: CPU double-precision fallbacks"),
      latency_("solve_seconds", "Per-solve wall time", 0.0, latency_hi, 64)
{
    group_.add(&solves_);
    group_.add(&converged_);
    group_.add(&maxIterations_);
    group_.add(&deadlineMisses_);
    group_.add(&numericFailures_);
    group_.add(&diverged_);
    group_.add(&badInput_);
    group_.add(&numericDegraded_);
    group_.add(&accelFaults_);
    group_.add(&degradedBudget_);
    group_.add(&servedFromBackup_);
    group_.add(&shed_);
    group_.add(&recoveryAttempts_);
    group_.add(&coldRestarts_);
    group_.add(&degraded_);
    group_.add(&saturations_);
    group_.add(&divByZeros_);
    group_.add(&faultsInjected_);
    group_.add(&parityErrors_);
    group_.add(&accelReexecutions_);
    group_.add(&accelReloads_);
    group_.add(&accelCpuFallbacks_);
    group_.add(&latency_);
}

void
SolverHealth::record(const SolveStats &stats)
{
    ++solves_;
    switch (stats.status) {
      case SolveStatus::Converged: ++converged_; break;
      case SolveStatus::MaxIterations: ++maxIterations_; break;
      case SolveStatus::DeadlineMiss: ++deadlineMisses_; break;
      case SolveStatus::NumericFailure: ++numericFailures_; break;
      case SolveStatus::Diverged: ++diverged_; break;
      case SolveStatus::BadInput: ++badInput_; break;
      case SolveStatus::NumericDegraded: ++numericDegraded_; break;
      case SolveStatus::AccelFault: ++accelFaults_; break;
      case SolveStatus::DegradedBudget: ++degradedBudget_; break;
      case SolveStatus::ServedFromBackup: ++servedFromBackup_; break;
      case SolveStatus::Shed: ++shed_; break;
      case SolveStatus::Unsolved: break;
    }
    recoveryAttempts_ += stats.recoveryAttempts;
    coldRestarts_ += stats.coldRestarts;
    saturations_ += static_cast<double>(stats.numeric.saturations);
    divByZeros_ += static_cast<double>(stats.numeric.divByZeros);
    faultsInjected_ += static_cast<double>(stats.numeric.faultsInjected);
    const SelfCheckStats &sc = stats.numeric.selfCheck;
    parityErrors_ += static_cast<double>(sc.parityErrors);
    accelReexecutions_ += static_cast<double>(sc.reexecutions);
    accelReloads_ += static_cast<double>(sc.reloads);
    accelCpuFallbacks_ += static_cast<double>(sc.cpuFallbacks);
    latency_.sample(stats.solveSeconds);
}

double
SolverHealth::statusCount(SolveStatus status) const
{
    switch (status) {
      case SolveStatus::Converged: return converged_.value();
      case SolveStatus::MaxIterations: return maxIterations_.value();
      case SolveStatus::DeadlineMiss: return deadlineMisses_.value();
      case SolveStatus::NumericFailure: return numericFailures_.value();
      case SolveStatus::Diverged: return diverged_.value();
      case SolveStatus::BadInput: return badInput_.value();
      case SolveStatus::NumericDegraded: return numericDegraded_.value();
      case SolveStatus::AccelFault: return accelFaults_.value();
      case SolveStatus::DegradedBudget: return degradedBudget_.value();
      case SolveStatus::ServedFromBackup: return servedFromBackup_.value();
      case SolveStatus::Shed: return shed_.value();
      case SolveStatus::Unsolved: return 0.0;
    }
    return 0.0;
}

} // namespace robox::mpc
