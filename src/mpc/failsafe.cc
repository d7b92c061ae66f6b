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

} // namespace robox::mpc
