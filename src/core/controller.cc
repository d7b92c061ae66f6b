/**
 * @file
 * Implementation of the Controller facade.
 */

#include "core/controller.hh"

#include "dsl/sema.hh"

namespace robox::core
{

Controller::Controller(const std::string &source,
                       const mpc::MpcOptions &options,
                       const std::string &task_name)
    : model_(dsl::analyzeSource(source, task_name)),
      solver_(std::make_unique<mpc::IpmSolver>(model_, options)),
      backup_(model_),
      gate_(model_, options),
      gate_active_(options.sensorRangeMargin >= 0.0 ||
                   options.sensorJumpThreshold > 0.0 ||
                   options.sensorFrozenPeriods > 0)
{
    if (options.flightRecorderCapacity > 0)
        recorder_.configure(options.flightRecorderCapacity);
}

void
Controller::recordFlight(const Vector &x,
                         const mpc::IpmSolver::Result &result)
{
    if (!recorder_.enabled())
        return;
    mpc::FlightRecord rec;
    rec.period = periods_ - 1; // periods_ was bumped by step().
    rec.robot = -1;
    rec.status = result.status;
    rec.sensorVerdict =
        gate_active_ ? static_cast<std::int32_t>(gate_.lastVerdict())
                     : -1;
    rec.degraded = result.degraded;
    rec.state = x;
    rec.command = result.u0;
    recorder_.push(rec);
}

mpc::IpmSolver::Result
Controller::applyFailsafe(mpc::IpmSolver::Result result)
{
    if (mpc::statusUsable(result.status)) {
        backup_.accept(solver_->inputTrajectory());
    } else {
        result.u0.copyFrom(backup_.command());
        result.degraded = true;
    }
    last_status_ = result.status;
    return result;
}

bool
Controller::gateRejects(const Vector &x, mpc::IpmSolver::Result *rejected)
{
    if (!gate_active_ || gate_.check(x) == mpc::SensorVerdict::Ok)
        return false;
    // Implausible measurement: skip the solve (warm start untouched)
    // and issue the backup command for this period.
    rejected->status = mpc::SolveStatus::BadInput;
    rejected->converged = false;
    rejected->iterations = 0;
    rejected->objective = 0.0;
    rejected->degraded = true;
    const Vector &u = backup_.command();
    if (rejected->u0.size() != u.size())
        rejected->u0.resize(u.size());
    rejected->u0.copyFrom(u);
    last_status_ = rejected->status;
    return true;
}

mpc::IpmSolver::Result
Controller::step(const Vector &x, const Vector &ref)
{
    ++periods_;
    mpc::IpmSolver::Result rejected;
    if (gateRejects(x, &rejected)) {
        recordFlight(x, rejected);
        return rejected;
    }
    mpc::IpmSolver::Result result = applyFailsafe(solver_->solve(x, ref));
    recordFlight(x, result);
    return result;
}

mpc::IpmSolver::Result
Controller::step(const Vector &x, const std::vector<Vector> &refs)
{
    ++periods_;
    mpc::IpmSolver::Result rejected;
    if (gateRejects(x, &rejected)) {
        recordFlight(x, rejected);
        return rejected;
    }
    mpc::IpmSolver::Result result =
        applyFailsafe(solver_->solve(x, refs));
    recordFlight(x, result);
    return result;
}

template <class Io, class Self>
bool
Controller::transfer(Io &io, Self &self)
{
    return field(io, self.periods_) &&
           support::enumField<std::uint32_t>(io, self.last_status_,
                                             mpc::SolveStatus::Shed) &&
           field(io, *self.solver_) && field(io, self.backup_) &&
           field(io, self.gate_) && field(io, self.recorder_);
}

void
Controller::checkpoint(support::CheckpointWriter &w) const
{
    transfer(w, *this);
}

bool
Controller::restore(support::CheckpointReader &r)
{
    if (r.status() == support::CheckpointStatus::Ok && transfer(r, *this))
        return true;
    reset();
    recorder_.clear();
    periods_ = 0;
    return false;
}

compiler::IsaStreams
Controller::compileForAccelerator(const accel::AcceleratorConfig &config,
                                  int slice_stages) const
{
    translator::Workload workload = translator::buildSolverIteration(
        solver_->problem(),
        std::min(slice_stages, solver_->problem().horizon()));
    compiler::ProgramMap map =
        compiler::mapGraph(workload.graph, config);
    return compiler::emitStreams(workload, map, config);
}

} // namespace robox::core
