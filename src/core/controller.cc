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
    : solver_(std::make_unique<mpc::IpmSolver>(
          dsl::analyzeSource(source, task_name), options)),
      backup_(model()),
      gate_(model(), options)
{
    result_.u0.resize(static_cast<std::size_t>(model().nu()));
    if (options.flightRecorderCapacity > 0)
        recorder_.configure(options.flightRecorderCapacity);
}

void
Controller::recordFlight(const Vector &x,
                         const mpc::IpmSolver::Result &result)
{
    if (!recorder_.enabled())
        return;
    // Filled in place: once this record and the ring slots hold
    // state- and command-sized buffers, copy-assigning into them
    // reuses those buffers and recording allocates nothing.
    mpc::FlightRecord &rec = flight_;
    rec.period = periods_ - 1; // periods_ was bumped by step().
    rec.robot = -1;
    rec.status = result.status;
    rec.sensorVerdict =
        gate_.enabled() ? static_cast<std::int32_t>(gate_.lastVerdict())
                        : -1;
    rec.degraded = result.degraded;
    rec.state = x;
    rec.command = result.u0;
    recorder_.push(rec);
}

bool
Controller::gateRejects(const Vector &x, mpc::IpmSolver::Result *rejected)
{
    if (!gate_.enabled() || gate_.check(x) == mpc::SensorVerdict::Ok)
        return false;
    // Implausible measurement: skip the solve (warm start untouched)
    // and issue the backup command for this period.
    rejected->status = mpc::SolveStatus::BadInput;
    rejected->converged = false;
    rejected->iterations = 0;
    rejected->objective = 0.0;
    backup_.serve(*rejected);
    last_status_ = rejected->status;
    return true;
}

template <class Refs>
const mpc::IpmSolver::Result &
Controller::stepWith(const Vector &x, const Refs &refs)
{
    ++periods_;
    if (!gateRejects(x, &result_)) {
        result_ = solver_->solve(x, refs);
        backup_.settle(result_, *solver_);
        last_status_ = result_.status;
    }
    recordFlight(x, result_);
    return result_;
}

const mpc::IpmSolver::Result &
Controller::step(const Vector &x, const Vector &ref)
{
    return stepWith(x, ref);
}

const mpc::IpmSolver::Result &
Controller::step(const Vector &x, const std::vector<Vector> &refs)
{
    return stepWith(x, refs);
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
