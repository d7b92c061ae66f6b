/**
 * @file
 * robox::core::Controller — the end-to-end public API.
 *
 * A Controller is built from RoboX DSL source text (Sec. IV) plus the
 * solver meta-parameters; construction runs the full frontend (lexer,
 * parser, semantic analysis), the Program Translator (discretization,
 * automatic differentiation, tape compilation), and instantiates the
 * interior-point solver. step() performs one MPC invocation.
 *
 * The architectural path is exposed alongside: compileForAccelerator()
 * lowers one solver iteration to the M-DFG, maps it with the
 * Controller Compiler and emits the three ISA streams, and
 * accel::simulateIteration(problem(), config) returns cycle-accurate
 * timing for any accelerator configuration.
 */

#ifndef ROBOX_CORE_CONTROLLER_HH
#define ROBOX_CORE_CONTROLLER_HH

#include <memory>
#include <string>
#include <utility>

#include "accel/simulator.hh"
#include "compiler/codegen.hh"
#include "dsl/model_spec.hh"
#include "mpc/failsafe.hh"
#include "mpc/flight_recorder.hh"
#include "mpc/ipm.hh"
#include "mpc/sensor_gate.hh"
#include "mpc/simulate.hh"
#include "mpc/status.hh"
#include "support/checkpoint.hh"

namespace robox::core
{

/** An MPC controller compiled from RoboX DSL source. */
class Controller
{
  public:
    /**
     * Compile DSL source into a controller.
     *
     * @param source Complete RoboX program text (System + Task
     *        definitions, references, instantiation, task call).
     * @param options Solver meta-parameters (horizon, rate, tolerance).
     * @param task_name Select a specific task call; empty = the first
     *        task call in the program.
     */
    Controller(const std::string &source, const mpc::MpcOptions &options,
               const std::string &task_name = "");

    /**
     * One controller invocation: measured state + references -> u0.
     *
     * Failsafe contract: never throws on numeric input and always
     * returns a finite, bound-respecting u0. When the solve is not
     * usable (Result::status is a failure), u0 is replaced by the
     * time-shifted tail of the last accepted plan (the backup
     * command) and Result::degraded is set.
     *
     * Sensor gate: when any of MpcOptions::sensorRangeMargin /
     * sensorJumpThreshold / sensorFrozenPeriods is enabled, the
     * measurement is plausibility-checked first; an implausible one
     * (NaN, out of range, jump, frozen sensor) skips the solve
     * entirely — the warm start is untouched, the backup command is
     * issued, and the result is SolveStatus::BadInput with degraded
     * set. See mpc/sensor_gate.hh.
     *
     * Returns a reference to per-controller storage, valid until the
     * next step() or reset(), so a warm step allocates nothing; copy
     * it to keep a snapshot.
     */
    const mpc::IpmSolver::Result &step(const Vector &x, const Vector &ref);

    /** Invocation with a previewed reference trajectory: refs[k] is
     *  applied at horizon stage k (refs[N] at the terminal stage). */
    const mpc::IpmSolver::Result &step(const Vector &x,
                                       const std::vector<Vector> &refs);

    /** Drop the warm start (e.g. after teleporting the robot), the
     *  stored backup plan, and the sensor-gate baseline. The flight
     *  recorder and period counter are preserved (a reset is itself a
     *  moment worth remembering in a postmortem). */
    void reset()
    {
        solver_->reset();
        backup_.clear();
        gate_.reset();
        last_status_ = mpc::SolveStatus::Unsolved;
    }

    /**
     * The single-robot black-box flight recorder: one record per
     * step() (measured state, issued command, status, sensor verdict)
     * when MpcOptions::flightRecorderCapacity > 0. Embedded in every
     * checkpoint; dump with flightRecorder().toJson().
     */
    const mpc::FlightRecorder &flightRecorder() const
    {
        return recorder_;
    }

    /** step() invocations since construction (the flight recorder's
     *  period axis; survives checkpoint/restore). */
    std::uint64_t periods() const { return periods_; }

    /**
     * Serialize the complete resumable state: solver warm start,
     * backup-plan tail, sensor-gate baselines and streaks, last
     * status, period counter, and the flight recorder. A controller
     * restored from this payload and stepped on the same inputs
     * continues bitwise-identically to one that never stopped.
     */
    void checkpoint(support::CheckpointWriter &w) const;

    /** Restore state written by checkpoint(). False — with the
     *  controller reset() to a clean cold start — on any layout
     *  mismatch; never throws on bad bytes. */
    bool restore(support::CheckpointReader &r);

    /** Structured outcome of the last step() (the solver's status, or
     *  BadInput when the sensor gate refused the measurement before
     *  the solve ran). */
    mpc::SolveStatus lastStatus() const { return last_status_; }

    /** The plausibility gate guarding step()'s measurements. */
    const mpc::SensorGate &sensorGate() const { return gate_; }

    /** Backup commands issued since the last usable solve. */
    int consecutiveDegradedSteps() const
    {
        return backup_.consecutiveDegraded();
    }

    const dsl::ModelSpec &model() const
    {
        return solver_->problem().model();
    }
    const mpc::MpcProblem &problem() const { return solver_->problem(); }
    mpc::IpmSolver &solver() { return *solver_; }
    const mpc::SolveStats &lastStats() const
    {
        return solver_->lastStats();
    }

    /** Numeric-integrity report of the last step()'s solve (all zero
     *  unless MpcOptions::fixedPointTapes is on). */
    const NumericHealth &lastNumericHealth() const
    {
        return solver_->lastStats().numeric;
    }

    /**
     * Attach a fault-injection hook to the fixed-point tape path
     * (e.g. accel::FaultInjector::tapeHook()), so seeded SEU campaigns
     * can be run against the end-to-end controller. Detected
     * corruption surfaces as SolveStatus::NumericDegraded and step()
     * substitutes the backup command like any other failure. With
     * MpcOptions::accelSelfCheck on, upsets are instead caught by the
     * parity detectors and retried through the recovery ladder; only
     * solves that exhaust it surface, as SolveStatus::AccelFault.
     */
    void setTapeFaultHook(mpc::MpcProblem::TapeFaultHook hook)
    {
        solver_->setTapeFaultHook(std::move(hook));
    }

    /**
     * Lower one solver iteration through the Controller Compiler for
     * the given accelerator and return the emitted ISA streams.
     */
    compiler::IsaStreams
    compileForAccelerator(const accel::AcceleratorConfig &config,
                          int slice_stages = 32) const;

  private:
    template <class Io, class Self>
    static bool transfer(Io &io, Self &self); //!< Checkpointed fields.

    /** The one body of both step() overloads: gate the measurement,
     *  solve against refs, settle the backup plan, record the period. */
    template <class Refs>
    const mpc::IpmSolver::Result &stepWith(const Vector &x,
                                           const Refs &refs);

    /** Gate the measurement; returns true (and fills *rejected) when
     *  the solve must be skipped this period. */
    bool gateRejects(const Vector &x, mpc::IpmSolver::Result *rejected);

    /** Append one flight record for this period's step(). */
    void recordFlight(const Vector &x,
                      const mpc::IpmSolver::Result &result);

    /** Owns the model. backup_ and gate_ point into the solver's own
     *  copy of it, which a move of this controller does not relocate. */
    std::unique_ptr<mpc::IpmSolver> solver_;
    mpc::BackupPlan backup_;
    mpc::SensorGate gate_;
    mpc::SolveStatus last_status_ = mpc::SolveStatus::Unsolved;
    mpc::IpmSolver::Result result_; //!< What step() last returned.
    mpc::FlightRecorder recorder_;
    mpc::FlightRecord flight_; //!< Reused record storage for recordFlight.
    std::uint64_t periods_ = 0; //!< step() invocations so far.
};

} // namespace robox::core

#endif // ROBOX_CORE_CONTROLLER_HH
