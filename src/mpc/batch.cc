/**
 * @file
 * Implementation of the batched multi-robot MPC controller and its
 * overload-management (admission / degrade / backup / shed) layer.
 */

#include "mpc/batch.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>

#include "support/logging.hh"

namespace robox::mpc
{

BatchController::BatchController(const dsl::ModelSpec &model,
                                 const MpcOptions &options,
                                 std::size_t num_robots,
                                 std::size_t num_threads)
    : options_(options)
{
    robox_assert(num_robots > 0);
    solvers_.reserve(num_robots);
    backups_.reserve(num_robots);
    gates_.reserve(num_robots);
    for (std::size_t i = 0; i < num_robots; ++i) {
        solvers_.push_back(std::make_unique<IpmSolver>(model, options));
        // Bind the per-robot helpers to the solver's own model copy,
        // not the caller's reference, so their lifetime is tied to
        // this controller.
        const dsl::ModelSpec &owned = solvers_.back()->problem().model();
        backups_.emplace_back(owned);
        gates_.emplace_back(owned, options);
    }
    results_.resize(num_robots);
    report_.statuses.assign(num_robots, SolveStatus::Unsolved);
    priority_.assign(num_robots, 0.0);
    ewma_.assign(num_robots, 0.0);
    decisions_.assign(num_robots, Admit::Full);
    scale_.assign(num_robots, 1.0);
    order_.reserve(num_robots);
    prev_decisions_.assign(num_robots, Admit::Full);
    poisoned_.assign(num_robots, 0);
    batch_cost_.assign(num_robots, 0.0);

    gate_active_ = options.sensorRangeMargin >= 0.0 ||
                   options.sensorJumpThreshold > 0.0 ||
                   options.sensorFrozenPeriods > 0;

    if (options.linkEnabled)
        link_ = std::make_unique<FleetLink>(
            solvers_.front()->problem().model(), options, num_robots);

    if (options.flightRecorderCapacity > 0)
        recorder_.configure(options.flightRecorderCapacity);

    report_.overload.budgetSeconds = options.batchDeadlineSeconds;
    const double latency_hi = options.batchDeadlineSeconds > 0.0
                                  ? 4.0 * options.batchDeadlineSeconds
                                  : 0.25;
    report_.overload.batchLatency = stats::Histogram(
        "batch_seconds", "Batch wall time", 0.0, latency_hi, 64);

    std::size_t pool = std::min(num_threads, num_robots);
    if (pool > 1) {
        workers_.reserve(pool);
        for (std::size_t t = 0; t < pool; ++t)
            workers_.emplace_back([this] { workerLoop(); });
    }
    report_.robots = num_robots;
    report_.threads = workers_.size();
}

BatchController::~BatchController()
{
    if (!workers_.empty()) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        cv_work_.notify_all();
        for (std::thread &w : workers_)
            w.join();
    }
}

void
BatchController::setPriority(std::size_t i, double priority)
{
    robox_assert(i < priority_.size());
    priority_[i] = priority;
}

void
BatchController::validateInputs()
{
    const MpcProblem &problem = solvers_[0]->problem();
    const auto nx = static_cast<std::size_t>(problem.nx());
    const auto nref = static_cast<std::size_t>(problem.nref());
    report_.overload.lastBatchPoisoned = 0;
    std::fill(poisoned_.begin(), poisoned_.end(), 0);

    for (std::size_t i = 0; i < solvers_.size(); ++i) {
        // Robots the link layer already demoted (stale measurement,
        // link down) keep their decision; validation only concerns
        // robots that would otherwise be solved.
        if (decisions_[i] != Admit::Full)
            continue;
        if (i >= states_->size() || i >= refs_->size() ||
            (*states_)[i].size() != nx || (*refs_)[i].size() != nref) {
            decisions_[i] = Admit::BadInput;
            continue;
        }
        // The sensor gate demotes a poisoned robot to its backup plan
        // *before* the solve, instead of letting the solver spend its
        // budget diverging on an implausible measurement. In link mode
        // only genuinely fresh measurements are gated: an extrapolated
        // state is the controller's own rollout, plausible by
        // construction, and feeding it to the stateful gate would
        // corrupt the jump/frozen baselines.
        const bool gateable =
            !link_ || link_->service(i) == FleetLink::Service::Fresh;
        if (gate_active_ && gateable &&
            gates_[i].check((*states_)[i]) != SensorVerdict::Ok) {
            decisions_[i] = Admit::Backup;
            poisoned_[i] = 1;
            ++report_.overload.lastBatchPoisoned;
        }
    }
}

void
BatchController::runAdmission()
{
    OverloadReport &ov = report_.overload;
    ov.projectedSeconds = 0.0;
    ov.admittedSeconds = 0.0;
    const double budget = options_.batchDeadlineSeconds;
    if (budget < 0.0)
        return;

    const double par =
        options_.overloadParallelism > 0
            ? static_cast<double>(options_.overloadParallelism)
            : static_cast<double>(
                  std::max<std::size_t>(std::size_t{1}, workers_.size()));

    // Candidates: robots still admitted whose cost model has at least
    // one measurement. Unmeasured robots are always admitted — the
    // model has no basis to degrade them, and their first measured
    // solve is what seeds it.
    order_.clear();
    double total = 0.0;
    for (std::size_t i = 0; i < solvers_.size(); ++i) {
        if (decisions_[i] == Admit::Full && ewma_[i] > 0.0) {
            order_.push_back(i);
            total += ewma_[i];
        }
    }
    ov.projectedSeconds = total / par;
    ov.admittedSeconds = ov.projectedSeconds;
    const double compute_budget = budget * par;
    if (total <= compute_budget)
        return;
    ++ov.overloadedBatches;

    // Service order: priority descending, lower index kept on ties —
    // degradation, backup demotion, and shedding all start from the
    // tail of this order.
    std::sort(order_.begin(), order_.end(),
              [&](std::size_t a, std::size_t b) {
                  if (priority_[a] != priority_[b])
                      return priority_[a] > priority_[b];
                  return a < b;
              });

    // Lowest per-robot budget scale the degrade rung may apply before
    // the ladder escalates to serving robots from backup. A scale s
    // tightens a robot's deadline to s x its EWMA cost and its
    // iteration cap to s x maxIterations.
    constexpr double floor_scale = 0.25;

    // Rung 1 — degrade: protect the largest full-budget prefix that
    // still leaves every remaining robot at least the floor scale,
    // then degrade the rest with one common scale. By construction
    // the common scale lands in [floor_scale, 1).
    double spent = 0.0;
    double rest = total;
    std::size_t k = 0;
    for (; k < order_.size(); ++k) {
        const double c = ewma_[order_[k]];
        if (spent + c + floor_scale * (rest - c) > compute_budget)
            break;
        spent += c;
        rest -= c;
    }
    if (rest <= 0.0) {
        ov.admittedSeconds = spent / par;
        return;
    }
    double scale = std::min(1.0, (compute_budget - spent) / rest);
    if (scale >= floor_scale) {
        for (std::size_t j = k; j < order_.size(); ++j) {
            decisions_[order_[j]] = Admit::Degraded;
            scale_[order_[j]] = scale;
        }
        ov.admittedSeconds = (spent + scale * rest) / par;
        return;
    }

    // Rung 2 — backup: everyone left runs at the floor; demote robots
    // from the tail (lowest priority) to their backup-plan tail until
    // the batch fits. Backup service is cheap but not free; it is
    // charged at overloadBackupCostSeconds per robot.
    for (std::size_t j = k; j < order_.size(); ++j) {
        decisions_[order_[j]] = Admit::Degraded;
        scale_[order_[j]] = floor_scale;
    }
    const double backup_cost =
        std::max(0.0, options_.overloadBackupCostSeconds);
    double deg_cost = floor_scale * rest;
    std::size_t n_backup = 0;
    std::size_t tail = order_.size();
    while (tail > k &&
           spent + deg_cost + static_cast<double>(n_backup) * backup_cost >
               compute_budget) {
        --tail;
        decisions_[order_[tail]] = Admit::Backup;
        deg_cost -= floor_scale * ewma_[order_[tail]];
        ++n_backup;
    }

    // Rung 3 — shed: when even backup service overflows the budget,
    // shed outright, again from the lowest priority.
    std::size_t s = order_.size();
    while (s > tail &&
           spent + deg_cost + static_cast<double>(n_backup) * backup_cost >
               compute_budget) {
        --s;
        decisions_[order_[s]] = Admit::Shed;
        --n_backup;
    }
    ov.admittedSeconds =
        (spent + deg_cost + static_cast<double>(n_backup) * backup_cost) /
        par;
}

void
BatchController::applyBudgets()
{
    if (options_.batchDeadlineSeconds < 0.0)
        return;
    // Floor on the tightened per-robot iteration cap.
    constexpr int min_iters = 3;
    for (std::size_t i = 0; i < solvers_.size(); ++i) {
        // Budgets target whichever version serves the robot, scaled
        // from that version's own base options.
        const bool cand = upgrade_ && upgrade_->servesCandidate(i);
        const MpcOptions &base =
            cand ? upgrade_->candidateOptions() : options_;
        IpmSolver &solver = servingSolver(i);
        if (decisions_[i] == Admit::Degraded) {
            const int cap = std::min(
                base.maxIterations,
                std::max(min_iters,
                         static_cast<int>(base.maxIterations *
                                          scale_[i])));
            solver.setMaxIterations(cap);
            // With an injected cost model (virtual time) the wall
            // clock is not the campaign's time base: degrade purely
            // via the deterministic iteration cap so runs replay
            // bitwise. Without one, also bound the real wall cost to
            // this robot's share of the batch budget.
            solver.setSolveDeadline(cost_hook_
                                        ? base.solveDeadlineSeconds
                                        : scale_[i] * ewma_[i]);
        } else {
            // Restore base budgets: robots admitted at full budget
            // must be bitwise identical to an unloaded serial solve.
            solver.setMaxIterations(base.maxIterations);
            solver.setSolveDeadline(base.solveDeadlineSeconds);
        }
        if (upgrade_ && upgrade_->doubleSolve()) {
            // The shadowing version always validates at its own base
            // budget — its compute rides outside the admission budget
            // (validation is the price of the rollout), and a robot
            // that switched versions must not inherit the other
            // side's tightened caps.
            IpmSolver &shadow = cand
                                    ? *solvers_[i]
                                    : upgrade_->candidateSolver(i);
            const MpcOptions &sbase =
                cand ? options_ : upgrade_->candidateOptions();
            shadow.setMaxIterations(sbase.maxIterations);
            shadow.setSolveDeadline(sbase.solveDeadlineSeconds);
        }
    }
}

void
BatchController::serveLocal(std::size_t i)
{
    IpmSolver::Result &r = results_[i];
    const dsl::ModelSpec &model = solvers_[i]->problem().model();
    const auto nu = static_cast<std::size_t>(model.nu());
    if (r.u0.size() != nu)
        r.u0.resize(nu);
    r.converged = false;
    r.iterations = 0;
    r.objective = 0.0;
    r.degraded = true;
    switch (decisions_[i]) {
      case Admit::Backup:
        r.status = SolveStatus::ServedFromBackup;
        r.u0.copyFrom(backups_[i].command());
        break;
      case Admit::BadInput:
        r.status = SolveStatus::BadInput;
        r.u0.copyFrom(backups_[i].command());
        break;
      case Admit::Shed:
      default:
        // Shed: no service at all — the backup tail is not advanced
        // and u0 is only the box-projected zero placeholder; callers
        // should hold the previous actuation.
        r.status = SolveStatus::Shed;
        for (std::size_t j = 0; j < nu; ++j)
            r.u0[j] = std::clamp(0.0, model.inputLower[j],
                                 model.inputUpper[j]);
        break;
    }
}

void
BatchController::solveOne(std::size_t i)
{
    if (stall_hook_)
        stall_hook_(i);
    IpmSolver &serving = servingSolver(i);
    results_[i] = serving.solve((*states_)[i], (*refs_)[i]);
    if (upgrade_ && upgrade_->doubleSolve()) {
        // Shadow solve: the non-serving version solves a copy of the
        // same inputs so divergence can be scored and both versions
        // stay warm. Its own try/catch keeps a buggy candidate from
        // ever quarantining the serving result.
        IpmSolver &shadow = upgrade_->servesCandidate(i)
                                ? *solvers_[i]
                                : upgrade_->candidateSolver(i);
        const IpmSolver::Result *shadow_result = nullptr;
        try {
            shadow_result = &shadow.solve((*states_)[i], (*refs_)[i]);
        } catch (...) {
        }
        upgrade_->recordPair(i, results_[i],
                             serving.lastStats().solveSeconds,
                             shadow_result,
                             shadow.lastStats().solveSeconds);
    }
    if (statusUsable(results_[i].status)) {
        backups_[i].accept(serving.inputTrajectory());
        if (decisions_[i] == Admit::Degraded)
            results_[i].status = SolveStatus::DegradedBudget;
    } else {
        // Per-robot failsafe, mirroring core::Controller::step: a
        // failed solve is served from the backup-plan tail.
        const Vector &u = backups_[i].command();
        if (results_[i].u0.size() != u.size())
            results_[i].u0.resize(u.size());
        results_[i].u0.copyFrom(u);
        results_[i].degraded = true;
    }
}

void
BatchController::drainQueue()
{
    const std::size_t count = solvers_.size();
    for (;;) {
        std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
        if (i >= count)
            return;
        try {
            if (decisions_[i] == Admit::Full ||
                decisions_[i] == Admit::Degraded)
                solveOne(i);
            else
                serveLocal(i);
        } catch (...) {
            // solve() handles numeric failures via SolveStatus, so
            // anything arriving here is unexpected. Quarantine it to
            // this robot: stamp the failure, serve its backup command,
            // and keep draining so the rest of the fleet still gets
            // its commands. Nothing is rethrown — the incident lands
            // in report().lastBatchExceptions for postmortems.
            results_[i].status = SolveStatus::NumericFailure;
            results_[i].converged = false;
            results_[i].degraded = true;
            const Vector &u = backups_[i].command();
            if (results_[i].u0.size() != u.size())
                results_[i].u0.resize(u.size());
            results_[i].u0.copyFrom(u);
            std::lock_guard<std::mutex> lock(mutex_);
            ++thrown_;
            // Deterministic postmortem policy: whatever the thread
            // schedule, the recorded fault is the lowest robot index
            // that threw.
            if (!error_ || i < error_robot_) {
                error_ = std::current_exception();
                error_robot_ = i;
            }
        }
    }
}

void
BatchController::finishDrain()
{
    // Saturation/div-by-zero events were counted in this thread's
    // thread-local Fixed statistics, invisible to the coordinator.
    // Fold them into the process-wide aggregates now, once per batch,
    // so Fixed::globalSaturationCount() is complete after solveAll().
    Fixed::flushCounts();
}

void
BatchController::workerLoop()
{
    std::uint64_t seen = 0;
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_work_.wait(lock, [&] {
                return stop_ || generation_ != seen;
            });
            if (stop_)
                return;
            seen = generation_;
        }
        drainQueue();
        finishDrain();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (--pending_ == 0)
                cv_done_.notify_all();
        }
    }
}

void
BatchController::finishLinkPeriod()
{
    // Downlink half of the period, on the coordinator in robot-index
    // order (the determinism contract): every usable fresh solve
    // becomes a sequence-numbered plan downlink, then the link runs
    // retransmits, drains deliveries into the robot-side buffers, and
    // decides what each robot actually executed.
    for (std::size_t i = 0; i < solvers_.size(); ++i) {
        const bool solved = decisions_[i] == Admit::Full ||
                            decisions_[i] == Admit::Degraded;
        if (solved && statusUsable(results_[i].status))
            link_->sendPlan(i, servingSolver(i).inputTrajectory());
    }
    link_->finishPeriod();

    for (std::size_t i = 0; i < solvers_.size(); ++i) {
        if (link_->executedFreshPlan(i))
            continue;
        // The robot-side buffer is authoritative: whatever the
        // controller computed, what reached the actuators this period
        // is the buffered open-loop tail.
        IpmSolver::Result &r = results_[i];
        const Vector &u = link_->executedCommand(i);
        if (r.u0.size() != u.size())
            r.u0.resize(u.size());
        r.u0.copyFrom(u);
        if (statusUsable(r.status)) {
            // Solved fine, but the plan missed its delivery deadline —
            // the fleet-visible outcome is backup service.
            r.status = SolveStatus::ServedFromBackup;
            r.degraded = true;
        }
    }
}

void
BatchController::updateCostModel()
{
    const double alpha = kCostEwmaAlpha;
    // Decay applied each batch to the EWMA cost of a robot that was
    // not freshly solved (served from backup or shed), so demoted
    // robots are eventually re-admitted, remeasured, and — if still
    // expensive — re-demoted.
    constexpr double recovery = 0.5;
    for (std::size_t i = 0; i < solvers_.size(); ++i) {
        batch_cost_[i] = 0.0;
        switch (decisions_[i]) {
          case Admit::Full:
          case Admit::Degraded: {
            const double measured =
                servingSolver(i).lastStats().solveSeconds;
            // Under a virtual-time hook a canary/committed robot's
            // modeled cost carries the candidate's modeledCostScale,
            // so the admission ladder (and the latency guard) see the
            // candidate's cost profile deterministically. Measured
            // wall time already is the candidate's cost.
            const double cost =
                cost_hook_ ? cost_hook_(i, measured) *
                                 (upgrade_ ? upgrade_->costScale(i)
                                           : 1.0)
                           : measured;
            if (!(cost >= 0.0) || !std::isfinite(cost))
                break; // Refuse NaN/negative costs from a buggy hook.
            batch_cost_[i] = cost;
            ewma_[i] = ewma_[i] <= 0.0
                           ? cost
                           : (1.0 - alpha) * ewma_[i] + alpha * cost;
            break;
          }
          case Admit::Backup:
          case Admit::Shed:
            // No fresh measurement. Decay the estimate so a demoted
            // robot is eventually re-admitted, remeasured, and — if
            // still expensive — re-demoted.
            ewma_[i] *= recovery;
            batch_cost_[i] =
                decisions_[i] == Admit::Backup
                    ? std::max(0.0, options_.overloadBackupCostSeconds)
                    : 0.0;
            break;
          case Admit::BadInput:
            break; // Not solved, but its compute cost did not change.
        }
    }
}

void
BatchController::recordTimeline()
{
    // Admit -> public rung mapping (recorded even while disabled so a
    // late enableTimeline still sees correct rung-change baselines).
    auto to_rung = [](Admit d) {
        switch (d) {
          case Admit::Full: return ServiceRung::Full;
          case Admit::Degraded: return ServiceRung::Degraded;
          case Admit::Backup: return ServiceRung::Backup;
          case Admit::Shed: return ServiceRung::Shed;
          case Admit::BadInput: return ServiceRung::BadInput;
        }
        return ServiceRung::Full;
    };

    const std::uint64_t batch = report_.batches - 1;
    double batch_span = 0.0;
    for (std::size_t i = 0; i < solvers_.size(); ++i) {
        const Admit d = decisions_[i];
        batch_span = std::max(batch_span, batch_cost_[i]);
        if (timeline_enabled_) {
            const auto robot = static_cast<std::uint32_t>(i);
            if (d != prev_decisions_[i]) {
                FleetTimeline::Marker m;
                m.robot = robot;
                m.batch = batch;
                m.atSeconds = virtual_now_;
                m.kind = TimelineMarker::RungChange;
                m.from = to_rung(prev_decisions_[i]);
                m.to = to_rung(d);
                timeline_.recordMarker(m);
            }
            if (d == Admit::Full || d == Admit::Degraded) {
                FleetTimeline::SolveSpan span;
                span.robot = robot;
                span.batch = batch;
                span.startSeconds = virtual_now_;
                span.durationSeconds = batch_cost_[i];
                span.rung = to_rung(d);
                span.status = results_[i].status;
                span.iterations = results_[i].iterations;
                timeline_.recordSpan(span);
            } else {
                FleetTimeline::Marker m;
                m.robot = robot;
                m.batch = batch;
                m.atSeconds = virtual_now_;
                switch (d) {
                  case Admit::Backup:
                    m.kind = poisoned_[i]
                                 ? TimelineMarker::SensorDemoted
                                 : TimelineMarker::ServedFromBackup;
                    break;
                  case Admit::Shed:
                    m.kind = TimelineMarker::Shed;
                    break;
                  default:
                    m.kind = TimelineMarker::BadInput;
                    break;
                }
                timeline_.recordMarker(m);
            }
        }
        if (timeline_enabled_ && link_) {
            auto mark = [&](TimelineMarker kind) {
                FleetTimeline::Marker m;
                m.robot = static_cast<std::uint32_t>(i);
                m.batch = batch;
                m.atSeconds = virtual_now_;
                m.kind = kind;
                timeline_.recordMarker(m);
            };
            if (link_->wentDown(i))
                mark(TimelineMarker::LinkDown);
            if (link_->cameUp(i))
                mark(TimelineMarker::LinkUp);
            if (link_->wasExtrapolated(i))
                mark(TimelineMarker::StateExtrapolated);
            if (link_->wasStaleDemoted(i))
                mark(TimelineMarker::StaleDemoted);
            if (link_->wasPlanMissed(i))
                mark(TimelineMarker::PlanMissed);
        }
        prev_decisions_[i] = d;
    }

    // Drain the upgrade state machine's queued markers (phase starts,
    // canary switches, commits, rollbacks) onto the same virtual-time
    // axis; queue order is coordinator-only and thus deterministic.
    if (upgrade_) {
        if (timeline_enabled_) {
            for (const UpgradeManager::PendingMarker &p :
                 upgrade_->pendingMarkers()) {
                FleetTimeline::Marker m;
                m.robot = p.robot;
                m.batch = batch;
                m.atSeconds = virtual_now_;
                m.kind = p.kind;
                timeline_.recordMarker(m);
            }
        }
        upgrade_->clearPendingMarkers();
    }

    // Advance the virtual clock by one batch period: the configured
    // budget when admission is on (the fleet runs at a fixed rate),
    // otherwise the longest modeled solve in the batch.
    virtual_now_ += options_.batchDeadlineSeconds > 0.0
                        ? options_.batchDeadlineSeconds
                        : batch_span;
}

const std::vector<IpmSolver::Result> &
BatchController::solveAll(const std::vector<Vector> &states,
                          const std::vector<Vector> &refs)
{
    const auto t_start = std::chrono::steady_clock::now();
    states_ = &states;
    refs_ = &refs;
    error_ = nullptr;
    error_robot_ = 0;
    thrown_ = 0;

    std::fill(decisions_.begin(), decisions_.end(), Admit::Full);
    std::fill(scale_.begin(), scale_.end(), 1.0);
    if (link_) {
        // Uplink half of the period: robots transmit, channels impair,
        // the coordinator drains and classifies. Solves run against
        // the link's served view (delivered or extrapolated states);
        // robots past the staleness bound drop into the existing
        // admission ladder, dead links are shed.
        link_->beginPeriod(report_.batches, states, refs);
        states_ = &link_->servedStates();
        for (std::size_t i = 0; i < solvers_.size(); ++i) {
            switch (link_->service(i)) {
              case FleetLink::Service::Stale:
                decisions_[i] = Admit::Backup;
                break;
              case FleetLink::Service::Down:
                decisions_[i] = Admit::Shed;
                break;
              default:
                break;
            }
        }
    }
    validateInputs();
    runAdmission();
    applyBudgets();
    next_.store(0, std::memory_order_relaxed);

    if (workers_.empty()) {
        drainQueue();
        finishDrain();
    } else {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            pending_ = workers_.size();
            ++generation_;
        }
        cv_work_.notify_all();
        std::unique_lock<std::mutex> lock(mutex_);
        cv_done_.wait(lock, [&] { return pending_ == 0; });
    }

    if (link_)
        finishLinkPeriod();

    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t_start)
            .count();
    report_.batches += 1;
    report_.solves += solvers_.size();
    report_.lastBatchSeconds = seconds;
    report_.totalBatchSeconds += seconds;
    report_.robotsPerSecond =
        seconds > 0.0 ? static_cast<double>(solvers_.size()) / seconds
                      : 0.0;
    report_.lastBatchAllocations = 0;
    report_.lastBatchFailures = 0;
    report_.lastBatchSaturations = 0;
    report_.lastBatchDivByZeros = 0;
    report_.lastBatchFaultsInjected = 0;
    report_.lastBatchNumericDegraded = 0;
    report_.lastBatchAccelFaults = 0;
    report_.lastBatchSelfCheck = SelfCheckStats();
    OverloadReport &ov = report_.overload;
    ov.lastBatchDegraded = 0;
    ov.lastBatchServedFromBackup = 0;
    ov.lastBatchShed = 0;
    ov.lastBatchBadInput = 0;
    for (std::size_t i = 0; i < solvers_.size(); ++i) {
        const bool solved = decisions_[i] == Admit::Full ||
                            decisions_[i] == Admit::Degraded;
        if (solved) {
            const SolveStats &st = servingSolver(i).lastStats();
            report_.totalIterations +=
                static_cast<std::uint64_t>(st.iterations);
            report_.totalKktFlops += st.riccatiFlops;
            report_.lastBatchAllocations += st.heapAllocations;
            if (!st.converged)
                report_.unconverged += 1;
            // Per-robot numeric events: SolveStats carries the
            // worker's thread-local counter deltas, so summing here
            // gives the coordinator an exact batch total regardless
            // of which thread solved which robot.
            report_.lastBatchSaturations += st.numeric.saturations;
            report_.lastBatchDivByZeros += st.numeric.divByZeros;
            report_.lastBatchFaultsInjected += st.numeric.faultsInjected;
            report_.lastBatchSelfCheck.merge(st.numeric.selfCheck);
        }
        // results_[i].status is authoritative: the overload ladder,
        // sensor gate, and exception path all stamp it without going
        // through the solver.
        const SolveStatus status = results_[i].status;
        report_.statuses[i] = status;
        if (!statusUsable(status))
            report_.lastBatchFailures += 1;
        switch (status) {
          case SolveStatus::NumericDegraded:
            report_.lastBatchNumericDegraded += 1;
            break;
          case SolveStatus::AccelFault:
            report_.lastBatchAccelFaults += 1;
            break;
          case SolveStatus::DegradedBudget:
            ov.lastBatchDegraded += 1;
            break;
          case SolveStatus::ServedFromBackup:
            ov.lastBatchServedFromBackup += 1;
            break;
          case SolveStatus::Shed:
            ov.lastBatchShed += 1;
            break;
          case SolveStatus::BadInput:
            ov.lastBatchBadInput += 1;
            break;
          default:
            break;
        }
    }
    report_.failures += report_.lastBatchFailures;
    report_.lastBatchExceptions = thrown_;
    report_.exceptions += thrown_;
    report_.lastExceptionRobot = -1;
    report_.lastExceptionMessage.clear();
    if (error_) {
        std::string what = "unknown exception";
        try {
            std::rethrow_exception(error_);
        } catch (const std::exception &e) {
            what = e.what();
        } catch (...) {
        }
        report_.lastExceptionRobot =
            static_cast<std::int64_t>(error_robot_);
        report_.lastExceptionMessage = what;
        error_ = nullptr;
    }
    report_.saturations += report_.lastBatchSaturations;
    report_.divByZeros += report_.lastBatchDivByZeros;
    report_.faultsInjected += report_.lastBatchFaultsInjected;
    report_.accelFaults += report_.lastBatchAccelFaults;
    report_.selfCheck.merge(report_.lastBatchSelfCheck);
    ov.degraded += ov.lastBatchDegraded;
    ov.servedFromBackup += ov.lastBatchServedFromBackup;
    ov.shed += ov.lastBatchShed;
    ov.badInput += ov.lastBatchBadInput;
    ov.poisoned += ov.lastBatchPoisoned;
    ov.utilization = ov.budgetSeconds > 0.0
                         ? seconds / ov.budgetSeconds
                         : 0.0;
    ov.batchLatency.sample(seconds);
    if (link_)
        ov.link = link_->report();

    updateCostModel();
    finishUpgradePeriod();
    recordTimeline();
    recordFlight();

    states_ = nullptr;
    refs_ = nullptr;
    return results_;
}

void
BatchController::finishUpgradePeriod()
{
    if (!upgrade_)
        return;
    upgrade_->finishPeriod(batch_cost_, cost_hook_ != nullptr);
    report_.upgrade = upgrade_->report();
}

UpgradeScheduleStatus
BatchController::scheduleUpgrade(const UpgradeCandidate &candidate)
{
    if (!upgrade_)
        upgrade_ = std::make_unique<UpgradeManager>(options_,
                                                    solvers_.size());
    const UpgradeScheduleStatus status =
        upgrade_->schedule(candidate, solvers_[0]->problem());
    report_.upgrade = upgrade_->report();
    return status;
}

void
BatchController::abortUpgrade()
{
    if (!upgrade_)
        return;
    upgrade_->abortToIncumbent();
    report_.upgrade = upgrade_->report();
}

void
BatchController::recordFlight()
{
    if (!recorder_.enabled())
        return;
    FlightRecord rec;
    rec.period = report_.batches - 1;
    for (std::size_t i = 0; i < solvers_.size(); ++i) {
        rec.robot = static_cast<std::int32_t>(i);
        rec.status = results_[i].status;
        rec.rung = static_cast<std::int32_t>(decisions_[i]);
        rec.sensorVerdict =
            poisoned_[i]
                ? static_cast<std::int32_t>(gates_[i].lastVerdict())
                : -1;
        rec.linkService =
            link_ ? static_cast<std::int32_t>(link_->service(i)) : -1;
        rec.degraded = results_[i].degraded;
        // states_ already points at the link-served view when the link
        // fabric is on: the recorder logs what the solver actually saw.
        if (i < states_->size())
            rec.state = (*states_)[i];
        else
            rec.state = Vector();
        rec.command = results_[i].u0;
        recorder_.push(rec);
    }
}

void
BatchController::resetAll()
{
    for (std::size_t i = 0; i < solvers_.size(); ++i) {
        solvers_[i]->reset();
        backups_[i].clear();
        gates_[i].reset();
    }
    if (link_)
        link_->reset();
    if (upgrade_)
        upgrade_->resetSolvers();
}

namespace
{

template <class Io, class SelfCheck>
bool
transferSelfCheck(Io &io, SelfCheck &sc)
{
    return field(io, sc.parityChecks) && field(io, sc.parityErrors) &&
           field(io, sc.checksumChecks) && field(io, sc.checksumErrors) &&
           field(io, sc.watchdogTrips) && field(io, sc.reexecutions) &&
           field(io, sc.reloads) && field(io, sc.cpuFallbacks);
}

} // namespace

void
BatchController::coldStart()
{
    // Drop any upgrade state machine first: cold start means the
    // as-constructed controller, which has no candidate staged.
    upgrade_.reset();
    resetAll();
    const std::size_t n = solvers_.size();
    report_ = BatchReport();
    report_.robots = n;
    report_.threads = workers_.size();
    report_.statuses.assign(n, SolveStatus::Unsolved);
    report_.overload.budgetSeconds = options_.batchDeadlineSeconds;
    const double latency_hi = options_.batchDeadlineSeconds > 0.0
                                  ? 4.0 * options_.batchDeadlineSeconds
                                  : 0.25;
    report_.overload.batchLatency = stats::Histogram(
        "batch_seconds", "Batch wall time", 0.0, latency_hi, 64);
    priority_.assign(n, 0.0);
    ewma_.assign(n, 0.0);
    prev_decisions_.assign(n, Admit::Full);
    poisoned_.assign(n, 0);
    batch_cost_.assign(n, 0.0);
    virtual_now_ = 0.0;
    timeline_.clear();
    recorder_.clear();
}

template <class Io, class Self>
bool
BatchController::transfer(Io &io, Self &self)
{
    using support::enumField;
    if (!support::expectField(io, std::uint64_t{self.solvers_.size()}) ||
        !support::expectField(io, self.link_ != nullptr))
        return false;

    // Lifetime report: every counter, the last-batch snapshot, and
    // the histograms. The worker-pool size is deliberately NOT stored
    // — a checkpoint written at --threads 4 must restore bitwise into
    // a --threads 1 controller (the determinism contract).
    auto &rp = self.report_;
    if (!field(io, rp.batches) || !field(io, rp.solves) ||
        !field(io, rp.totalIterations) || !field(io, rp.totalKktFlops) ||
        !field(io, rp.unconverged) || !field(io, rp.lastBatchSeconds) ||
        !field(io, rp.totalBatchSeconds) || !field(io, rp.robotsPerSecond) ||
        !field(io, rp.lastBatchAllocations))
        return false;
    for (auto &status : rp.statuses)
        if (!enumField<std::uint32_t>(io, status, SolveStatus::Shed))
            return false;
    if (!field(io, rp.lastBatchFailures) || !field(io, rp.failures) ||
        !field(io, rp.lastBatchExceptions) || !field(io, rp.exceptions) ||
        !field(io, rp.lastExceptionRobot) ||
        !field(io, rp.lastExceptionMessage) ||
        !field(io, rp.lastBatchSaturations) ||
        !field(io, rp.lastBatchDivByZeros) ||
        !field(io, rp.lastBatchFaultsInjected) ||
        !field(io, rp.saturations) || !field(io, rp.divByZeros) ||
        !field(io, rp.faultsInjected) ||
        !field(io, rp.lastBatchNumericDegraded) ||
        !field(io, rp.lastBatchAccelFaults) || !field(io, rp.accelFaults) ||
        !transferSelfCheck(io, rp.lastBatchSelfCheck) ||
        !transferSelfCheck(io, rp.selfCheck))
        return false;
    auto &ov = rp.overload;
    if (!field(io, ov.budgetSeconds) || !field(io, ov.projectedSeconds) ||
        !field(io, ov.admittedSeconds) || !field(io, ov.utilization) ||
        !field(io, ov.overloadedBatches) || !field(io, ov.lastBatchDegraded) ||
        !field(io, ov.lastBatchServedFromBackup) ||
        !field(io, ov.lastBatchShed) || !field(io, ov.lastBatchBadInput) ||
        !field(io, ov.lastBatchPoisoned) || !field(io, ov.degraded) ||
        !field(io, ov.servedFromBackup) || !field(io, ov.shed) ||
        !field(io, ov.badInput) || !field(io, ov.poisoned) ||
        !field(io, ov.batchLatency) || !field(io, ov.link))
        return false;

    // Admission cost model and timeline baselines.
    if (!support::eachField(io, self.priority_) ||
        !support::eachField(io, self.ewma_) ||
        !support::eachField(io, self.batch_cost_) ||
        !field(io, self.virtual_now_))
        return false;
    for (auto &d : self.prev_decisions_)
        if (!enumField<std::uint8_t>(io, d, Admit::BadInput))
            return false;
    if (!support::eachField(io, self.poisoned_))
        return false;

    // Per-robot serving stacks: solver warm start, backup tail,
    // sensor gate.
    for (std::size_t i = 0; i < self.solvers_.size(); ++i)
        if (!field(io, *self.solvers_[i]) || !field(io, self.backups_[i]) ||
            !field(io, self.gates_[i]))
            return false;
    // Timeline enablement is runtime wiring, like the cost and stall
    // hooks: the restoring process has already chosen it.
    return (!self.link_ || field(io, *self.link_)) &&
           field(io, self.timeline_) && field(io, self.recorder_);
}

void
BatchController::checkpoint(support::CheckpointWriter &w) const
{
    transfer(w, *this);
    w.boolean(upgrade_ != nullptr);
    if (upgrade_)
        upgrade_->checkpoint(w);
}

bool
BatchController::restore(support::CheckpointReader &r,
                         const UpgradeCandidate *candidate)
{
    auto fail = [&] {
        coldStart();
        return false;
    };
    if (r.status() != support::CheckpointStatus::Ok || !transfer(r, *this))
        return fail();
    bool has_upgrade = false;
    if (!r.boolean(&has_upgrade))
        return fail();
    upgrade_.reset();
    report_.upgrade = UpgradeReport();
    if (has_upgrade) {
        auto manager = std::make_unique<UpgradeManager>(
            options_, solvers_.size());
        if (!manager->restore(r, candidate))
            return fail();
        upgrade_ = std::move(manager);
        report_.upgrade = upgrade_->report();
    }
    return true;
}

std::string
batchMetricsJson(const BatchReport &report, bool include_timing)
{
    using stats::Scalar;
    using stats::StatGroup;

    auto scalar = [](const char *name, const char *desc, double v) {
        Scalar s(name, desc);
        s.set(v);
        return s;
    };
    auto count = [&](const char *name, const char *desc,
                     std::uint64_t v) {
        return scalar(name, desc, static_cast<double>(v));
    };

    const OverloadReport &ov = report.overload;
    std::vector<Scalar> scalars;
    scalars.reserve(32);
    scalars.push_back(count("robots", "fleet size", report.robots));
    scalars.push_back(count("batches", "solveAll() calls",
                            report.batches));
    scalars.push_back(count("solves", "robot-solves", report.solves));
    scalars.push_back(count("totalIterations", "summed IPM iterations",
                            report.totalIterations));
    scalars.push_back(count("totalKktFlops", "summed KKT-backend flops",
                            report.totalKktFlops));
    scalars.push_back(count("unconverged", "solves that hit the cap",
                            report.unconverged));
    scalars.push_back(count("lastBatchAllocations",
                            "heap allocations in the last batch",
                            report.lastBatchAllocations));
    scalars.push_back(count("lastBatchFailures",
                            "non-usable solves in the last batch",
                            report.lastBatchFailures));
    scalars.push_back(count("failures", "lifetime non-usable solves",
                            report.failures));
    scalars.push_back(count("exceptions",
                            "lifetime quarantined exceptions",
                            report.exceptions));
    scalars.push_back(count("saturations", "fixed-point saturations",
                            report.saturations));
    scalars.push_back(count("divByZeros", "fixed-point div-by-zeros",
                            report.divByZeros));
    scalars.push_back(count("faultsInjected", "injected bit flips",
                            report.faultsInjected));
    scalars.push_back(count("numericDegraded",
                            "NumericDegraded solves, last batch",
                            report.lastBatchNumericDegraded));
    scalars.push_back(count("accelFaults",
                            "lifetime AccelFault solves",
                            report.accelFaults));
    const SelfCheckStats &sc = report.selfCheck;
    scalars.push_back(count("parityErrors", "self-check parity hits",
                            sc.parityErrors));
    scalars.push_back(count("checksumErrors",
                            "self-check image-checksum hits",
                            sc.checksumErrors));
    scalars.push_back(count("watchdogTrips", "self-check watchdog trips",
                            sc.watchdogTrips));
    scalars.push_back(count("accelReexecutions",
                            "recovery rung-1 re-executions",
                            sc.reexecutions));
    scalars.push_back(count("accelReloads",
                            "recovery rung-2 image reloads",
                            sc.reloads));
    scalars.push_back(count("accelCpuFallbacks",
                            "recovery rung-3 CPU fallbacks",
                            sc.cpuFallbacks));
    scalars.push_back(scalar("budgetSeconds",
                             "batch budget (< 0 = admission off)",
                             ov.budgetSeconds));
    scalars.push_back(scalar("projectedSeconds",
                             "pre-admission projected batch cost",
                             ov.projectedSeconds));
    scalars.push_back(scalar("admittedSeconds",
                             "post-admission projected batch cost",
                             ov.admittedSeconds));
    scalars.push_back(count("overloadedBatches",
                            "batches projected over budget",
                            ov.overloadedBatches));
    scalars.push_back(count("degraded", "lifetime degraded solves",
                            ov.degraded));
    scalars.push_back(count("servedFromBackup",
                            "lifetime backup-tail serves",
                            ov.servedFromBackup));
    scalars.push_back(count("shed", "lifetime sheds", ov.shed));
    scalars.push_back(count("badInput", "lifetime input rejections",
                            ov.badInput));
    scalars.push_back(count("poisoned",
                            "lifetime sensor-gate demotions",
                            ov.poisoned));
    // Link-health counters are virtual-time-derived (periods and pure
    // chaos decisions, never the wall clock), so unlike the timing
    // fields below they are part of the replay-stable snapshot.
    const LinkReport &ln = ov.link;
    scalars.push_back(count("linkUplinkSent", "uplink transmissions",
                            ln.uplinkSent));
    scalars.push_back(count("linkUplinkDropped", "uplinks lost",
                            ln.uplinkDropped));
    scalars.push_back(count("linkUplinkDelivered", "uplinks delivered",
                            ln.uplinkDelivered));
    scalars.push_back(count("linkUplinkDuplicates",
                            "uplink duplicate copies",
                            ln.uplinkDuplicates));
    scalars.push_back(count("linkUplinkReordered",
                            "uplinks delivered behind a newer seq",
                            ln.uplinkReordered));
    scalars.push_back(count("linkDownlinkSent",
                            "downlink transmissions", ln.downlinkSent));
    scalars.push_back(count("linkDownlinkDropped", "downlinks lost",
                            ln.downlinkDropped));
    scalars.push_back(count("linkDownlinkDelivered",
                            "downlinks delivered",
                            ln.downlinkDelivered));
    scalars.push_back(count("linkDownlinkDuplicates",
                            "downlink duplicate copies",
                            ln.downlinkDuplicates));
    scalars.push_back(count("linkDownlinkReordered",
                            "downlinks delivered behind a newer seq",
                            ln.downlinkReordered));
    scalars.push_back(count("linkRetransmits",
                            "plan retransmissions", ln.retransmits));
    scalars.push_back(count("linkAcksDelivered",
                            "acks that advanced the acked seq",
                            ln.acksDelivered));
    scalars.push_back(count("linkPlanMisses",
                            "robot-periods on the buffered tail",
                            ln.planMisses));
    scalars.push_back(count("linkStatesExtrapolated",
                            "controller-side dynamics rollouts",
                            ln.statesExtrapolated));
    scalars.push_back(count("linkStaleDemotions",
                            "robot-periods past the staleness bound",
                            ln.staleDemotions));
    scalars.push_back(count("linkDownEvents", "up -> down transitions",
                            ln.linkDownEvents));
    scalars.push_back(count("linkUpEvents", "down -> up transitions",
                            ln.linkUpEvents));
    scalars.push_back(count("linkDownRobotPeriods",
                            "robot-periods with the link down",
                            ln.linkDownRobotPeriods));
    // Live-upgrade rollout accounting (mpc/upgrade.hh): all counters
    // are virtual-time/decision-derived, so they belong in the
    // replay-stable snapshot. All zero until an upgrade is scheduled.
    const UpgradeReport &up = report.upgrade;
    scalars.push_back(count("upgradeVersion",
                            "serving controller version",
                            up.version));
    scalars.push_back(count("upgradePhase",
                            "rollout phase (UpgradePhase value)",
                            up.phase));
    scalars.push_back(count("upgradesScheduled",
                            "scheduleUpgrade() attempts",
                            up.scheduled));
    scalars.push_back(count("upgradeRejectedImages",
                            "candidate images verifyImage refused",
                            up.rejectedImages));
    scalars.push_back(count("upgradeRejectedIncompatible",
                            "candidates with a mismatched shape",
                            up.rejectedIncompatible));
    scalars.push_back(count("upgradesCommitted", "fleet-wide commits",
                            up.committed));
    scalars.push_back(count("upgradesRolledBack",
                            "canary-phase rollbacks", up.rolledBack));
    scalars.push_back(count("upgradesRejected",
                            "shadow-phase rejections",
                            up.rejectedCandidates));
    scalars.push_back(count("upgradeShadowSolves",
                            "incumbent/candidate solve pairs",
                            up.shadowSolves));
    scalars.push_back(count("upgradeCanaryRobots",
                            "size of the last canary set",
                            up.canaryRobots));
    scalars.push_back(count("upgradeDivergenceWarns",
                            "command components past the warn band",
                            up.divergenceWarns));
    scalars.push_back(count("upgradeDivergenceFails",
                            "command components past the fail band",
                            up.divergenceFails));
    scalars.push_back(scalar("upgradeMaxDivergence",
                             "largest |candidate - incumbent| command",
                             up.maxDivergence));
    scalars.push_back(scalar("upgradeIncumbentCostEwma",
                             "incumbent fleet EWMA modeled cost",
                             up.incumbentCostEwma));
    scalars.push_back(scalar("upgradeCandidateCostEwma",
                             "candidate fleet EWMA modeled cost",
                             up.candidateCostEwma));
    scalars.push_back(count("upgradeRollbackDivergence",
                            "guard trips: command divergence",
                            up.rollbackDivergence));
    scalars.push_back(count("upgradeRollbackFaultRate",
                            "guard trips: fault-rate regression",
                            up.rollbackFaultRate));
    scalars.push_back(count("upgradeRollbackLatency",
                            "guard trips: latency budget",
                            up.rollbackLatency));
    if (include_timing) {
        // Environment-dependent fields: worker-pool size and wall
        // clocks vary across machines and thread counts, so the
        // replay-stable snapshot (include_timing = false) omits them.
        scalars.push_back(count("threads", "worker threads (0 = inline)",
                                report.threads));
        scalars.push_back(scalar("lastBatchSeconds",
                                 "wall time of the last batch",
                                 report.lastBatchSeconds));
        scalars.push_back(scalar("totalBatchSeconds",
                                 "summed batch wall time",
                                 report.totalBatchSeconds));
        scalars.push_back(scalar("robotsPerSecond",
                                 "throughput of the last batch",
                                 report.robotsPerSecond));
        scalars.push_back(scalar("utilization",
                                 "lastBatchSeconds / budgetSeconds",
                                 ov.utilization));
    }

    StatGroup group("batch");
    for (Scalar &s : scalars)
        group.add(&s);
    // The link histograms count virtual periods, so they are
    // replay-stable and always included; the latency histogram is
    // wall-clock-derived by construction, so it rides the
    // include_timing switch with the other wall fields.
    stats::Histogram link_latency = ln.deliveryLatency;
    stats::Histogram link_staleness = ln.staleness;
    group.add(&link_latency);
    group.add(&link_staleness);
    stats::Histogram latency = ov.batchLatency;
    if (include_timing)
        group.add(&latency);
    return group.toJson();
}

} // namespace robox::mpc
