/**
 * @file
 * Workload "fleet": one mpc::BatchController of MobileRobots on a
 * worker pool, with the deployment serving path on (sensor gate,
 * admission with budget = control period, flight recorder, link layer
 * with zero impairment). Robots follow seeded waypoints that move on
 * every leg; only BatchController::solveAll is timed.
 */

#include <cmath>
#include <memory>

#include "core/controller.hh"
#include "dsl/sema.hh"
#include "episodes.hh"
#include "mpc/batch.hh"
#include "mpc/simulate.hh"
#include "workloads.hh"

namespace robobench
{

using namespace robox;

namespace
{

/** Fleet size: admission never binds at this commit. On a 4-core Xeon
 *  the cold-start cost projection peaks below half of the 100 ms
 *  budget; with 64 robots it reached the whole budget. */
constexpr std::size_t kRobots = 32;
constexpr std::size_t kWorkers = 4;
/** Periods per second of --seconds (see control.cc's rounds). */
constexpr double kPeriodsPerSecond = 65.0;
/** Periods per waypoint leg: MobileRobot's closed-loop test length. */
constexpr int kLegLength = 60;
/** Periods replayed on one worker for the command-digest check. */
constexpr std::uint64_t kReplayPeriods = 12;
/** Largest per-leg waypoint move: position (m) and heading (rad). */
constexpr double kLegMove = 0.5;
constexpr double kLegTurn = 0.3;

mpc::MpcOptions
fleetOptions(const robots::Benchmark &bench)
{
    mpc::MpcOptions opt = bench.options;
    opt.horizon = kHeadlineHorizon;
    opt.batchDeadlineSeconds = opt.dt;
    opt.overloadParallelism = static_cast<int>(kWorkers);
    // MobileRobot's states are unbounded, so the range check only
    // rejects non-finite states; it stays on as deployed.
    opt.sensorRangeMargin = 0.5;
    // Five times the largest physical per-period move (1 m/s and
    // 2 rad/s over 0.1 s).
    opt.sensorJumpThreshold = 1.0;
    opt.flightRecorderCapacity = 256;
    opt.linkEnabled = true;
    return opt;
}

/** Closed-loop inputs of the whole fleet: plants and waypoint legs. */
class Generator
{
  public:
    Generator(const robots::Benchmark &bench,
              const dsl::ModelSpec &model, std::uint64_t seed)
        : bench_(bench), plant_(model), seed_(seed), states_(kRobots),
          refs_(kRobots), legs_(kRobots)
    {
        for (std::size_t i = 0; i < kRobots; ++i) {
            Episode e = makeEpisode(bench, model, seed, i, 0);
            states_[i] = e.x0;
            refs_[i] = e.waypoint;
            // The whole fleet is re-tasked together, so every
            // kLegLength-th period is a burst of cold re-plans.
            legs_[i].end = kLegLength;
            for (std::size_t j = 0; j < e.x0.size(); ++j)
                inputs_.add(e.x0[j]);
            addWaypoint(i);
        }
    }

    const std::vector<Vector> &states() const { return states_; }
    const std::vector<Vector> &refs() const { return refs_; }
    const Digest &inputs() const { return inputs_; }

    /** Apply the executed commands: plant steps (spanned) and leg
     *  bookkeeping. Returns the periods that failed at a leg end. */
    std::uint64_t
    advance(const std::vector<mpc::IpmSolver::Result> &results,
            std::uint64_t period, Tracer &tracer)
    {
        std::uint64_t failed = 0;
        const double dt = bench_.options.dt;
        for (std::size_t i = 0; i < kRobots; ++i) {
            Leg &leg = legs_[i];
            leg.unusable += !mpc::statusUsable(results[i].status);
            {
                ScopedSpan span(tracer, "mpc.plant_step",
                                static_cast<std::int64_t>(
                                    period * kRobots + i));
                states_[i] =
                    plant_.step(states_[i], results[i].u0, refs_[i], dt);
            }
            if (period + 1 < leg.end)
                continue;
            const Vector &x = states_[i];
            const bool met = std::abs(x[0] - refs_[i][0]) <= 0.15 &&
                             std::abs(x[1] - refs_[i][1]) <= 0.15;
            failed += met ? leg.unusable : leg.end - leg.start;
            missed_ += !met;
            ++completed_;
            Rng rng(streamSeed(seed_, i + 1, 1000 + leg.index));
            refs_[i][0] += rng.symmetric(kLegMove);
            refs_[i][1] += rng.symmetric(kLegMove);
            refs_[i][2] += rng.symmetric(kLegTurn);
            addWaypoint(i);
            leg = Leg{leg.index + 1, leg.end, leg.end + kLegLength, 0};
        }
        return failed;
    }

    /** Non-usable periods of legs still open at the end of the run. */
    std::uint64_t
    openLegFailures() const
    {
        std::uint64_t n = 0;
        for (const Leg &l : legs_)
            n += l.unusable;
        return n;
    }

    std::uint64_t completedLegs() const { return completed_; }
    std::uint64_t missedLegs() const { return missed_; }

  private:
    struct Leg
    {
        std::uint64_t index = 0;
        std::uint64_t start = 0;
        std::uint64_t end = 0;
        std::uint64_t unusable = 0;
    };

    void
    addWaypoint(std::size_t i)
    {
        for (std::size_t j = 0; j < refs_[i].size(); ++j)
            inputs_.add(refs_[i][j]);
    }

    const robots::Benchmark &bench_;
    mpc::Plant plant_;
    std::uint64_t seed_;
    std::vector<Vector> states_;
    std::vector<Vector> refs_;
    std::vector<Leg> legs_;
    Digest inputs_;
    std::uint64_t completed_ = 0;
    std::uint64_t missed_ = 0;
};

/** Statuses under which the robot's solver did not run this period. */
bool
solved(mpc::SolveStatus s)
{
    return s != mpc::SolveStatus::ServedFromBackup &&
           s != mpc::SolveStatus::Shed && s != mpc::SolveStatus::BadInput;
}

void
digestCommands(const std::vector<mpc::IpmSolver::Result> &results,
               Digest &d)
{
    for (const mpc::IpmSolver::Result &res : results) {
        d.add(static_cast<std::uint64_t>(res.status));
        for (std::size_t j = 0; j < res.u0.size(); ++j)
            d.add(res.u0[j]);
    }
}

} // namespace

Result
runFleet(const RunConfig &cfg)
{
    Result r;
    Tracer tracer(cfg.trace);
    const robots::Benchmark &bench = robots::benchmark("MobileRobot");
    const mpc::MpcOptions opt = fleetOptions(bench);

    // Setup: DSL source to a fleet ready to serve. compile_ms times
    // one robot's core::Controller alongside.
    std::vector<double> setup_s, compile_ms;
    auto setup = [&] {
        std::int64_t t0 = nowNs();
        const dsl::ModelSpec model = dsl::analyzeSource(bench.source);
        auto built = std::make_unique<mpc::BatchController>(
            model, opt, kRobots, kWorkers);
        setup_s.push_back((nowNs() - t0) / 1e9);
        std::int64_t c0 = nowNs();
        core::Controller single(bench.source, opt);
        compile_ms.push_back((nowNs() - c0) / 1e6);
        return built;
    };
    std::unique_ptr<mpc::BatchController> batch = setup();
    const dsl::ModelSpec &model = batch->solver(0).problem().model();
    if (tracer.available()) {
        tracer.setRecording(true);
        tracedFrontEnd(tracer, bench, kHeadlineHorizon, 0);
    }

    Generator gen(bench, model, cfg.seed);
    const std::uint64_t periods = static_cast<std::uint64_t>(
        std::max(4.0, std::ceil(cfg.seconds * kPeriodsPerSecond)));
    std::vector<double> wall_ms, traced_ms, untraced_ms;
    Digest commands;
    std::string replay_prefix;
    SolveTotals totals;
    std::vector<double> penalty(kRobots, 0.0);
    double overhead_ms = 0.0, busy_s = 0.0, wall_s = 0.0;
    std::uint64_t misses = 0;
    double peak_projection = 0.0;
    mpc::StageEval scratch;
    for (std::uint64_t p = 0; p < periods; ++p) {
        if (setupSampleDue(p, periods))
            setup(); // Timed, then discarded.
        const bool traced = tracer.available() && p % 2 == 1;
        tracer.setRecording(traced);
        ScopedSpan period_span(tracer, "fleet.period",
                               static_cast<std::int64_t>(p));
        int span = tracer.begin("mpc.solve_all", static_cast<std::int64_t>(p));
        const std::int64_t t0 = nowNs();
        const std::vector<mpc::IpmSolver::Result> &results =
            batch->solveAll(gen.states(), gen.refs());
        const std::int64_t t1 = nowNs();
        tracer.end(span);

        const double seconds = (t1 - t0) / 1e9;
        wall_ms.push_back(seconds * 1e3);
        (traced ? traced_ms : untraced_ms).push_back(seconds * 1e3);
        wall_s += seconds;
        misses += seconds > opt.dt;
        double period_busy = 0.0;
        for (std::size_t i = 0; i < kRobots; ++i) {
            const mpc::IpmSolver::Result &res = results[i];
            if (solved(res.status)) {
                const mpc::SolveStats &s = batch->solver(i).lastStats();
                totals.add(s);
                period_busy += s.solveSeconds;
            }
            if (!commandInBounds(model, res.u0))
                r.violate("fleet: command non-finite or outside input "
                          "bounds");
            penalty[i] += taskPenalty(batch->solver(i).problem(),
                                      gen.states()[i], res.u0,
                                      gen.refs()[i], scratch);
        }
        busy_s += period_busy;
        peak_projection = std::max(
            peak_projection, batch->report().overload.projectedSeconds);
        overhead_ms += 1e3 * (seconds - period_busy / kWorkers);
        digestCommands(results, commands);
        r.failed += gen.advance(results, p, tracer);
        if (p + 1 == kReplayPeriods)
            replay_prefix = commands.hex();
    }
    tracer.setRecording(false);
    r.failed += gen.openLegFailures();
    r.attempted = periods * kRobots;
    if (replay_prefix.empty())
        replay_prefix = commands.hex();

    // The same seed on one worker must issue bitwise the same commands.
    {
        mpc::BatchController replay(model, opt, kRobots, 1);
        Generator replay_gen(bench, model, cfg.seed);
        Tracer off(false);
        Digest d;
        const std::uint64_t n = std::min(periods, kReplayPeriods);
        for (std::uint64_t p = 0; p < n; ++p) {
            const auto &results =
                replay.solveAll(replay_gen.states(), replay_gen.refs());
            digestCommands(results, d);
            replay_gen.advance(results, p, off);
        }
        // Admission decisions follow measured solve times, so a run
        // whose admission bound cannot replay; the fleet is sized so
        // that it does not.
        const mpc::OverloadReport &ov = batch->report().overload;
        if (d.hex() != replay_prefix)
            r.violate("fleet: commands differ from a 1-worker replay (" +
                      d.hex() + " vs " + replay_prefix + "; " +
                      std::to_string(ov.overloadedBatches) +
                      " overloaded batches in the run, " +
                      std::to_string(replay.report().overload
                                         .overloadedBatches) +
                      " in the replay)");
        r.facts["replay_periods"] = std::to_string(n);
    }

    const double pct = tailPercentile(periods);
    recordLatency(r, "period_tail", {median(wall_ms)},
                  {percentile(wall_ms, pct)}, pct, periods);
    r.e2e("setup_s", median(setup_s), "s");
    r.e2e("robots_per_s", r.attempted / wall_s, "1/s");
    r.e2e("compile_ms", median(compile_ms), "ms");
    for (double &v : penalty)
        v /= static_cast<double>(periods);
    const double track_cost = geomean(penalty);
    const double fail_ratio =
        static_cast<double>(r.failed) / static_cast<double>(r.attempted);
    r.e2e("track_cost", track_cost, "unitless");
    r.e2e("fail_ratio", fail_ratio, "ratio");

    r.deterministic["input_digest"] = gen.inputs().hex();
    r.deterministic["command_digest"] = commands.hex();
    r.deterministic["replay_digest"] = replay_prefix;
    r.deterministic["track_cost"] = exact(track_cost);
    r.deterministic["fail_ratio"] = exact(fail_ratio);
    r.deterministic["attempted"] = std::to_string(r.attempted);
    r.deterministic["failed"] = std::to_string(r.failed);
    r.facts["workers"] = std::to_string(kWorkers);
    r.facts["robots"] = std::to_string(kRobots);
    r.facts["periods"] = std::to_string(periods);
    r.facts["legs"] = std::to_string(gen.completedLegs()) + " complete, " +
                      std::to_string(gen.missedLegs()) +
                      " missed the waypoint";

    const mpc::OverloadReport &ov = batch->report().overload;
    r.facts["admission"] =
        std::to_string(ov.overloadedBatches) + " overloaded batches, " +
        std::to_string(ov.degraded) + " degraded, " +
        std::to_string(ov.servedFromBackup) + " from backup, " +
        std::to_string(ov.shed) + " shed, peak projected load " +
        std::to_string(peak_projection / opt.batchDeadlineSeconds) +
        " of the budget";
    r.spanTable = tracer.layers();
    if (tracer.available()) {
        reportSolverLayer(r, "", totals);
        reportSolverLayer(r, ".MobileRobot", totals);
        reportSolverCounters(r, totals);
        r.layer("mpc.batch_overhead_ms", overhead_ms / periods);
        r.layer("mpc.batch_worker_util", busy_s / (kWorkers * wall_s));
        r.layer("mpc.batch_deadline_miss_ratio",
                static_cast<double>(misses) / periods);
        r.layer("mpc.admission_demotions",
                static_cast<double>(ov.degraded + ov.servedFromBackup +
                                    ov.shed - ov.poisoned));
        r.layer("mpc.gate_rejections",
                static_cast<double>(ov.poisoned + ov.badInput));
        r.layer("mpc.plant_step_us",
                meanSpan(r.spanTable, "mpc.plant_step", 1e3));
        reportFrontEnd(r);
        r.layer("sym.tape_instrs.MobileRobot",
                static_cast<double>(
                    tapeInstructions(batch->solver(0).problem())));
        recordTraceOverhead(r, median(traced_ms), median(untraced_ms));
        tracer.writeChromeTrace(cfg.outDir + "/fleet-trace.json");
    }
    return r;
}

} // namespace robobench
