/**
 * @file
 * Workload "control": the six Table III robots, each a
 * core::Controller compiled from its DSL program at N = 32, stepped on
 * one thread against mpc::Plant and interleaved period by period.
 *
 * Only Controller::step is timed. Plant integration, the task penalty
 * and the checks are generator work between timed calls.
 */

#include <cmath>
#include <cstdio>
#include <memory>

#include "core/controller.hh"
#include "episodes.hh"
#include "linalg/cholesky.hh"
#include "mpc/riccati.hh"
#include "mpc/simulate.hh"
#include "workloads.hh"

namespace robobench
{

using namespace robox;

namespace
{

/**
 * Rounds (one period of every robot) per second of --seconds, sized
 * so a run measures about that long on a 4-core Xeon at this commit.
 * The count is fixed, not timed, so a seed always replays the same
 * inputs.
 */
constexpr double kRoundsPerSecond = 15.0;

/** One robot's closed loop. */
struct Loop
{
    const robots::Benchmark *bench = nullptr;
    std::unique_ptr<core::Controller> ctl;
    std::unique_ptr<mpc::Plant> plant;
    int length = 0;

    // Current episode.
    std::uint64_t episode = 0;
    int step = 0;
    Episode spec;
    Vector x;
    Vector ref;
    double maxTilt = 0.0;
    std::uint64_t episodeUnusable = 0;

    // Samples and totals.
    std::vector<double> stepMs;
    std::vector<double> tracedMs, untracedMs;
    std::vector<double> compileMs;
    SolveTotals solves;
    double penaltySum = 0.0;
    std::uint64_t periods = 0;
    std::uint64_t failed = 0;
    std::uint64_t episodes = 0;
    std::uint64_t missedTasks = 0;
};

void
startEpisode(Loop &l, std::uint64_t seed, std::uint64_t robot,
             Digest &inputs)
{
    l.spec = makeEpisode(*l.bench, l.ctl->model(), seed, robot, l.episode);
    l.x = l.spec.x0;
    l.step = 0;
    l.maxTilt = tiltOf(*l.bench, l.x);
    l.episodeUnusable = 0;
    l.ctl->reset(); // The robot was placed at a new start.
    for (std::size_t i = 0; i < l.x.size(); ++i)
        inputs.add(l.x[i]);
    for (std::size_t i = 0; i < l.spec.waypoint.size(); ++i)
        inputs.add(l.spec.waypoint[i]);
    inputs.add(l.spec.speed);
}

/** Gauss-Newton stage QPs along the controller's last plan. */
std::vector<mpc::StageQp>
stageQps(const core::Controller &ctl, mpc::IpmSolver &solver,
         const Vector &ref)
{
    const mpc::MpcProblem &p = ctl.problem();
    const int nx = p.nx(), nu = p.nu();
    const std::vector<double> &w = p.runningWeights();
    std::vector<mpc::StageQp> stages(p.horizon());
    mpc::StageEval dyn, cost;
    for (int k = 0; k < p.horizon(); ++k) {
        const Vector &x = solver.stateTrajectory()[k];
        const Vector &u = solver.inputTrajectory()[k];
        p.evalDynamics(x, u, ref, dyn);
        p.evalRunningCost(x, u, ref, cost);
        mpc::StageQp &st = stages[k];
        st.a = dyn.jx;
        st.b = dyn.ju;
        st.c = Vector(nx);
        st.q = Matrix::identity(nx);
        st.r = Matrix::identity(nu);
        st.s = Matrix(nu, nx);
        st.qv = Vector(nx);
        st.rv = Vector(nu);
        for (std::size_t i = 0; i < w.size(); ++i) {
            for (int a = 0; a < nx; ++a) {
                st.qv[a] += w[i] * cost.jx(i, a) * cost.value[i];
                for (int b = 0; b < nx; ++b)
                    st.q(a, b) += w[i] * cost.jx(i, a) * cost.jx(i, b);
            }
            for (int a = 0; a < nu; ++a) {
                st.rv[a] += w[i] * cost.ju(i, a) * cost.value[i];
                for (int b = 0; b < nu; ++b)
                    st.r(a, b) += w[i] * cost.ju(i, a) * cost.ju(i, b);
                for (int b = 0; b < nx; ++b)
                    st.s(a, b) += w[i] * cost.ju(i, a) * cost.jx(i, b);
            }
        }
    }
    return stages;
}

/** Layer probes on a visited stage of one robot's plan. */
void
probeLayers(Result &r, Loop &l, std::vector<double> &cholesky_ns)
{
    const std::string suffix = "." + l.bench->name;
    const mpc::MpcProblem &p = l.ctl->problem();
    mpc::IpmSolver &solver = l.ctl->solver();
    const int k = p.horizon() / 2;
    const Vector &x = solver.stateTrajectory()[k];
    const Vector &u = solver.inputTrajectory()[k];
    const Vector &ref = l.ref;

    mpc::StageEval dyn, cost, ineq;
    r.layer("mpc.stage_eval_ns" + suffix, timePerCallNs([&] {
                p.evalDynamics(x, u, ref, dyn);
                p.evalRunningCost(x, u, ref, cost);
                p.evalRunningIneq(x, u, ref, ineq);
            }));

    // The same three tapes on an environment packed once, [x | u | ref].
    std::vector<double> env;
    for (std::size_t i = 0; i < x.size(); ++i)
        env.push_back(x[i]);
    for (std::size_t i = 0; i < u.size(); ++i)
        env.push_back(u[i]);
    for (std::size_t i = 0; i < ref.size(); ++i)
        env.push_back(ref[i]);
    const sym::Tape *tapes[] = {&p.dynamicsTape(), &p.runningCostTape(),
                                &p.runningIneqTape()};
    for (const sym::Tape *t : tapes)
        if (t->numVars() > static_cast<int>(env.size()))
            r.violate(l.bench->name + ": tape reads past [x | u | ref]");
    std::vector<double> work, out;
    r.layer("sym.tape_eval_ns" + suffix, timePerCallNs([&] {
                for (const sym::Tape *t : tapes)
                    t->evalInto(env, work, out);
            }));

    r.layer("sym.tape_instrs" + suffix,
            static_cast<double>(tapeInstructions(p)));

    std::vector<mpc::StageQp> stages = stageQps(*l.ctl, solver, ref);
    Matrix qn = Matrix::identity(p.nx());
    Vector qnv(p.nx()), dx0(p.nx());
    mpc::RiccatiWorkspace ws;
    ws.resize(stages.size(), p.nx(), p.nu());
    mpc::RiccatiSolution sol;
    FactorStatus status = FactorStatus::Ok;
    r.layer("mpc.riccati_us" + suffix, 1e-3 * timePerCallNs([&] {
                status = mpc::solveRiccati(stages, qn, qnv, dx0, 1e-8, ws,
                                           sol);
            }));
    if (status != FactorStatus::Ok)
        r.violate(l.bench->name + ": Riccati probe failed to factor");

    const Matrix &a = stages[k].r;
    Matrix factor;
    cholesky_ns.push_back(timePerCallNs([&] {
        double reg = 0.0;
        status = choleskyRegularizedInto(a, reg, factor);
    }));
    if (status != FactorStatus::Ok)
        r.violate(l.bench->name + ": Cholesky probe failed");
}

} // namespace

Result
runControl(const RunConfig &cfg)
{
    Result r;
    Tracer tracer(cfg.trace);
    const auto &benches = robots::allBenchmarks();
    std::vector<Loop> loops(benches.size());

    // Setup: every controller compiled from DSL, ready to step.
    std::vector<double> setup_s;
    auto setup = [&] {
        std::vector<std::unique_ptr<core::Controller>> built;
        std::int64_t t0 = nowNs();
        for (std::size_t i = 0; i < benches.size(); ++i) {
            mpc::MpcOptions opt = benches[i].options;
            opt.horizon = kHeadlineHorizon;
            std::int64_t c0 = nowNs();
            built.push_back(std::make_unique<core::Controller>(
                benches[i].source, opt));
            loops[i].compileMs.push_back((nowNs() - c0) / 1e6);
        }
        setup_s.push_back((nowNs() - t0) / 1e9);
        return built;
    };
    std::vector<std::unique_ptr<core::Controller>> first = setup();
    for (std::size_t i = 0; i < benches.size(); ++i)
        loops[i].ctl = std::move(first[i]);

    Digest inputs, commands;
    for (std::size_t i = 0; i < benches.size(); ++i) {
        Loop &l = loops[i];
        l.bench = &benches[i];
        l.length = episodeLength(l.bench->name);
        l.plant = std::make_unique<mpc::Plant>(l.ctl->model());
        startEpisode(l, cfg.seed, i, inputs);
    }
    if (tracer.available()) {
        tracer.setRecording(true);
        for (std::size_t i = 0; i < benches.size(); ++i)
            tracedFrontEnd(tracer, benches[i], kHeadlineHorizon,
                           static_cast<std::int64_t>(i));
    }

    const std::uint64_t rounds = static_cast<std::uint64_t>(
        std::max(4.0, std::ceil(cfg.seconds * kRoundsPerSecond)));
    mpc::StageEval scratch;
    for (std::uint64_t round = 0; round < rounds; ++round) {
        if (setupSampleDue(round, rounds))
            setup(); // Timed, then discarded.
        // Traced runs alternate traced and untraced rounds so the
        // tracing overhead is measured on the same input mix.
        const bool traced = tracer.available() && round % 2 == 1;
        tracer.setRecording(traced);
        ScopedSpan round_span(tracer, "control.round",
                              static_cast<std::int64_t>(round));
        for (std::size_t i = 0; i < loops.size(); ++i) {
            Loop &l = loops[i];
            const double dt = l.ctl->problem().options().dt;
            const std::int64_t request =
                static_cast<std::int64_t>(round * loops.size() + i);
            l.ref = referenceAt(*l.bench, l.spec, l.step, dt);

            int span = tracer.begin("core.step", request);
            const std::int64_t t0 = nowNs();
            const mpc::IpmSolver::Result &res = l.ctl->step(l.x, l.ref);
            const std::int64_t t1 = nowNs();
            const mpc::SolveStats &stats = l.ctl->lastStats();
            tracer.addChild("mpc.solve", t0,
                            t0 + static_cast<std::int64_t>(
                                     stats.solveSeconds * 1e9),
                            request);
            tracer.end(span);

            const double ms = (t1 - t0) / 1e6;
            l.stepMs.push_back(ms);
            (traced ? l.tracedMs : l.untracedMs).push_back(ms);
            l.solves.add(stats);
            ++l.periods;
            if (!mpc::statusUsable(res.status))
                ++l.episodeUnusable;
            if (!commandInBounds(l.ctl->model(), res.u0))
                r.violate(l.bench->name +
                          ": command non-finite or outside input bounds");
            for (std::size_t j = 0; j < res.u0.size(); ++j)
                commands.add(res.u0[j]);
            l.penaltySum += taskPenalty(l.ctl->problem(), l.x, res.u0,
                                        l.ref, scratch);

            {
                ScopedSpan plant(tracer, "mpc.plant_step", request);
                l.x = l.plant->step(l.x, res.u0, l.ref, dt);
            }
            l.maxTilt = std::max(l.maxTilt, tiltOf(*l.bench, l.x));
            if (++l.step == l.length) {
                ++l.episodes;
                if (taskMet(*l.bench, l.spec, l.x, l.maxTilt)) {
                    l.failed += l.episodeUnusable;
                } else {
                    ++l.missedTasks;
                    l.failed += static_cast<std::uint64_t>(l.length);
                }
                ++l.episode;
                startEpisode(l, cfg.seed, i, inputs);
            }
        }
    }
    tracer.setRecording(false);
    // A trailing partial episode has no task verdict yet; its periods
    // fail only on a non-usable status.
    for (Loop &l : loops)
        l.failed += l.episodeUnusable;

    std::vector<double> p50s, tails, compile, penalties, traced_p50,
        untraced_p50;
    const double pct = tailPercentile(rounds);
    SolveTotals all;
    double step_s = 0.0;
    for (Loop &l : loops) {
        p50s.push_back(median(l.stepMs));
        tails.push_back(percentile(l.stepMs, pct));
        compile.push_back(median(l.compileMs));
        penalties.push_back(l.penaltySum / l.periods);
        for (double ms : l.stepMs)
            step_s += ms / 1e3;
        r.attempted += l.periods;
        r.failed += l.failed;
        all += l.solves;
        reportSolverLayer(r, "." + l.bench->name, l.solves);
        if (!l.tracedMs.empty()) {
            traced_p50.push_back(median(l.tracedMs));
            untraced_p50.push_back(median(l.untracedMs));
        }
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "p50 %.3f ms, %.1f iters/solve, %.0f%% at the cap, "
                      "%llu/%llu episodes missed, %llu failed periods",
                      p50s.back(), l.solves.iterationsPerSolve(),
                      100.0 * l.solves.unconvergedRatio(),
                      static_cast<unsigned long long>(l.missedTasks),
                      static_cast<unsigned long long>(l.episodes),
                      static_cast<unsigned long long>(l.failed));
        r.facts["robot." + l.bench->name] = buf;
    }
    recordLatency(r, "period_tail", p50s, tails, pct, rounds);
    r.e2e("setup_s", median(setup_s), "s");
    r.e2e("robots_per_s", r.attempted / step_s, "1/s");
    r.e2e("compile_ms", geomean(compile), "ms");
    const double track_cost = geomean(penalties);
    const double fail_ratio =
        static_cast<double>(r.failed) / static_cast<double>(r.attempted);
    r.e2e("track_cost", track_cost, "unitless");
    r.e2e("fail_ratio", fail_ratio, "ratio");

    r.deterministic["input_digest"] = inputs.hex();
    r.deterministic["command_digest"] = commands.hex();
    r.deterministic["track_cost"] = exact(track_cost);
    r.deterministic["fail_ratio"] = exact(fail_ratio);
    r.deterministic["attempted"] = std::to_string(r.attempted);
    r.deterministic["failed"] = std::to_string(r.failed);
    r.facts["workers"] = "1";
    r.facts["rounds"] = std::to_string(rounds);

    r.spanTable = tracer.layers();
    if (tracer.available()) {
        reportSolverLayer(r, "", all);
        // The aggregate per-iteration cost and iteration count are
        // geomeans over robots, like the end-to-end latencies.
        std::vector<double> us_iter, iters;
        for (Loop &l : loops) {
            us_iter.push_back(l.solves.usPerIteration());
            iters.push_back(l.solves.iterationsPerSolve());
        }
        r.layer("mpc.solve_us_per_iter", geomean(us_iter));
        r.layer("mpc.iters_per_solve", geomean(iters));
        reportSolverCounters(r, all);
        const Tracer::Layer step = r.spanTable["core.step"];
        r.layer("core.step_overhead_us",
                1e-3 * step.selfNs / std::max<std::size_t>(1, step.count));
        r.layer("mpc.plant_step_us",
                meanSpan(r.spanTable, "mpc.plant_step", 1e3));
        reportFrontEnd(r);
        std::vector<double> cholesky_ns;
        for (Loop &l : loops)
            probeLayers(r, l, cholesky_ns);
        r.layer("linalg.cholesky_ns", geomean(cholesky_ns));
        recordTraceOverhead(r, geomean(traced_p50), geomean(untraced_p50));
        tracer.writeChromeTrace(cfg.outDir + "/control-trace.json");
    }
    return r;
}

} // namespace robobench
