/**
 * @file
 * Workload "toolchain": the architect's path. DSL to core::Controller
 * for the six robots, then compileForAccelerator, packImage and
 * verifyImage for each (the setup); then the paper's figure sweep
 * through core::evaluateBenchmark: Fig. 5-8 at N = 32 plus the
 * horizon, interconnect, compute-unit and bandwidth points of
 * fig09-fig12. The CPU solver runs only inside the cached
 * core::measureIterations, which is warmed before timing.
 *
 * A traced pass runs every sweep point layer by layer (parse, analyze,
 * problem build, translator, mapper, simulator, performance model) and
 * checks it reproduces evaluateBenchmark exactly.
 */

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "bench/bench_util.hh"
#include "compiler/binary.hh"
#include "compiler/codegen.hh"
#include "compiler/mapper.hh"
#include "core/controller.hh"
#include "core/evaluation.hh"
#include "dsl/parser.hh"
#include "dsl/sema.hh"
#include "episodes.hh"
#include "metrics.hh"
#include "paper.hh"
#include "perfmodel/profile.hh"
#include "translator/workload.hh"
#include "workloads.hh"

namespace robobench
{

using namespace robox;

namespace
{

/** Host seconds of one sweep pass on a 4-core Xeon at this commit;
 *  --seconds buys round(seconds / this) passes, at least one. */
constexpr double kSecondsPerPass = 6.0;

/** Horizon of the long-horizon figures (Fig. 10-12). */
constexpr int kLongHorizon = 1024;

/** One sweep point: a robot at a horizon and accelerator config. */
struct Point
{
    const robots::Benchmark *bench = nullptr;
    std::string figure;
    int horizon = kHeadlineHorizon;
    accel::AcceleratorConfig config;
    /** Charge the N = 1024 iteration count explicitly, as
     *  fig10-fig12 do; otherwise evaluateBenchmark measures it. */
    bool fixedIterations = false;
};

std::vector<Point>
sweepPoints()
{
    const accel::AcceleratorConfig base =
        accel::AcceleratorConfig::paperDefault();
    std::vector<Point> points;
    for (const robots::Benchmark &b : robots::allBenchmarks()) {
        points.push_back({&b, "fig05-08", kHeadlineHorizon, base, false});
        for (int n : {32, 64, 128, 256, 512, 1024})
            points.push_back({&b, "fig09", n, base, false});
        accel::AcceleratorConfig no_ic = base;
        no_ic.computeEnabledInterconnect = false;
        points.push_back({&b, "fig10-on", kLongHorizon, base, true});
        points.push_back({&b, "fig10-off", kLongHorizon, no_ic, true});
        for (int cus : {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024})
            points.push_back({&b, "fig11", kLongHorizon,
                              bench::configWithCus(cus), true});
        for (double m : {0.25, 0.5, 1.0, 1.5, 2.0, 4.0}) {
            accel::AcceleratorConfig cfg = base;
            cfg.bandwidthGbps = 128.0 * m;
            points.push_back({&b, "fig12", kLongHorizon, cfg, true});
        }
    }
    return points;
}

int
iterationsFor(const Point &p)
{
    return p.fixedIterations
               ? core::measureIterations(*p.bench, kLongHorizon)
               : -1;
}

bool
sameEvaluation(const core::BenchmarkEvaluation &a,
               const core::BenchmarkEvaluation &b)
{
    if (a.robox.seconds != b.robox.seconds ||
        a.ipmIterations != b.ipmIterations ||
        a.baselines.size() != b.baselines.size())
        return false;
    for (std::size_t i = 0; i < a.baselines.size(); ++i)
        if (a.baselines[i].seconds != b.baselines[i].seconds)
            return false;
    return true;
}

bool
evaluationSane(const core::BenchmarkEvaluation &e)
{
    if (!(std::isfinite(e.robox.seconds) && e.robox.seconds > 0.0))
        return false;
    for (const core::PlatformResult &p : e.baselines)
        if (!(std::isfinite(p.seconds) && p.seconds > 0.0))
            return false;
    return e.baselines.size() == perfmodel::allPlatforms().size();
}

bool
sameCycles(const accel::CycleStats &a, const accel::CycleStats &b)
{
    for (int p = 0; p < mdfg::kNumPhases; ++p)
        if (a.busyCyclesPerPhase[p] != b.busyCyclesPerPhase[p])
            return false;
    return a.computeCycles == b.computeCycles &&
           a.memoryCycles == b.memoryCycles && a.cycles == b.cycles &&
           a.busTransfers == b.busTransfers &&
           a.neighborTransfers == b.neighborTransfers &&
           a.treeTransfers == b.treeTransfers &&
           a.aggregations == b.aggregations &&
           a.externalBytes == b.externalBytes &&
           a.watchdogTrips() == b.watchdogTrips() &&
           a.cycleLimitHit == b.cycleLimitHit;
}

/** evaluateBenchmark one layer at a time, under spans. */
core::BenchmarkEvaluation
tracedEvaluation(Tracer &tracer, const Point &p, std::int64_t request,
                 std::size_t &nodes, std::uint64_t &watchdog)
{
    ScopedSpan point(tracer, "toolchain.point", request);
    core::BenchmarkEvaluation eval;
    eval.benchmark = p.bench->name;
    eval.horizon = p.horizon;
    {
        ScopedSpan s(tracer, "core.measure_iters", request);
        eval.ipmIterations =
            p.fixedIterations ? iterationsFor(p)
                              : core::measureIterations(*p.bench, p.horizon);
    }
    std::unique_ptr<mpc::MpcProblem> problem =
        tracedFrontEnd(tracer, *p.bench, p.horizon, request);
    const int slice = std::min(p.horizon, 64);
    translator::Workload workload;
    {
        ScopedSpan s(tracer, "translator.build", request);
        workload = translator::buildSolverIteration(*problem, slice);
    }
    compiler::ProgramMap map;
    {
        ScopedSpan s(tracer, "compiler.map", request);
        map = compiler::mapGraph(workload.graph, p.config);
    }
    accel::CycleStats cycles;
    {
        ScopedSpan s(tracer, "accel.sim", request);
        cycles = accel::simulate(workload, map, p.config);
    }
    cycles = accel::extrapolate(cycles, slice, p.horizon);
    nodes += workload.graph.size();
    watchdog += cycles.watchdogTrips() + (cycles.cycleLimitHit ? 1 : 0);
    eval.robox.name = "RoboX";
    eval.robox.seconds = cycles.seconds(p.config) * eval.ipmIterations;
    eval.robox.watts = p.config.powerWatts();
    {
        ScopedSpan s(tracer, "perfmodel.predict", request);
        perfmodel::WorkloadProfile profile =
            perfmodel::profileProblem(*problem, eval.ipmIterations);
        for (const perfmodel::PlatformSpec &platform :
             perfmodel::allPlatforms()) {
            core::PlatformResult r;
            r.name = platform.name;
            r.seconds = perfmodel::predictSeconds(platform, profile);
            r.watts = platform.busyPowerWatts;
            eval.baselines.push_back(r);
        }
    }
    return eval;
}

/** The reproduced value a paper reference compares against. */
double
reproduced(PaperQuantity q, const std::vector<Point> &points,
           const std::vector<core::BenchmarkEvaluation> &evals)
{
    auto collect = [&](const std::string &figure, int horizon, auto f) {
        std::vector<double> v;
        for (std::size_t i = 0; i < points.size(); ++i)
            if (points[i].figure == figure && points[i].horizon == horizon)
                v.push_back(f(evals[i]));
        return v;
    };
    using E = core::BenchmarkEvaluation;
    auto headline = [&](auto f) {
        return collect("fig05-08", kHeadlineHorizon, f);
    };
    auto over = [](const char *name) {
        return [name](const E &e) { return e.speedupOver(name); };
    };
    auto ppw = [](const char *name) {
        return [name](const E &e) { return e.ppwOver(name); };
    };
    switch (q) {
      case PaperQuantity::SpeedupArm:
        return geomean(headline(over("ARM Cortex A57")));
      case PaperQuantity::SpeedupXeon:
        return geomean(headline(over("Intel Xeon E3")));
      case PaperQuantity::SpeedupArmMin: {
        auto v = headline(over("ARM Cortex A57"));
        return *std::min_element(v.begin(), v.end());
      }
      case PaperQuantity::SpeedupArmMax: {
        auto v = headline(over("ARM Cortex A57"));
        return *std::max_element(v.begin(), v.end());
      }
      case PaperQuantity::SpeedupGtx:
        return geomean(headline(over("GTX 650 Ti")));
      case PaperQuantity::SpeedupTegra:
        return geomean(headline(over("Tegra X2")));
      case PaperQuantity::SpeedupK40:
        return geomean(headline(over("Tesla K40")));
      case PaperQuantity::PpwArm:
        return geomean(headline(ppw("ARM Cortex A57")));
      case PaperQuantity::XeonPpwArm:
        return geomean(headline([](const E &e) {
            return e.platform("Intel Xeon E3").perfPerWatt() /
                   e.platform("ARM Cortex A57").perfPerWatt();
        }));
      case PaperQuantity::PpwGtx:
        return geomean(headline(ppw("GTX 650 Ti")));
      case PaperQuantity::PpwTegra:
        return geomean(headline(ppw("Tegra X2")));
      case PaperQuantity::PpwK40:
        return geomean(headline(ppw("Tesla K40")));
      case PaperQuantity::HorizonArm32:
        return geomean(collect("fig09", 32, over("ARM Cortex A57")));
      case PaperQuantity::HorizonArm1024:
        return geomean(collect("fig09", 1024, over("ARM Cortex A57")));
      case PaperQuantity::InterconnectOn:
        return geomean(
            collect("fig10-on", kLongHorizon, over("ARM Cortex A57")));
      case PaperQuantity::InterconnectOff:
        return geomean(
            collect("fig10-off", kLongHorizon, over("ARM Cortex A57")));
    }
    return 0.0;
}

/** 0..n-1 in a seeded order (Fisher-Yates). */
std::vector<std::size_t>
shuffled(std::size_t n, Rng &rng)
{
    std::vector<std::size_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = i;
    for (std::size_t i = n; i > 1; --i)
        std::swap(v[i - 1], v[rng.next() % i]);
    return v;
}

/** Headline accelerator image of one robot, one layer at a time;
 *  returns the simulated cycles of its mapped workload. */
accel::CycleStats
tracedImage(Tracer &tracer, Result &r, const core::Controller &ctl,
            std::int64_t request)
{
    const accel::AcceleratorConfig cfg =
        accel::AcceleratorConfig::paperDefault();
    const mpc::MpcProblem &problem = ctl.problem();
    translator::Workload workload;
    {
        ScopedSpan s(tracer, "image.translate", request);
        workload = translator::buildSolverIteration(
            problem, std::min(kHeadlineHorizon, problem.horizon()));
    }
    compiler::ProgramMap map;
    {
        ScopedSpan s(tracer, "image.map", request);
        map = compiler::mapGraph(workload.graph, cfg);
    }
    compiler::IsaStreams streams;
    {
        ScopedSpan s(tracer, "compiler.emit", request);
        streams = compiler::emitStreams(workload, map, cfg);
    }
    {
        ScopedSpan s(tracer, "compiler.image", request);
        std::vector<std::uint8_t> image = compiler::packImage(streams);
        if (compiler::verifyImage(image) != compiler::ImageStatus::Ok)
            r.violate(ctl.model().systemName + ": traced image fails "
                                               "verifyImage");
    }
    r.layers["compiler.code_kb"].value += streams.codeBytes() / 1024.0;
    r.layers["mdfg.nodes"].value += static_cast<double>(workload.graph.size());
    r.layers["compiler.neighbor_transfers"].value +=
        static_cast<double>(map.neighborTransfers);
    r.layers["compiler.cross_cc_transfers"].value +=
        static_cast<double>(map.crossCcTransfers);
    const accel::CycleStats headline =
        accel::extrapolate(accel::simulate(workload, map, cfg),
                           workload.stages, problem.horizon());
    if (!sameCycles(headline, accel::simulateIteration(problem, cfg)))
        r.violate(ctl.model().systemName +
                  ": layer-by-layer cycles differ from simulateIteration");
    return headline;
}

} // namespace

Result
runToolchain(const RunConfig &cfg)
{
    Result r;
    Tracer tracer(cfg.trace);
    const auto &benches = robots::allBenchmarks();
    Rng order_rng(streamSeed(cfg.seed, 0x70c));
    Digest inputs;

    // The seed orders the robots in setup and the sweep points.
    const std::vector<std::size_t> robot_order =
        shuffled(benches.size(), order_rng);
    const std::vector<Point> points = sweepPoints();
    const std::vector<std::size_t> order = shuffled(points.size(), order_rng);
    for (std::size_t i : robot_order)
        inputs.add(static_cast<std::uint64_t>(i));
    for (std::size_t i : order)
        inputs.add(static_cast<std::uint64_t>(i));

    // Setup: controllers ready to serve plus their headline images.
    const accel::AcceleratorConfig headline_cfg =
        accel::AcceleratorConfig::paperDefault();
    std::vector<double> setup_s;
    std::vector<std::vector<double>> compile_ms(benches.size());
    std::string image_digest;
    auto setup = [&] {
        std::vector<std::unique_ptr<core::Controller>> built(benches.size());
        Digest images;
        std::int64_t t0 = nowNs();
        for (std::size_t i : robot_order) {
            mpc::MpcOptions opt = benches[i].options;
            opt.horizon = kHeadlineHorizon;
            std::int64_t c0 = nowNs();
            built[i] = std::make_unique<core::Controller>(benches[i].source,
                                                          opt);
            compile_ms[i].push_back((nowNs() - c0) / 1e6);
            std::vector<std::uint8_t> image = compiler::packImage(
                built[i]->compileForAccelerator(headline_cfg,
                                                kHeadlineHorizon));
            if (compiler::verifyImage(image) != compiler::ImageStatus::Ok)
                r.violate(benches[i].name + ": image fails verifyImage");
            images.add(static_cast<std::uint64_t>(
                compiler::imageChecksum(image)));
        }
        setup_s.push_back((nowNs() - t0) / 1e9);
        if (image_digest.empty())
            image_digest = images.hex();
        else if (images.hex() != image_digest)
            r.violate("headline images differ between set-ups");
        return built;
    };
    std::vector<std::unique_ptr<core::Controller>> ctls = setup();
    for (std::size_t i = 0; i < benches.size(); ++i) {
        const robots::Benchmark &b = benches[i];
        const dsl::ModelSpec &m = ctls[i]->model();
        if (m.nx() != b.expStates || m.nu() != b.expInputs ||
            static_cast<int>(m.penalties.size()) != b.expPenalties ||
            robots::tableConstraintCount(m) != b.expConstraints)
            r.violate(b.name + ": Table III counts differ from the "
                               "Benchmark struct");
    }

    // Warm the per-process iteration cache: the only CPU solver work.
    tracer.setRecording(true);
    for (std::size_t i : robot_order) {
        for (int n : {kHeadlineHorizon, kLongHorizon}) {
            ScopedSpan s(tracer, "core.measure_iters",
                         static_cast<std::int64_t>(i));
            core::measureIterations(benches[i], n);
        }
    }
    std::vector<accel::CycleStats> headline_cycles(benches.size());
    if (tracer.available())
        for (std::size_t i : robot_order) {
            tracedFrontEnd(tracer, benches[i], kHeadlineHorizon,
                           static_cast<std::int64_t>(i));
            headline_cycles[i] = tracedImage(
                tracer, r, *ctls[i], static_cast<std::int64_t>(i));
        }
    tracer.setRecording(false);

    int passes = std::max(
        1, static_cast<int>(std::lround(cfg.seconds / kSecondsPerPass)));
    if (tracer.available())
        passes = std::max(passes, 2);
    std::vector<core::BenchmarkEvaluation> reference(points.size());
    std::vector<double> point_ms, pass_s;
    double traced_s = 0.0, untraced_s = 0.0;
    std::size_t sim_nodes = 0;
    std::uint64_t watchdog = 0;
    int traced_passes = 0;
    for (int pass = 0; pass < passes; ++pass) {
        const bool traced = tracer.available() && pass % 2 == 1;
        tracer.setRecording(traced);
        traced_passes += traced;
        double pass_seconds = 0.0;
        for (std::size_t n = 0; n < order.size(); ++n) {
            if (setupSampleDue(pass * order.size() + n,
                               passes * order.size()))
                setup(); // Timed, then discarded.
            const std::size_t idx = order[n];
            const Point &p = points[idx];
            const std::int64_t request =
                static_cast<std::int64_t>(pass * points.size() + idx);
            const std::int64_t t0 = nowNs();
            core::BenchmarkEvaluation eval =
                traced ? tracedEvaluation(tracer, p, request, sim_nodes,
                                          watchdog)
                       : core::evaluateBenchmark(*p.bench, p.horizon,
                                                 p.config, iterationsFor(p));
            const double seconds = (nowNs() - t0) / 1e9;
            pass_seconds += seconds;
            ++r.attempted;
            bool ok = evaluationSane(eval);
            if (pass == 0)
                reference[idx] = eval;
            else
                ok = ok && sameEvaluation(eval, reference[idx]);
            r.failed += !ok;
            if (!traced)
                point_ms.push_back(seconds * 1e3);
        }
        (traced ? traced_s : untraced_s) += pass_seconds;
        if (!traced)
            pass_s.push_back(pass_seconds);
    }
    tracer.setRecording(false);

    const double pct = tailPercentile(point_ms.size());
    recordLatency(r, "period_tail", {median(point_ms)},
                  {percentile(point_ms, pct)}, pct, point_ms.size());
    r.e2e("setup_s", median(setup_s), "s");
    double sweep_total = 0.0;
    for (double s : pass_s)
        sweep_total += s;
    r.e2e("robots_per_s", point_ms.size() / sweep_total, "1/s");
    std::vector<double> compile;
    for (const auto &samples : compile_ms)
        compile.push_back(median(samples));
    r.e2e("compile_ms", geomean(compile), "ms");
    r.e2e("sweep_s", median(pass_s), "s");

    std::vector<double> sim_us;
    for (std::size_t i = 0; i < points.size(); ++i)
        if (points[i].figure == "fig05-08")
            sim_us.push_back(reference[i].robox.seconds * 1e6);
    const double sim_us_per_solve = geomean(sim_us);
    double err_sum = 0.0;
    for (const PaperValue &v : kPaperValues) {
        const double repro = reproduced(v.quantity, points, reference);
        r.paper.push_back({v.figure, v.label, v.value, repro});
        err_sum += std::abs(repro / v.value - 1.0);
    }
    const double paper_err_pct = 100.0 * err_sum / std::size(kPaperValues);
    const double fail_ratio =
        static_cast<double>(r.failed) / static_cast<double>(r.attempted);
    r.e2e("sim_us_per_solve", sim_us_per_solve, "sim_us");
    r.e2e("paper_err_pct", paper_err_pct, "%");
    r.e2e("fail_ratio", fail_ratio, "ratio");

    r.deterministic["input_digest"] = inputs.hex();
    r.deterministic["image_digest"] = image_digest;
    r.deterministic["sim_us_per_solve"] = exact(sim_us_per_solve);
    r.deterministic["paper_err_pct"] = exact(paper_err_pct);
    r.deterministic["fail_ratio"] = exact(fail_ratio);
    r.deterministic["attempted"] = std::to_string(r.attempted);
    r.deterministic["failed"] = std::to_string(r.failed);
    r.facts["workers"] = "1";
    r.facts["passes"] = std::to_string(passes);
    r.facts["sweep_points"] = std::to_string(points.size());

    r.spanTable = tracer.layers();
    if (tracer.available()) {
        const SpanTable &spans = r.spanTable;
        const double per_pass = 1.0 / std::max(1, traced_passes);
        r.layer("core.measure_iters_ms",
                totalSpan(spans, "core.measure_iters", 1e6));
        reportFrontEnd(r);
        r.layer("translator.build_ms",
                per_pass * totalSpan(spans, "translator.build", 1e6));
        r.layer("compiler.map_ms",
                per_pass * totalSpan(spans, "compiler.map", 1e6));
        r.layer("accel.sim_ms", per_pass * totalSpan(spans, "accel.sim", 1e6));
        r.layer("perfmodel.predict_us",
                per_pass * totalSpan(spans, "perfmodel.predict", 1e3));
        r.layer("accel.sim_ns_per_node",
                totalSpan(spans, "accel.sim", 1.0) /
                    std::max<std::size_t>(1, sim_nodes));
        r.layer("compiler.emit_ms", totalSpan(spans, "compiler.emit", 1e6));
        r.layer("compiler.image_us",
                totalSpan(spans, "compiler.image", 1e3));
        std::uint64_t busy[mdfg::kNumPhases] = {};
        double external = 0.0;
        for (std::size_t i = 0; i < benches.size(); ++i) {
            const accel::CycleStats &c = headline_cycles[i];
            r.layer("accel.cycles." + benches[i].name,
                    static_cast<double>(c.cycles));
            for (int ph = 0; ph < mdfg::kNumPhases; ++ph)
                busy[ph] += c.busyCyclesPerPhase[ph];
            external += c.externalBytes / 1024.0;
            r.layer("sym.tape_instrs." + benches[i].name,
                    static_cast<double>(tapeInstructions(ctls[i]->problem())));
        }
        for (int ph = 0; ph < mdfg::kNumPhases; ++ph)
            r.layer("accel.busy_cycles." + phaseNames()[ph],
                    static_cast<double>(busy[ph]));
        r.layer("accel.external_kb", external);
        r.layer("accel.watchdog_trips", static_cast<double>(watchdog));
        recordTraceOverhead(r, traced_s / traced_passes,
                            untraced_s / (passes - traced_passes));
        tracer.writeChromeTrace(cfg.outDir + "/toolchain-trace.json");
    }
    return r;
}

std::unique_ptr<mpc::MpcProblem>
tracedFrontEnd(Tracer &tracer, const robots::Benchmark &bench, int horizon,
               std::int64_t request)
{
    dsl::ParseResult parsed;
    {
        ScopedSpan s(tracer, "dsl.parse", request);
        parsed = dsl::parseChecked(bench.source);
    }
    if (!parsed.ok())
        throw std::runtime_error(bench.name + ": DSL program fails to parse");
    dsl::ModelSpec model;
    {
        ScopedSpan s(tracer, "dsl.analyze", request);
        model = dsl::analyze(parsed.program);
    }
    mpc::MpcOptions opt = bench.options;
    opt.horizon = horizon;
    ScopedSpan s(tracer, "mpc.problem_build", request);
    return std::make_unique<mpc::MpcProblem>(model, opt);
}

void
reportFrontEnd(Result &r)
{
    r.layer("dsl.parse_us", meanSpan(r.spanTable, "dsl.parse", 1e3));
    r.layer("dsl.analyze_us", meanSpan(r.spanTable, "dsl.analyze", 1e3));
    r.layer("mpc.problem_build_ms",
            meanSpan(r.spanTable, "mpc.problem_build", 1e6));
}

std::size_t
tapeInstructions(const robox::mpc::MpcProblem &p)
{
    return p.dynamicsTape().instrs().size() +
           p.runningCostTape().instrs().size() +
           p.terminalCostTape().instrs().size() +
           p.runningIneqTape().instrs().size() +
           p.terminalIneqTape().instrs().size();
}

} // namespace robobench
