/**
 * @file
 * The metric catalogue. BENCHMARK.json lists exactly these names; the
 * self-test (selftest.py) checks the two agree.
 */

#ifndef ROBOBENCH_METRICS_HH
#define ROBOBENCH_METRICS_HH

#include <string>
#include <vector>

#include "common.hh"

namespace robobench
{

struct MetricDef
{
    std::string name;
    std::string unit;
};

/**
 * End-to-end metrics in the final JSON line of an untraced run. Every
 * workload reports every one of them (README.md gives the per-workload
 * definitions). track_cost, fail_ratio, sweep_s, sim_us_per_solve and
 * paper_err_pct are printed and checked but not listed here: they are
 * either zero at this commit, seed-independent constants, or defined
 * on only some workloads.
 */
inline const std::vector<MetricDef> &
gatedEndToEnd()
{
    static const std::vector<MetricDef> defs = {
        {"setup_s", "s"},          {"period_p50_ms", "ms"},
        {"period_tail_ms", "ms"},  {"robots_per_s", "1/s"},
        {"compile_ms", "ms"},      {"peak_rss_mb", "MB"},
    };
    return defs;
}

/** Accelerator phases, in mdfg::Phase order. */
inline const std::vector<std::string> &
phaseNames()
{
    static const std::vector<std::string> names = {
        "dynamics", "cost", "constraint", "hessian", "factor", "rollout"};
    return names;
}

/**
 * Per-layer metrics in the final JSON line of a traced run. A layer a
 * workload does not exercise reads 0 on that workload.
 */
inline std::vector<MetricDef>
layerDefs()
{
    std::vector<MetricDef> d;
    auto per_robot = [&](const std::string &name, const std::string &unit,
                         bool aggregate) {
        if (aggregate)
            d.push_back({name, unit});
        for (const std::string &robot : robotNames())
            d.push_back({name + "." + robot, unit});
    };
    per_robot("mpc.solve_us_per_iter", "us", true);
    per_robot("mpc.iters_per_solve", "count", true);
    per_robot("mpc.unconverged_ratio", "ratio", true);
    d.push_back({"mpc.linesearch_evals_per_iter", "count"});
    d.push_back({"mpc.kkt_kflops_per_iter", "kflop"});
    d.push_back({"mpc.recoveries_per_solve", "count"});
    d.push_back({"mpc.heap_allocs_per_solve", "count"});
    d.push_back({"core.step_overhead_us", "us"});
    per_robot("mpc.stage_eval_ns", "ns", false);
    per_robot("sym.tape_eval_ns", "ns", false);
    per_robot("mpc.riccati_us", "us", false);
    d.push_back({"linalg.cholesky_ns", "ns"});
    per_robot("sym.tape_instrs", "count", false);
    d.push_back({"mpc.batch_overhead_ms", "ms"});
    d.push_back({"mpc.batch_worker_util", "ratio"});
    d.push_back({"mpc.batch_deadline_miss_ratio", "ratio"});
    d.push_back({"mpc.admission_demotions", "count"});
    d.push_back({"mpc.gate_rejections", "count"});
    d.push_back({"mpc.plant_step_us", "us"});
    d.push_back({"dsl.parse_us", "us"});
    d.push_back({"dsl.analyze_us", "us"});
    d.push_back({"mpc.problem_build_ms", "ms"});
    d.push_back({"core.measure_iters_ms", "ms"});
    d.push_back({"translator.build_ms", "ms"});
    d.push_back({"compiler.map_ms", "ms"});
    d.push_back({"accel.sim_ms", "ms"});
    d.push_back({"perfmodel.predict_us", "us"});
    d.push_back({"accel.sim_ns_per_node", "ns"});
    d.push_back({"compiler.emit_ms", "ms"});
    d.push_back({"compiler.image_us", "us"});
    d.push_back({"compiler.code_kb", "kB"});
    d.push_back({"mdfg.nodes", "count"});
    d.push_back({"compiler.neighbor_transfers", "count"});
    d.push_back({"compiler.cross_cc_transfers", "count"});
    per_robot("accel.cycles", "cycles", false);
    for (const std::string &phase : phaseNames())
        d.push_back({"accel.busy_cycles." + phase, "cycles"});
    d.push_back({"accel.external_kb", "kB"});
    d.push_back({"accel.watchdog_trips", "count"});
    d.push_back({"trace.overhead_pct", "%"});
    return d;
}

} // namespace robobench

#endif // ROBOBENCH_METRICS_HH
