/**
 * @file
 * Benchmark program entry point.
 *
 *   robobench --workload control|fleet|toolchain --seed N --seconds S
 *             --trace 0|1 [--out-dir DIR] [--commit ID]
 *   robobench --list-metrics
 *
 * Prints every metric by name and unit, the checks' verdicts, and as
 * the last line one JSON object {correct, attempted, failed, metrics}:
 * the gated end-to-end metrics of an untraced run, or every per-layer
 * metric of a traced one. Run facts, deterministic values and all
 * metrics also go to <out-dir>/<workload>-seed<N>-trace<T>.json.
 * Exits 0 when every invariant held, 3 when one broke, 2 on bad usage.
 */

#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "metrics.hh"
#include "support/strings.hh"
#include "support/trace.hh"
#include "workloads.hh"

#ifndef ROBOBENCH_BUILD_TYPE
#define ROBOBENCH_BUILD_TYPE "unknown"
#endif

namespace robobench
{
namespace
{

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "robobench: %s\nusage: robobench --workload "
                 "control|fleet|toolchain --seed N --seconds S --trace 0|1 "
                 "[--out-dir DIR] [--commit ID] | --list-metrics\n",
                 msg);
    return 2;
}

std::string
quoted(const std::string &s)
{
    return "\"" + robox::jsonEscape(s) + "\"";
}

std::string
metricsJson(const std::vector<MetricDef> &defs,
            const std::map<std::string, Metric> &values, Result &r)
{
    std::string out = "{";
    for (std::size_t i = 0; i < defs.size(); ++i) {
        auto it = values.find(defs[i].name);
        double v = it == values.end() ? 0.0 : it->second.value;
        if (!std::isfinite(v)) {
            r.violate(defs[i].name + " is not finite");
            v = 0.0;
        }
        out += (i ? ", " : "") + quoted(defs[i].name) + ": {\"value\": " +
               robox::jsonNumber(v) + ", \"unit\": " + quoted(defs[i].unit) +
               "}";
    }
    return out + "}";
}

std::string
mapJson(const std::map<std::string, std::string> &m)
{
    std::string out = "{";
    bool first = true;
    for (const auto &[k, v] : m) {
        out += (first ? "" : ", ") + quoted(k) + ": " + quoted(v);
        first = false;
    }
    return out + "}";
}

std::string
detailsJson(const RunConfig &cfg, const Result &r)
{
    std::string out = "{\n  \"workload\": " + quoted(cfg.workload) +
                      ",\n  \"seed\": " + std::to_string(cfg.seed) +
                      ",\n  \"seconds\": " + robox::jsonNumber(cfg.seconds) +
                      ",\n  \"trace\": " + (cfg.trace ? "1" : "0") +
                      ",\n  \"correct\": " + (r.correct ? "true" : "false") +
                      ",\n  \"attempted\": " + std::to_string(r.attempted) +
                      ",\n  \"failed\": " + std::to_string(r.failed) +
                      ",\n  \"facts\": " + mapJson(r.facts) +
                      ",\n  \"deterministic\": " + mapJson(r.deterministic);
    auto metrics = [&](const std::map<std::string, Metric> &m) {
        std::string s = "{";
        bool first = true;
        for (const auto &[k, v] : m) {
            s += (first ? "" : ", ") + quoted(k) + ": {\"value\": " +
                 robox::jsonNumber(v.value) + ", \"unit\": " +
                 quoted(v.unit) + "}";
            first = false;
        }
        return s + "}";
    };
    out += ",\n  \"end_to_end\": " + metrics(r.endToEnd);
    out += ",\n  \"per_layer\": " + metrics(r.layers);
    out += ",\n  \"paper\": [";
    for (std::size_t i = 0; i < r.paper.size(); ++i) {
        const Result::PaperRow &p = r.paper[i];
        out += (i ? ", " : "") + std::string("{\"figure\": ") +
               quoted(p.figure) + ", \"label\": " + quoted(p.label) +
               ", \"paper\": " + robox::jsonNumber(p.paper) +
               ", \"reproduced\": " + robox::jsonNumber(p.reproduced) + "}";
    }
    out += "],\n  \"violations\": [";
    for (std::size_t i = 0; i < r.violations.size(); ++i)
        out += (i ? ", " : "") + quoted(r.violations[i]);
    return out + "]\n}\n";
}

void
printReport(const RunConfig &cfg, const Result &r)
{
    std::printf("\n%-34s %16s  %s\n", "end-to-end metric", "value", "unit");
    for (const auto &[name, m] : r.endToEnd)
        std::printf("%-34s %16.6g  %s\n", name.c_str(), m.value,
                    m.unit.c_str());
    if (!r.paper.empty()) {
        std::printf("\n%-8s %-38s %9s %11s %8s\n", "figure", "quantity",
                    "paper", "reproduced", "err %");
        for (const Result::PaperRow &p : r.paper)
            std::printf("%-8s %-38s %9.3g %11.4g %8.1f\n", p.figure.c_str(),
                        p.label.c_str(), p.paper, p.reproduced,
                        100.0 * std::abs(p.reproduced / p.paper - 1.0));
    }
    if (cfg.trace) {
        std::printf("\n%-24s %9s %12s %12s %12s\n", "span", "count",
                    "total ms", "self ms", "self us/call");
        for (const auto &[name, l] : r.spanTable)
            std::printf("%-24s %9zu %12.3f %12.3f %12.3f\n", name.c_str(),
                        l.count, l.totalNs / 1e6, l.selfNs / 1e6,
                        l.selfNs / 1e3 / std::max<std::size_t>(1, l.count));
        std::printf("\n%-40s %16s  %s\n", "per-layer metric", "value",
                    "unit");
        for (const MetricDef &d : layerDefs()) {
            auto it = r.layers.find(d.name);
            std::printf("%-40s %16.6g  %s\n", d.name.c_str(),
                        it == r.layers.end() ? 0.0 : it->second.value,
                        d.unit.c_str());
        }
    }
    std::printf("\n");
    for (const auto &[k, v] : r.deterministic)
        std::printf("deterministic %-18s %s\n", k.c_str(), v.c_str());
    for (const std::string &v : r.violations)
        std::printf("CHECK FAILED: %s\n", v.c_str());
    std::printf("checks: %s; %llu of %llu operations failed\n",
                r.correct ? "all invariants held" : "INVARIANT BROKEN",
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.attempted));
}

int
run(int argc, char **argv)
{
    RunConfig cfg;
    bool have_workload = false, have_seed = false, have_seconds = false,
         have_trace = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--list-metrics") {
            for (const MetricDef &d : gatedEndToEnd())
                std::printf("end_to_end %s %s\n", d.name.c_str(),
                            d.unit.c_str());
            for (const MetricDef &d : layerDefs())
                std::printf("per_layer %s %s\n", d.name.c_str(),
                            d.unit.c_str());
            return 0;
        }
        if (i + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            cfg.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            cfg.seed = std::strtoull(value, &end, 10);
            have_seed = end && *end == '\0' && *value != '-';
        } else if (flag == "--seconds") {
            cfg.seconds = std::strtod(value, &end);
            have_seconds = end && *end == '\0' && cfg.seconds > 0.0 &&
                           cfg.seconds <= 600.0;
        } else if (flag == "--trace") {
            have_trace = !std::strcmp(value, "0") || !std::strcmp(value, "1");
            cfg.trace = !std::strcmp(value, "1");
        } else if (flag == "--out-dir") {
            cfg.outDir = value;
        } else if (flag == "--commit") {
            cfg.commit = value;
        } else {
            return usage(("unknown flag " + flag).c_str());
        }
    }
    if (!have_workload || !have_seed || !have_seconds || !have_trace)
        return usage("--workload, --seed, --seconds (0 < s <= 600) and "
                     "--trace 0|1 are required");
    Result (*workload)(const RunConfig &) = nullptr;
    if (cfg.workload == "control")
        workload = runControl;
    else if (cfg.workload == "fleet")
        workload = runFleet;
    else if (cfg.workload == "toolchain")
        workload = runToolchain;
    else
        return usage(("unknown workload " + cfg.workload).c_str());
    mkdir(cfg.outDir.c_str(), 0755);

    const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
    std::printf("robobench workload=%s seed=%llu seconds=%g trace=%d\n",
                cfg.workload.c_str(),
                static_cast<unsigned long long>(cfg.seed), cfg.seconds,
                cfg.trace ? 1 : 0);
    std::fflush(stdout);

    Result r = workload(cfg);
    r.e2e("peak_rss_mb", peakRssMb(), "MB");
    for (const MetricDef &d : layerDefs())
        r.layers[d.name].unit = d.unit; // Unexercised layers read 0.
    r.facts["nproc"] = std::to_string(nproc);
    r.facts["build_type"] = ROBOBENCH_BUILD_TYPE;
    r.facts["commit"] = cfg.commit;
    for (const MetricDef &d : gatedEndToEnd()) {
        auto it = r.endToEnd.find(d.name);
        if (it == r.endToEnd.end() || !(it->second.value > 0.0))
            r.violate(d.name + " was not measured");
    }

    for (const auto &[k, v] : r.facts)
        std::printf("%-16s %s\n", k.c_str(), v.c_str());
    printReport(cfg, r);
    const std::string details = cfg.outDir + "/" + cfg.workload + "-seed" +
                                std::to_string(cfg.seed) + "-trace" +
                                (cfg.trace ? "1" : "0") + ".json";
    std::string metrics =
        cfg.trace ? metricsJson(layerDefs(), r.layers, r)
                  : metricsJson(gatedEndToEnd(), r.endToEnd, r);
    robox::trace::writeTextFile(details, detailsJson(cfg, r));
    std::printf("details: %s\n", details.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                r.correct ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed), metrics.c_str());
    return r.correct ? 0 : 3;
}

} // namespace
} // namespace robobench

int
main(int argc, char **argv)
{
    try {
        return robobench::run(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "robobench: aborted: %s\n", e.what());
        return 4;
    }
}
