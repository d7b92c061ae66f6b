/**
 * @file
 * The paper's evaluation, Tables III-IV and Figs. 5-12, from one
 * deterministic sweep. Each distinct (robot, horizon, accelerator
 * configuration) point is evaluated once; every artifact is a view of
 * those points, printed beside the paper's values (kPaper).
 *
 *   reproduce [ARTIFACT]...  table3, table4, fig05 ... fig12 (default:
 *                            all of them)
 *   reproduce --json         every point's raw results, Tables III-IV,
 *                            and kPaper with the reproduced values
 *
 * tests/golden/paper_numbers.json pins the --json output byte for
 * byte. Exits 1 when a Table III count differs from the paper's, 2 on
 * an unknown argument.
 */

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <tuple>
#include <utility>

#include "bench/bench_util.hh"
#include "core/evaluation.hh"
#include "perfmodel/platforms.hh"
#include "robots/robots.hh"
#include "support/strings.hh"

using namespace robox;

namespace
{

using Config = accel::AcceleratorConfig;
using Eval = core::BenchmarkEvaluation;
using Metric = std::function<double(const Eval &)>;

const std::string kRobox = "RoboX", kArm = "ARM Cortex A57",
                  kXeon = "Intel Xeon E3", kTegra = "Tegra X2",
                  kGtx = "GTX 650 Ti", kK40 = "Tesla K40";

/** A horizon and accelerator configuration, evaluated per robot. */
struct Point
{
    int horizon;
    Config config = Config::paperDefault();
};

const Point kHeadline{32}; // Figs. 5-8.
const Point kLong{1024};   // Figs. 10-12, and Fig. 9's last column.

Point
longHorizon(double bandwidth, bool alus = true)
{
    Point p{1024};
    p.config.bandwidthGbps = 128.0 * bandwidth;
    p.config.computeEnabledInterconnect = alus;
    return p;
}

const Point kNoAlus = longHorizon(1.0, false); // Fig. 10's ablation.

std::string
fmt(const char *format, double value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), format, value);
    return buf;
}

using Axis = std::vector<std::pair<std::string, Point>>;

/** The labelled columns of Fig. 9, 11 or 12. */
Axis
axis(int figure)
{
    Axis a;
    if (figure == 9)
        for (int n : {32, 64, 128, 256, 512, 1024})
            a.push_back({std::to_string(n), Point{n}});
    if (figure == 11)
        for (int cus : {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024})
            a.push_back({std::to_string(cus),
                         Point{1024, bench::configWithCus(cus)}});
    if (figure == 12)
        for (double m : {0.25, 0.5, 1.0, 1.5, 2.0, 4.0})
            a.push_back({fmt("%.2fx", m), longHorizon(m)});
    return a;
}

constexpr bool kPerWatt = true;

/** Speedup of `who` (RoboX or a baseline) over baseline `base`, or
 *  with kPerWatt its performance-per-watt improvement. */
Metric
gain(const std::string &who, const std::string &base, bool perWatt = false)
{
    return [=](const Eval &e) {
        const core::PlatformResult &a =
            who == kRobox ? e.robox : e.platform(who);
        const core::PlatformResult &b = e.platform(base);
        return perWatt ? a.perfPerWatt() / b.perfPerWatt()
                       : b.seconds / a.seconds;
    };
}

/** A JSON object from keys and already rendered values. */
std::string
object(std::initializer_list<std::pair<std::string, std::string>> fields)
{
    std::string s;
    for (const auto &[key, value] : fields)
        s += (s.empty() ? "{\"" : ", \"") + key + "\": " + value;
    return s + "}";
}

std::string
quoted(const std::string &s)
{
    return "\"" + jsonEscape(s) + "\"";
}

/** Evaluations memoized per distinct point, in a canonical order. */
class Sweep
{
  public:
    const Eval &
    at(std::size_t robot, const Point &p)
    {
        const Config &c = p.config;
        Key key{robot, p.horizon, c.numCcs, c.cusPerCc, c.bandwidthGbps,
                c.computeEnabledInterconnect};
        auto it = evals_.find(key);
        if (it == evals_.end())
            it = evals_.emplace(key, core::evaluateBenchmark(
                                         robots::allBenchmarks()[robot],
                                         p.horizon, c)).first;
        return it->second;
    }

    /** `m` at `p` for each robot, in Table III order. */
    std::vector<double>
    values(const Point &p, const Metric &m)
    {
        std::vector<double> v;
        for (std::size_t r = 0; r < robots::allBenchmarks().size(); ++r)
            v.push_back(m(at(r, p)));
        return v;
    }

    /** One JSON object per point evaluated so far. */
    std::vector<std::string>
    json() const
    {
        auto result = [](const core::PlatformResult &r) {
            return object({{"seconds", jsonNumber(r.seconds)},
                           {"watts", jsonNumber(r.watts)}});
        };
        std::vector<std::string> out;
        for (const auto &[key, e] : evals_) {
            const auto &[robot, horizon, ccs, cus, gbps, alus] = key;
            std::string baselines;
            for (const core::PlatformResult &b : e.baselines)
                baselines += (baselines.empty() ? "{" : ", ") +
                             quoted(b.name) + ": " + result(b);
            out.push_back(object(
                {{"robot", quoted(e.benchmark)},
                 {"horizon", std::to_string(horizon)},
                 {"numCcs", std::to_string(ccs)},
                 {"cusPerCc", std::to_string(cus)},
                 {"bandwidthGbps", jsonNumber(gbps)},
                 {"interconnectAlus", alus ? "true" : "false"},
                 {"ipmIterations", std::to_string(e.ipmIterations)},
                 {"robox", result(e.robox)},
                 {"baselines", baselines + "}"}}));
        }
        return out;
    }

  private:
    /** The robot's index, then the fields the sweeps vary. */
    using Key = std::tuple<std::size_t, int, int, int, double, bool>;
    std::map<Key, Eval> evals_;
};

/** One table column: a value per robot and the "Geomean" row. */
struct Column
{
    std::string header;
    std::vector<double> values;
    double summary;
    const char *format;
};

Column
column(Sweep &s, std::string header, const Point &p, const Metric &m,
       const char *format = "%.1fx")
{
    std::vector<double> v = s.values(p, m);
    double g = core::geometricMean(v);
    return {std::move(header), std::move(v), g, format};
}

bool
printTable(const std::vector<Column> &cols)
{
    auto row = [&](const std::string &name, auto cell) {
        std::printf("%-13s", name.c_str());
        for (const Column &c : cols)
            std::printf(" %*s", std::max<int>(c.header.size(), 7),
                        cell(c).c_str());
        std::printf("\n");
    };
    row("Benchmark", [](const Column &c) { return c.header; });
    row("---------",
        [](const Column &c) { return std::string(c.header.size(), '-'); });
    const auto &robots = robots::allBenchmarks();
    for (std::size_t r = 0; r < robots.size(); ++r)
        row(robots[r].name,
            [&](const Column &c) { return fmt(c.format, c.values[r]); });
    row("Geomean", [](const Column &c) { return fmt(c.format, c.summary); });
    return true;
}

/** Figs. 5-8: the gain of each platform over `base` at N = 32. */
bool
headlineTable(Sweep &s, bool perWatt, const std::string &base,
              const std::vector<std::pair<std::string, std::string>> &who)
{
    std::vector<Column> cols;
    for (const auto &[header, platform] : who)
        cols.push_back(column(s, header, kHeadline,
                              gain(platform, base, perWatt), "%.2fx"));
    return printTable(cols);
}

/** Figs. 9, 11 and 12: RoboX over ARM A57 along a sweep axis. */
bool
axisTable(Sweep &s, const Axis &points)
{
    std::vector<Column> cols;
    for (const auto &[label, p] : points)
        cols.push_back(column(s, label, p, gain(kRobox, kArm)));
    return printTable(cols);
}

/** A Table III row through the DSL frontend: states, inputs,
 *  penalties and constraints. */
std::array<int, 4>
table3Counts(const robots::Benchmark &b)
{
    dsl::ModelSpec model = robots::analyzeBenchmark(b);
    return {model.nx(), model.nu(), static_cast<int>(model.penalties.size()),
            robots::tableConstraintCount(model)};
}

std::array<int, 4>
paperCounts(const robots::Benchmark &b)
{
    return {b.expStates, b.expInputs, b.expPenalties, b.expConstraints};
}

double
least(const std::vector<double> &v)
{
    return *std::min_element(v.begin(), v.end());
}

double
most(const std::vector<double> &v)
{
    return *std::max_element(v.begin(), v.end());
}

double
hexacopter(const std::vector<double> &v)
{
    return v[&robots::benchmark("Hexacopter") - &robots::allBenchmarks()[0]];
}

using Reproduce = std::function<double(Sweep &)>;

/** `m` at `p` for each robot, reduced to one value by `reduce`. */
Reproduce
over(const Point &p, const Metric &m,
     double (*reduce)(const std::vector<double> &) = core::geometricMean)
{
    return [=](Sweep &s) { return reduce(s.values(p, m)); };
}

/** A value the paper reports, and how this reproduction computes it. */
struct PaperValue
{
    const char *artifact;
    const char *label;
    double paper;
    int decimals; //!< Printed decimals of the reproduced value.
    Reproduce reproduce;
};

const Config kDesign = Config::paperDefault();

const PaperValue kPaper[] = {
    {"table4", "PEs", 256, 0,
     [](Sweep &) { return 1.0 * kDesign.totalCus(); }},
    {"table4", "Clock (GHz)", 1, 1,
     [](Sweep &) { return kDesign.clockGhz; }},
    {"table4", "On-chip memory (KB)", 512, 0,
     [](Sweep &) { return 1.0 * kDesign.onChipMemoryKb; }},
    {"table4", "LUT entries", 4096, 0,
     [](Sweep &) { return 1.0 * kDesign.lutEntries; }},
    {"table4", "Total power (W)", 3.4, 1,
     [](Sweep &) { return kDesign.powerWatts(); }},
    {"table4", "Peak bandwidth (Gb/s)", 128, 0,
     [](Sweep &) { return kDesign.bandwidthGbps; }},
    {"fig05", "RoboX over ARM A57 (geomean)", 29.4, 2,
     over(kHeadline, gain(kRobox, kArm))},
    {"fig05", "RoboX over Xeon E3 (geomean)", 7.3, 2,
     over(kHeadline, gain(kRobox, kXeon))},
    {"fig05", "Smallest RoboX speedup over ARM A57", 6.2, 2,
     over(kHeadline, gain(kRobox, kArm), least)},
    {"fig05", "Largest RoboX speedup over ARM A57", 79.1, 2,
     over(kHeadline, gain(kRobox, kArm), most)},
    {"fig06", "RoboX over GTX 650 Ti (geomean)", 2.0, 2,
     over(kHeadline, gain(kRobox, kGtx))},
    {"fig06", "RoboX over Tegra X2 (geomean)", 3.5, 2,
     over(kHeadline, gain(kRobox, kTegra))},
    {"fig06", "RoboX vs. Tesla K40 (geomean)", 0.77, 2,
     over(kHeadline, gain(kRobox, kK40))},
    {"fig07", "RoboX perf/W over ARM A57 (geomean)", 22.1, 2,
     over(kHeadline, gain(kRobox, kArm, kPerWatt))},
    {"fig07", "Smallest RoboX perf/W over ARM A57", 4.5, 2,
     over(kHeadline, gain(kRobox, kArm, kPerWatt), least)},
    {"fig07", "Largest RoboX perf/W over ARM A57", 65.3, 2,
     over(kHeadline, gain(kRobox, kArm, kPerWatt), most)},
    {"fig07", "Xeon E3 perf/W over ARM A57 (geomean)", 0.28, 2,
     over(kHeadline, gain(kXeon, kArm, kPerWatt))},
    {"fig08", "RoboX perf/W over GTX 650 Ti (geomean)", 65.5, 1,
     over(kHeadline, gain(kRobox, kGtx, kPerWatt))},
    {"fig08", "Smallest RoboX perf/W over GTX 650 Ti", 52.5, 2,
     over(kHeadline, gain(kRobox, kGtx, kPerWatt), least)},
    {"fig08", "Largest RoboX perf/W over GTX 650 Ti", 88.4, 2,
     over(kHeadline, gain(kRobox, kGtx, kPerWatt), most)},
    {"fig08", "RoboX perf/W over Tegra X2 (geomean)", 7.8, 1,
     over(kHeadline, gain(kRobox, kTegra, kPerWatt))},
    {"fig08", "RoboX perf/W over Tesla K40 (geomean)", 71.8, 1,
     over(kHeadline, gain(kRobox, kK40, kPerWatt))},
    {"fig09", "Geomean over ARM A57 at N = 32", 29.4, 1,
     over(kHeadline, gain(kRobox, kArm))},
    {"fig09", "Geomean over ARM A57 at N = 1024", 38.7, 1,
     over(kLong, gain(kRobox, kArm))},
    {"fig10", "With interconnect ALUs (geomean)", 38.7, 1,
     over(kLong, gain(kRobox, kArm))},
    {"fig10", "Without interconnect ALUs (geomean)", 25.2, 1,
     over(kNoAlus, gain(kRobox, kArm))},
    {"fig10", "Slowdown without the ALUs (%)", 35, 0,
     [](Sweep &s) {
         return 100.0 * (1.0 - over(kNoAlus, gain(kRobox, kArm))(s) /
                                   over(kLong, gain(kRobox, kArm))(s));
     }},
    {"fig12", "Hexacopter at 0.25x bandwidth", 46.1, 1,
     over(longHorizon(0.25), gain(kRobox, kArm), hexacopter)},
    {"fig12", "Hexacopter at 4x bandwidth", 94.3, 1,
     over(longHorizon(4.0), gain(kRobox, kArm), hexacopter)},
};

bool
table3(Sweep &)
{
    const char *systems[] = {"Two-Wheel Mobile Robot", "Two-Link Manipulator",
                             "Four-Wheel Vehicle",     "Miniature Satellite",
                             "Four-Rotor Micro UAV",   "Six-Rotor Micro UAV"};
    const char *head = "%-13s %-22s %-20s %7s %7s %10s %12s\n";
    std::printf(head, "Name", "System", "Task", "States", "Inputs",
                "Penalties", "Constraints");
    std::printf(head, "----", "------", "----", "------", "------",
                "---------", "-----------");
    bool all_match = true;
    const auto &robots = robots::allBenchmarks();
    for (std::size_t r = 0; r < robots.size(); ++r) {
        std::array<int, 4> n = table3Counts(robots[r]);
        std::printf("%-13s %-22s %-20s %7d %7d %10d %12d\n",
                    robots[r].name.c_str(), systems[r],
                    robots[r].taskLabel.c_str(), n[0], n[1], n[2], n[3]);
        all_match = all_match && n == paperCounts(robots[r]);
    }
    std::printf("\nPaper Table III parameters %s.\n",
                all_match ? "reproduced exactly" : "MISMATCH");
    return all_match;
}

bool
table4(Sweep &)
{
    const char *head = "%-16s %7s %11s %12s %8s\n";
    std::printf(head, "Platform", "Cores", "Clock (GHz)", "Power (W)", "Type");
    std::printf(head, "--------", "-----", "-----------", "---------", "----");
    for (const perfmodel::PlatformSpec &p : perfmodel::allPlatforms())
        std::printf("%-16s %7d %11.3f %12.1f %8s\n", p.name.c_str(), p.cores,
                    p.clockGhz, p.busyPowerWatts, p.isGpu ? "GPU" : "CPU");
    std::printf("\nRoboX: %d CCs x %d CUs, %.0f B/cycle, interconnect ALUs "
                "%s.\n", kDesign.numCcs, kDesign.cusPerCc,
                kDesign.bytesPerCycle(),
                kDesign.computeEnabledInterconnect ? "enabled" : "disabled");
    return true;
}

bool
fig10(Sweep &s)
{
    Column off = column(s, "Without IC", kNoAlus, gain(kRobox, kArm));
    Column on = column(s, "With IC", kLong, gain(kRobox, kArm));
    // The paper's measure: how much slower RoboX runs without the ALUs.
    Column slowdown{"Slowdown", {}, 100.0 * (1.0 - off.summary / on.summary),
                    "%.0f%%"};
    for (std::size_t r = 0; r < on.values.size(); ++r)
        slowdown.values.push_back(100.0 *
                                  (1.0 - off.values[r] / on.values[r]));
    return printTable({off, on, slowdown});
}

struct Artifact
{
    const char *name;
    const char *title;
    const char *description;
    const char *claim;      //!< The paper's qualitative finding, if any.
    bool (*print)(Sweep &); //!< False on a reproduction mismatch.
};

const Artifact kArtifacts[] = {
    {"table3", "Table III", "Benchmarks and their model/task parameters, "
     "derived from the DSL programs.", nullptr, table3},
    {"table4", "Table IV", "Specifications of the baselines and RoboX as "
     "configured in this reproduction.", nullptr, table4},
    {"fig05", "Figure 5", "Speedup of Xeon E3 and RoboX over the ARM Cortex "
     "A57 baseline (N = 32).", nullptr, [](Sweep &s) {
         return headlineTable(s, false, kArm,
                              {{"Xeon", kXeon}, {"RoboX", kRobox}});
     }},
    {"fig06", "Figure 6", "Speedup of GPUs and RoboX over the GTX 650 Ti "
     "baseline (N = 32).",
     "the 235 W Tesla K40 is the only platform faster than RoboX.",
     [](Sweep &s) {
         return headlineTable(s, false, kGtx, {{"Tegra X2", kTegra},
                              {"Tesla K40", kK40}, {"RoboX", kRobox}});
     }},
    {"fig07", "Figure 7", "Performance-per-Watt improvement of Xeon E3 and "
     "RoboX over the ARM Cortex A57 baseline (N = 32).", nullptr,
     [](Sweep &s) {
         return headlineTable(s, kPerWatt, kArm,
                              {{"Xeon", kXeon}, {"RoboX", kRobox}});
     }},
    {"fig08", "Figure 8", "Performance-per-Watt improvement of GPUs and "
     "RoboX over the GTX 650 Ti baseline (N = 32).", nullptr,
     [](Sweep &s) {
         return headlineTable(s, kPerWatt, kGtx, {{"Tegra X2", kTegra},
                              {"Tesla K40", kK40}, {"RoboX", kRobox}});
     }},
    {"fig09", "Figure 9", "Speedup of RoboX over the ARM A57 baseline "
     "across prediction horizon lengths.", "the speedup grows with the "
     "horizon; the Hexacopter is the most sensitive benchmark.",
     [](Sweep &s) { return axisTable(s, axis(9)); }},
    {"fig10", "Figure 10", "RoboX speedup over ARM A57 with and without "
     "the compute-enabled on-chip interconnect (N = 1024).", nullptr, fig10},
    {"fig11", "Figure 11", "Sensitivity of RoboX speedup over ARM A57 to "
     "the number of Compute Units (N = 1024).", "near-linear growth at low "
     "CU counts, plateau around 256 CUs.",
     [](Sweep &s) { return axisTable(s, axis(11)); }},
    {"fig12", "Figure 12", "Sensitivity of RoboX speedup over ARM A57 to "
     "off-chip memory bandwidth (N = 1024).", "every model benefits from "
     "bandwidth, with diminishing returns.",
     [](Sweep &s) { return axisTable(s, axis(12)); }},
};

void
printPaper(Sweep &s, const Artifact &a)
{
    bool first = true;
    for (const PaperValue &v : kPaper) {
        if (std::strcmp(v.artifact, a.name) != 0)
            continue;
        if (std::exchange(first, false))
            std::printf("\n%-40s %8s %11s\n", "Paper vs. this reproduction",
                        "Paper", "Reproduced");
        std::printf("%-40s %8g %11.*f\n", v.label, v.paper, v.decimals,
                    v.reproduce(s));
    }
    if (a.claim)
        std::printf("\nPaper: %s\n", a.claim);
}

void
printList(const char *name, const std::vector<std::string> &items,
          const char *end)
{
    std::printf("  \"%s\": [\n", name);
    for (std::size_t i = 0; i < items.size(); ++i)
        std::printf("    %s%s\n", items[i].c_str(),
                    i + 1 < items.size() ? "," : "");
    std::printf("  ]%s\n", end);
}

/** The --json document; false when Table III differs from the paper. */
bool
printJson(Sweep &s)
{
    // Every point of Figs. 9-12; Figs. 5-8 use Fig. 9's N = 32 column.
    for (std::size_t r = 0; r < robots::allBenchmarks().size(); ++r) {
        for (int figure : {9, 11, 12})
            for (const auto &[label, p] : axis(figure))
                s.at(r, p);
        s.at(r, kNoAlus);
    }
    std::vector<std::string> table3, table4, paper;
    bool all_match = true;
    for (const robots::Benchmark &b : robots::allBenchmarks()) {
        std::array<int, 4> n = table3Counts(b);
        bool match = n == paperCounts(b);
        all_match = all_match && match;
        table3.push_back(object({{"robot", quoted(b.name)},
                                 {"states", std::to_string(n[0])},
                                 {"inputs", std::to_string(n[1])},
                                 {"penalties", std::to_string(n[2])},
                                 {"constraints", std::to_string(n[3])},
                                 {"matchesPaper", match ? "true" : "false"}}));
    }
    for (const perfmodel::PlatformSpec &p : perfmodel::allPlatforms())
        table4.push_back(object({{"platform", quoted(p.name)},
                                 {"cores", std::to_string(p.cores)},
                                 {"clockGhz", jsonNumber(p.clockGhz)},
                                 {"watts", jsonNumber(p.busyPowerWatts)},
                                 {"gpu", p.isGpu ? "true" : "false"}}));
    for (const PaperValue &v : kPaper)
        paper.push_back(object({{"artifact", quoted(v.artifact)},
                                {"label", quoted(v.label)},
                                {"paper", jsonNumber(v.paper)},
                                {"reproduced", jsonNumber(v.reproduce(s))}}));
    std::printf("{\n");
    printList("points", s.json(), ",");
    printList("table3", table3, ",");
    printList("table4", table4, ",");
    printList("paper", paper, "");
    std::printf("}\n");
    return all_match;
}

} // namespace

int
main(int argc, char **argv)
{
    Sweep sweep;
    if (argc == 2 && std::strcmp(argv[1], "--json") == 0)
        return printJson(sweep) ? 0 : 1;
    std::vector<const Artifact *> chosen;
    for (int i = 1; i < argc; ++i) {
        auto named = [&](const Artifact &a) {
            return std::strcmp(a.name, argv[i]) == 0;
        };
        const Artifact *a = std::find_if(std::begin(kArtifacts),
                                         std::end(kArtifacts), named);
        if (a == std::end(kArtifacts)) {
            std::fprintf(stderr, "usage: reproduce [table3|table4|fig05|...|"
                         "fig12]... | reproduce --json (got \"%s\")\n",
                         argv[i]);
            return 2;
        }
        chosen.push_back(a);
    }
    if (chosen.empty())
        for (const Artifact &a : kArtifacts)
            chosen.push_back(&a);
    bool ok = true;
    for (const Artifact *a : chosen) {
        bench::banner(a->title, a->description);
        ok = a->print(sweep) && ok;
        printPaper(sweep, *a);
    }
    return ok ? 0 : 1;
}
