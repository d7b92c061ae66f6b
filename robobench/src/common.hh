/**
 * @file
 * Shared pieces of the benchmark program: seeded generators, digests,
 * order statistics, the in-memory span tracer, and the result record
 * every workload fills.
 */

#ifndef ROBOBENCH_COMMON_HH
#define ROBOBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace robobench
{

/** splitmix64 finalizer: a pure 64-bit mix. */
std::uint64_t mix64(std::uint64_t x);

/** Seed of an independent stream derived from (seed, a, b). */
std::uint64_t streamSeed(std::uint64_t seed, std::uint64_t a,
                         std::uint64_t b = 0);

/** Small deterministic generator (splitmix64 sequence). */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next();
    /** Uniform in [0, 1). */
    double uniform();
    /** Uniform in [-half, half). */
    double symmetric(double half) { return half * (2.0 * uniform() - 1.0); }

  private:
    std::uint64_t state_;
};

/** FNV-1a over the bit patterns of the values fed to it. */
class Digest
{
  public:
    void add(std::uint64_t v);
    void add(double v);
    std::string hex() const;

  private:
    std::uint64_t h_ = 1469598103934665603ull;
};

/** Monotonic clock in nanoseconds. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Median (mean of the middle pair for even sizes). */
double median(std::vector<double> values);

/** Nearest-rank percentile, p in (0, 100]. */
double percentile(std::vector<double> values, double p);

/**
 * The highest of 99.9, 99, 98, 95, 90, 75 and 50 that leaves at least
 * ten samples beyond it in n samples (50 when n < 20).
 */
double tailPercentile(std::size_t n);

double geomean(const std::vector<double> &values);

/** Peak resident set of this process in MB (getrusage). */
double peakRssMb();

/** One recorded span; times are nanoseconds since the tracer origin. */
struct Span
{
    const char *name;
    std::int64_t start;
    std::int64_t end;
    int parent;            //!< Index of the enclosing span, -1 for roots.
    std::int64_t request;  //!< (robot, period) or sweep-point id.
};

/**
 * In-memory span recorder. Spans nest by call order on the one thread
 * that records them; recording can be switched off between requests
 * so traced and untraced requests alternate within one run.
 */
class Tracer
{
  public:
    explicit Tracer(bool available);

    /** Whether this run traces at all. */
    bool available() const { return available_; }
    /** Record the following spans (no effect unless available). */
    void setRecording(bool on) { recording_ = available_ && on; }

    /** Open a span; returns -1 when not recording. */
    int begin(const char *name, std::int64_t request);
    void end(int id);
    /** Append a finished child of the innermost open span, with
     *  absolute steady-clock times (used for a solve's share of a
     *  step, which the program reports as a duration). */
    void addChild(const char *name, std::int64_t start_ns,
                  std::int64_t end_ns, std::int64_t request);

    /** Per-name count, total duration and total self time (ns). */
    struct Layer
    {
        std::size_t count = 0;
        double totalNs = 0.0;
        double selfNs = 0.0;
    };
    std::map<std::string, Layer> layers() const;

    /** Write every span through robox::trace::ChromeTraceWriter. */
    void writeChromeTrace(const std::string &path) const;

  private:
    bool available_;
    bool recording_ = false;
    std::int64_t origin_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** Span name -> totals, as Tracer::layers() returns them. */
using SpanTable = std::map<std::string, Tracer::Layer>;

/** Mean duration of the named spans in the given unit (1e3 = us,
 *  1e6 = ms); 0 when none were recorded. */
double meanSpan(const SpanTable &spans, const char *name, double unit_ns);

/** Summed duration of the named spans in the given unit. */
double totalSpan(const SpanTable &spans, const char *name, double unit_ns);

/** RAII span on a Tracer. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const char *name, std::int64_t request)
        : tracer_(tracer), id_(tracer.begin(name, request))
    {
    }
    ~ScopedSpan() { tracer_.end(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer &tracer_;
    int id_;
};

/** A metric value with its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** Command-line settings of one run. */
struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir = ".bench_out";
    std::string commit = "unknown";
};

/** Everything one workload run produces. */
struct Result
{
    bool correct = true;          //!< False once an invariant broke.
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** End-to-end metrics, including the ones not gated in
     *  BENCHMARK.json (printed and written to the details file). */
    std::map<std::string, Metric> endToEnd;
    /** Per-layer metrics (traced runs). */
    std::map<std::string, Metric> layers;
    /** Replay-stable values the self-test compares exactly. */
    std::map<std::string, std::string> deterministic;
    /** Environment and run facts (nproc, workers, build, ...). */
    std::map<std::string, std::string> facts;
    /** Broken invariants, one line each. */
    std::vector<std::string> violations;
    /** Span table of a traced run (name -> count, total, self). */
    SpanTable spanTable;
    /** Paper reference values beside their reproduced values. */
    struct PaperRow
    {
        std::string figure;
        std::string label;
        double paper = 0.0;
        double reproduced = 0.0;
    };
    std::vector<PaperRow> paper;

    void violate(const std::string &what)
    {
        correct = false;
        if (violations.size() < 20)
            violations.push_back(what);
    }
    void e2e(const std::string &name, double value, const char *unit)
    {
        endToEnd[name] = Metric{value, unit};
    }
    void layer(const std::string &name, double value)
    {
        layers[name].value = value;
    }
};

/** Exact decimal text of a double (for replay-stable fields). */
std::string exact(double v);

/** Record the traced/untraced comparison as trace.overhead_pct. */
void recordTraceOverhead(Result &r, double traced, double untraced);

/** Names of the six Table III robots, in table order. */
const std::vector<std::string> &robotNames();

} // namespace robobench

#endif // ROBOBENCH_COMMON_HH
