/**
 * @file
 * Tests for the statistics framework (scalars, histograms, formulas,
 * group dumps), the execution trace with its Chrome export, and the
 * accelerator run report.
 */

#include <gtest/gtest.h>

#include "accel/report.hh"
#include "accel/simulator.hh"
#include "robots/robots.hh"
#include "support/logging.hh"
#include "support/stats.hh"
#include "support/trace.hh"

namespace robox
{
namespace
{

TEST(Scalar, AccumulatesAndResets)
{
    stats::Scalar s("ops", "operations");
    ++s;
    s += 4.5;
    EXPECT_DOUBLE_EQ(s.value(), 5.5);
    s.reset();
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
    s.set(7.0);
    EXPECT_DOUBLE_EQ(s.value(), 7.0);
}

TEST(Histogram, BucketsSamplesCorrectly)
{
    stats::Histogram h("lat", "latency", 0.0, 10.0, 5);
    h.sample(0.5);  // bucket 0
    h.sample(3.0);  // bucket 1
    h.sample(9.99); // bucket 4
    h.sample(-1.0); // underflow
    h.sample(10.0); // overflow (hi is exclusive)
    EXPECT_EQ(h.totalSamples(), 5u);
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(4), 1u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_DOUBLE_EQ(h.min(), -1.0);
    EXPECT_DOUBLE_EQ(h.max(), 10.0);
    EXPECT_NEAR(h.mean(), (0.5 + 3.0 + 9.99 - 1.0 + 10.0) / 5, 1e-12);
    h.reset();
    EXPECT_EQ(h.totalSamples(), 0u);
}

TEST(Histogram, WeightedSamples)
{
    stats::Histogram h("w", "weighted", 0.0, 4.0, 4);
    h.sample(1.5, 10);
    EXPECT_EQ(h.totalSamples(), 10u);
    EXPECT_EQ(h.bucketCount(1), 10u);
    EXPECT_DOUBLE_EQ(h.mean(), 1.5);
}

TEST(Histogram, RejectsBadConfig)
{
    EXPECT_THROW(stats::Histogram("b", "", 0.0, 1.0, 0), FatalError);
    EXPECT_THROW(stats::Histogram("b", "", 2.0, 1.0, 4), FatalError);
}

TEST(Histogram, MergeIsExactAndOrderIndependent)
{
    const std::vector<double> samples{-1.0, 0.5, 0.5,  3.0, 3.5,
                                      7.25, 9.99, 10.0, 12.0};
    // Three partials filled round-robin, merged in two different
    // orders, against one histogram fed every sample directly.
    auto make = [] {
        return stats::Histogram("lat", "latency", 0.0, 10.0, 5);
    };
    stats::Histogram direct = make();
    stats::Histogram parts[3] = {make(), make(), make()};
    for (std::size_t i = 0; i < samples.size(); ++i) {
        direct.sample(samples[i]);
        parts[i % 3].sample(samples[i]);
    }

    stats::Histogram fwd = make(), rev = make();
    for (int i = 0; i < 3; ++i)
        fwd.merge(parts[i]);
    for (int i = 2; i >= 0; --i)
        rev.merge(parts[i]);

    for (stats::Histogram *m : {&fwd, &rev}) {
        EXPECT_EQ(m->totalSamples(), direct.totalSamples());
        EXPECT_EQ(m->underflow(), direct.underflow());
        EXPECT_EQ(m->overflow(), direct.overflow());
        for (int b = 0; b < direct.numBuckets(); ++b)
            EXPECT_EQ(m->bucketCount(b), direct.bucketCount(b));
        EXPECT_DOUBLE_EQ(m->min(), direct.min());
        EXPECT_DOUBLE_EQ(m->max(), direct.max());
        EXPECT_NEAR(m->mean(), direct.mean(), 1e-12);
        EXPECT_DOUBLE_EQ(m->percentile(0.5), direct.percentile(0.5));
    }
}

TEST(Histogram, MergeEmptyIsIdentityAndIntoEmptyCopies)
{
    stats::Histogram a("h", "", 0.0, 10.0, 5);
    stats::Histogram empty("h", "", 0.0, 10.0, 5);
    a.sample(2.0);
    a.sample(7.0);

    a.merge(empty); // No-op: min/max/samples untouched.
    EXPECT_EQ(a.totalSamples(), 2u);
    EXPECT_DOUBLE_EQ(a.min(), 2.0);
    EXPECT_DOUBLE_EQ(a.max(), 7.0);

    stats::Histogram b("h", "", 0.0, 10.0, 5);
    b.merge(a); // Into-empty adopts the source min/max exactly.
    EXPECT_EQ(b.totalSamples(), 2u);
    EXPECT_DOUBLE_EQ(b.min(), 2.0);
    EXPECT_DOUBLE_EQ(b.max(), 7.0);
}

TEST(Histogram, MergeRejectsMismatchedBucketConfig)
{
    // An *empty* mismatched source is a no-op (nothing to misfile), so
    // the config check only fires once the source carries samples.
    auto mismatched = [](double lo, double hi, std::size_t buckets) {
        stats::Histogram h("b", "", lo, hi, buckets);
        h.sample(1.5);
        return h;
    };
    stats::Histogram a("a", "", 0.0, 10.0, 5);
    a.sample(3.0);
    EXPECT_THROW(a.merge(mismatched(0.0, 10.0, 4)), FatalError);
    EXPECT_THROW(a.merge(mismatched(0.0, 8.0, 5)), FatalError);
    EXPECT_THROW(a.merge(mismatched(1.0, 10.0, 5)), FatalError);
    EXPECT_NO_THROW(
        a.merge(stats::Histogram("b", "", 1.0, 99.0, 3))); // Empty.
    EXPECT_EQ(a.totalSamples(), 1u);
}

TEST(Histogram, MergeWithSelfIsIdempotent)
{
    stats::Histogram h("h", "", 0.0, 10.0, 5);
    h.sample(2.0);
    h.sample(7.0);
    h.sample(11.0); // Overflow bucket.
    // Merging a histogram into itself must not double-count: a fold
    // loop that accidentally includes its own destination stays
    // correct.
    const double p50 = h.percentile(0.5);
    h.merge(h);
    EXPECT_EQ(h.totalSamples(), 3u);
    EXPECT_DOUBLE_EQ(h.min(), 2.0);
    EXPECT_DOUBLE_EQ(h.max(), 11.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), p50);
}

TEST(Histogram, SampleOnDefaultConstructedCountsOverflow)
{
    // A default-constructed histogram has no buckets; samples must
    // land in overflow instead of indexing an empty counts array.
    stats::Histogram h;
    h.sample(0.5);
    h.sample(0.25);
    EXPECT_EQ(h.totalSamples(), 2u);
    EXPECT_DOUBLE_EQ(h.percentile(0.99), h.max());
}

TEST(Histogram, PercentileWalksCumulativeCounts)
{
    stats::Histogram h("p", "percentiles", 0.0, 100.0, 100);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0); // empty -> 0

    // Uniform fill: one sample per bucket midpoint.
    for (int i = 0; i < 100; ++i)
        h.sample(i + 0.5);
    EXPECT_NEAR(h.percentile(0.0), 1.0, 1.0 + 1e-12);
    EXPECT_NEAR(h.percentile(0.5), 50.0, 1.0 + 1e-12);
    EXPECT_NEAR(h.percentile(0.99), 99.0, 1.0 + 1e-12);
    EXPECT_LE(h.percentile(0.25), h.percentile(0.75));
}

TEST(Histogram, PercentileUsesMinMaxForOutliers)
{
    stats::Histogram h("p", "percentiles", 0.0, 1.0, 4);
    h.sample(-5.0); // underflow
    h.sample(0.5);
    h.sample(7.0); // overflow
    EXPECT_DOUBLE_EQ(h.percentile(0.0), -5.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 7.0);
    // The median lands in the in-range bucket.
    EXPECT_GE(h.percentile(0.5), 0.0);
    EXPECT_LE(h.percentile(0.5), 1.0);
}

TEST(Histogram, PercentileEdgeCases)
{
    stats::Histogram h("p", "percentiles", 0.0, 10.0, 10);
    // Empty: every quantile (including the clamped-out-of-range ones)
    // resolves to 0 rather than reading uninitialized state.
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(-3.0), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(42.0), 0.0);

    // Single sample: p0 and p100 agree, land within one bucket width
    // of the sample, and out-of-range p is clamped to the same value.
    h.sample(3.7);
    const double width = 10.0 / 10;
    EXPECT_DOUBLE_EQ(h.percentile(0.0), h.percentile(1.0));
    EXPECT_NEAR(h.percentile(0.5), 3.7, width);
    EXPECT_DOUBLE_EQ(h.percentile(-1.0), h.percentile(0.0));
    EXPECT_DOUBLE_EQ(h.percentile(2.0), h.percentile(1.0));
    EXPECT_DOUBLE_EQ(h.min(), 3.7);
    EXPECT_DOUBLE_EQ(h.max(), 3.7);

    // reset() returns the histogram to the empty-edge behavior.
    h.reset();
    EXPECT_EQ(h.totalSamples(), 0u);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
}

TEST(Histogram, PercentileClampedToObservedRange)
{
    // A single sample in one wide bucket: the in-bucket interpolation
    // only knows the bucket edges, so it lands at the upper edge (100)
    // — an order of magnitude above the only value ever recorded. The
    // clamp pins it back to the observed range.
    stats::Histogram h("p", "clamp", 0.0, 100.0, 1);
    h.sample(10.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 10.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 10.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 10.0);

    // Sparse bucket with several samples: p100 is the recorded max,
    // not the bucket's upper edge, and no quantile escapes [min, max].
    stats::Histogram s("s", "sparse", 0.0, 10.0, 1);
    s.sample(1.0);
    s.sample(2.0);
    s.sample(3.0);
    EXPECT_DOUBLE_EQ(s.percentile(1.0), 3.0);
    for (double p = 0.0; p <= 1.0; p += 0.05) {
        EXPECT_GE(s.percentile(p), s.min());
        EXPECT_LE(s.percentile(p), s.max());
    }
}

TEST(Histogram, PercentileAllUnderflowOrOverflow)
{
    // Every sample below the bucket range: all mass sits in underflow
    // and every quantile resolves to the recorded min.
    stats::Histogram u("u", "underflow", 0.0, 1.0, 4);
    u.sample(-7.0);
    u.sample(-3.0);
    EXPECT_DOUBLE_EQ(u.percentile(0.0), -7.0);
    EXPECT_DOUBLE_EQ(u.percentile(0.5), -7.0);
    EXPECT_DOUBLE_EQ(u.percentile(1.0), -7.0);

    // Every sample above the range: the walk runs off the end of the
    // buckets and resolves to the recorded max.
    stats::Histogram o("o", "overflow", 0.0, 1.0, 4);
    o.sample(5.0);
    o.sample(9.0);
    EXPECT_DOUBLE_EQ(o.percentile(0.5), 9.0);
    EXPECT_DOUBLE_EQ(o.percentile(1.0), 9.0);
}

TEST(Formula, ComputesFromCapturedState)
{
    stats::Scalar hits("hits", "");
    stats::Scalar total("total", "");
    stats::Formula rate("rate", "hit rate", [&] {
        return total.value() ? hits.value() / total.value() : 0.0;
    });
    hits += 3;
    total += 4;
    EXPECT_DOUBLE_EQ(rate.value(), 0.75);
}

TEST(StatGroup, DumpContainsAllEntries)
{
    stats::Scalar a("alpha", "first stat");
    a.set(42);
    stats::Histogram h("hist", "a histogram", 0, 10, 2);
    h.sample(5);
    stats::Formula f("beta", "derived", [] { return 2.5; });
    stats::StatGroup group("test");
    group.add(&a);
    group.add(&h);
    group.add(&f);
    std::string dump = group.dump();
    EXPECT_NE(dump.find("test.alpha"), std::string::npos);
    EXPECT_NE(dump.find("42"), std::string::npos);
    EXPECT_NE(dump.find("test.beta"), std::string::npos);
    EXPECT_NE(dump.find("hist::samples"), std::string::npos);
    EXPECT_NE(dump.find("# first stat"), std::string::npos);

    std::string csv = group.csv();
    EXPECT_NE(csv.find("test.alpha,42"), std::string::npos);

    group.resetAll();
    EXPECT_DOUBLE_EQ(a.value(), 0.0);
    EXPECT_EQ(h.totalSamples(), 0u);
}

TEST(StatGroup, ToJsonGoldenSnapshot)
{
    stats::Scalar alpha("alpha", "a scalar");
    alpha.set(42.0);
    stats::Formula beta("beta", "a formula", [] { return 2.5; });
    stats::Histogram lat("lat", "a histogram", 0.0, 10.0, 2);
    lat.sample(5.0);

    stats::StatGroup group("g");
    group.add(&alpha);
    group.add(&beta);
    group.add(&lat);

    // Byte-exact schema: this is the contract the benches and the
    // golden files in tests/golden/ rely on. The single sample sits in the upper
    // bucket; interpolation alone would report quantiles up to the
    // bucket edge (10), the clamp pins them to the observed value.
    const std::string expected =
        "{\n"
        "  \"group\": \"g\",\n"
        "  \"scalars\": {\"alpha\": 42},\n"
        "  \"formulas\": {\"beta\": 2.5},\n"
        "  \"histograms\": {\n"
        "    \"lat\": {\"samples\": 1, \"mean\": 5, \"min\": 5, "
        "\"max\": 5, \"underflow\": 0, \"overflow\": 0, \"lo\": 0, "
        "\"hi\": 10, \"buckets\": [0,1], \"p50\": 5, \"p90\": 5, "
        "\"p99\": 5}\n"
        "  }\n"
        "}";
    EXPECT_EQ(group.toJson(), expected);
}

TEST(StatGroup, ToJsonEmptyGroup)
{
    stats::StatGroup group("empty");
    EXPECT_EQ(group.toJson(),
              "{\n"
              "  \"group\": \"empty\",\n"
              "  \"scalars\": {},\n"
              "  \"formulas\": {},\n"
              "  \"histograms\": {}\n"
              "}");
}

TEST(ChromeTraceWriter, GoldenJsonRoundTrip)
{
    robox::trace::ChromeTraceWriter w;
    // Events appended before metadata must still render after it:
    // viewers only honor lane labels that precede the events.
    w.completeEvent("solve", "full", 0, 3, 10.0, 0.25,
                    "{\"batch\":1}");
    w.instantEvent("shed", "admission", 0, -1, 12.5);
    w.setProcessName(0, "fleet");
    w.setThreadName(0, -1, "virtual");
    w.setThreadSortIndex(0, -1, -1);

    EXPECT_EQ(w.size(), 2u);
    const std::string expected =
        "{\"traceEvents\":[\n"
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
        "\"args\":{\"name\":\"fleet\"}},\n"
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":-1,"
        "\"args\":{\"name\":\"virtual\"}},\n"
        "{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":0,"
        "\"tid\":-1,\"args\":{\"sort_index\":-1}},\n"
        // dur 0.25 clamps to 1 so zero-length work stays visible.
        "{\"name\":\"solve\",\"cat\":\"full\",\"ph\":\"X\",\"pid\":0,"
        "\"tid\":3,\"ts\":10,\"dur\":1,\"args\":{\"batch\":1}},\n"
        "{\"name\":\"shed\",\"cat\":\"admission\",\"ph\":\"i\","
        "\"pid\":0,\"tid\":-1,\"ts\":12.5,\"s\":\"t\"}\n"
        "]}\n";
    EXPECT_EQ(w.json(), expected);
}

TEST(Trace, CcWideLaneDoesNotCollideWithHighCu)
{
    // Regression: the old export parked CC-wide work on tid 99, which
    // collided with a real CU 99 on wide clusters. CC-wide work now
    // lives on the reserved negative lane with its own label.
    accel::Trace trace;
    accel::TraceEvent wide;
    wide.node = 1;
    wide.cc = 0;
    wide.cu = -1; // CC-wide (SIMD/GROUP).
    wide.start = 0;
    wide.finish = 2;
    trace.record(wide);
    accel::TraceEvent cu99;
    cu99.node = 2;
    cu99.cc = 0;
    cu99.cu = 99;
    cu99.start = 2;
    cu99.finish = 5;
    trace.record(cu99);

    const std::string json = trace.toChromeJson();
    EXPECT_NE(json.find("\"tid\":-1,\"ts\":0"), std::string::npos);
    EXPECT_NE(json.find("\"tid\":99,\"ts\":2"), std::string::npos);
    EXPECT_NE(json.find("CC-wide (SIMD/GROUP)"), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"CU 99\""), std::string::npos);
    // The two lanes are labeled separately — exactly one CC-wide
    // label, and the negative lane never carries the CU 99 span.
    EXPECT_EQ(json.find("CC-wide"), json.rfind("CC-wide"));
}

TEST(Trace, RecordsEveryNodeAndExportsChromeJson)
{
    const robots::Benchmark &b = robots::benchmark("MobileRobot");
    dsl::ModelSpec model = robots::analyzeBenchmark(b);
    mpc::MpcOptions opt = b.options;
    opt.horizon = 4;
    mpc::MpcProblem prob(model, opt);
    translator::Workload wl = translator::buildSolverIteration(prob);
    accel::AcceleratorConfig cfg;
    compiler::ProgramMap map = compiler::mapGraph(wl.graph, cfg);

    accel::Trace trace;
    accel::CycleStats stats = accel::simulate(wl, map, cfg, &trace);
    EXPECT_EQ(trace.size(), wl.graph.size());

    // Events are well-formed and within the run.
    for (const accel::TraceEvent &e : trace.events()) {
        EXPECT_LE(e.start, e.finish);
        EXPECT_LE(e.finish, stats.computeCycles);
        EXPECT_GE(e.cc, 0);
        EXPECT_LT(e.cc, cfg.numCcs);
    }

    std::string json = trace.toChromeJson();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    // Same run without a trace produces identical timing.
    accel::CycleStats again = accel::simulate(wl, map, cfg);
    EXPECT_EQ(again.cycles, stats.cycles);
}

TEST(Report, FormatsRunStatistics)
{
    const robots::Benchmark &b = robots::benchmark("Quadrotor");
    dsl::ModelSpec model = robots::analyzeBenchmark(b);
    mpc::MpcOptions opt = b.options;
    opt.horizon = 8;
    mpc::MpcProblem prob(model, opt);
    translator::Workload wl = translator::buildSolverIteration(prob);
    accel::AcceleratorConfig cfg;
    compiler::ProgramMap map = compiler::mapGraph(wl.graph, cfg);
    accel::CycleStats stats = accel::simulate(wl, map, cfg);

    std::string report =
        accel::formatReport("quad", stats, cfg, wl.totalOps());
    EXPECT_NE(report.find("quad.cycles"), std::string::npos);
    EXPECT_NE(report.find("quad.utilization"), std::string::npos);
    EXPECT_NE(report.find("busyCycles::factor"), std::string::npos);
    EXPECT_NE(report.find("impliedWatts"), std::string::npos);

    std::string csv =
        accel::formatReport("quad", stats, cfg, wl.totalOps(), true);
    EXPECT_NE(csv.find("stat,value"), std::string::npos);
    EXPECT_NE(csv.find("quad.cycles,"), std::string::npos);
}

TEST(Report, LatencyHistogramsFromTrace)
{
    const robots::Benchmark &b = robots::benchmark("MicroSat");
    dsl::ModelSpec model = robots::analyzeBenchmark(b);
    mpc::MpcOptions opt = b.options;
    opt.horizon = 4;
    mpc::MpcProblem prob(model, opt);
    translator::Workload wl = translator::buildSolverIteration(prob);
    accel::AcceleratorConfig cfg;
    compiler::ProgramMap map = compiler::mapGraph(wl.graph, cfg);
    accel::Trace trace;
    accel::simulate(wl, map, cfg, &trace);

    std::string dump = accel::formatLatencyHistograms("micro", trace);
    EXPECT_NE(dump.find("latency::scalar::samples"), std::string::npos);
    EXPECT_NE(dump.find("latency::group::mean"), std::string::npos);
}

} // namespace
} // namespace robox
