/**
 * @file
 * The three workloads and the layer probes they share.
 */

#ifndef ROBOBENCH_WORKLOADS_HH
#define ROBOBENCH_WORKLOADS_HH

#include <algorithm>
#include <cstdint>
#include <memory>

#include "common.hh"
#include "mpc/problem.hh"
#include "robots/robots.hh"

namespace robobench
{

/** Prediction horizon of the paper's headline configuration. */
constexpr int kHeadlineHorizon = 32;

/**
 * Set-ups timed per run; setup_s is their median. The first builds
 * what the run uses, the rest are spread evenly over the measured
 * span so the median sees the same machine as the periods do.
 */
constexpr int kSetupSamples = 25;

/** Whether step `i` of `n` is where one of the later set-up samples
 *  is taken (kSetupSamples - 1 of them, evenly spaced). */
inline bool
setupSampleDue(std::uint64_t i, std::uint64_t n)
{
    const std::uint64_t every =
        std::max<std::uint64_t>(1, n / (kSetupSamples - 1));
    return i % every == every / 2 && i / every < kSetupSamples - 1;
}

Result runControl(const RunConfig &cfg);
Result runFleet(const RunConfig &cfg);
Result runToolchain(const RunConfig &cfg);

/**
 * The DSL front end one call at a time, as core::Controller runs it:
 * dsl::parseChecked, dsl::analyze, and the mpc::MpcProblem
 * constructor at the given horizon, under spans dsl.parse, dsl.analyze
 * and mpc.problem_build.
 */
std::unique_ptr<robox::mpc::MpcProblem>
tracedFrontEnd(Tracer &tracer, const robox::robots::Benchmark &bench,
               int horizon, std::int64_t request);

/** Instructions over the problem's five tapes. */
std::size_t tapeInstructions(const robox::mpc::MpcProblem &problem);

/** dsl.parse_us, dsl.analyze_us and mpc.problem_build_ms from the
 *  spans tracedFrontEnd recorded (r.spanTable). */
void reportFrontEnd(Result &r);

/** Median per-call time of f in nanoseconds, over batches of about a
 *  millisecond each. */
template <class F>
double
timePerCallNs(F &&f)
{
    std::size_t calls = 1;
    for (;;) {
        std::int64_t t0 = nowNs();
        for (std::size_t i = 0; i < calls; ++i)
            f();
        if (nowNs() - t0 > 1000000 || calls > (1u << 24))
            break;
        calls *= 2;
    }
    std::vector<double> per_call;
    for (int batch = 0; batch < 9; ++batch) {
        std::int64_t t0 = nowNs();
        for (std::size_t i = 0; i < calls; ++i)
            f();
        per_call.push_back(static_cast<double>(nowNs() - t0) / calls);
    }
    return median(per_call);
}

} // namespace robobench

#endif // ROBOBENCH_WORKLOADS_HH
