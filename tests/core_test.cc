/**
 * @file
 * Integration tests for the core facade: end-to-end DSL-to-control
 * flow, the accelerator compilation path, and the evaluation harness
 * used by the figure benchmarks (including the headline paper
 * comparisons).
 */

#include <cmath>

#include <gtest/gtest.h>

#include "core/controller.hh"
#include "core/evaluation.hh"
#include "support/alloc_hook.hh"
#include "support/logging.hh"

namespace robox::core
{
namespace
{

TEST(Controller, EndToEndFromSource)
{
    const robots::Benchmark &bench = robots::benchmark("MobileRobot");
    mpc::MpcOptions opt = bench.options;
    opt.horizon = 16;
    Controller controller(bench.source, opt);

    EXPECT_EQ(controller.model().systemName, "MobileRobot");
    auto result = controller.step(bench.initialState, bench.reference);
    EXPECT_TRUE(result.converged);
    EXPECT_EQ(result.u0.size(), 2u);

    auto sim = mpc::simulateClosedLoop(controller.solver(),
                                       bench.initialState, bench.reference,
                                       40);
    EXPECT_NEAR(sim.states.back()[0], bench.reference[0], 0.2);
}

TEST(Controller, RejectsBadSource)
{
    EXPECT_THROW(Controller("System Broken {", mpc::MpcOptions()),
                 FatalError);
}

TEST(Controller, CompilesForAccelerator)
{
    const robots::Benchmark &bench = robots::benchmark("Manipulator");
    mpc::MpcOptions opt = bench.options;
    opt.horizon = 8;
    Controller controller(bench.source, opt);

    auto streams = controller.compileForAccelerator(
        accel::AcceleratorConfig::paperDefault());
    EXPECT_GT(streams.compute.size(), 100u);
    EXPECT_GT(streams.comm.size(), 10u);
    EXPECT_GT(streams.memory.size(), 8u);

    auto stats = accel::simulateIteration(
        controller.problem(), accel::AcceleratorConfig::paperDefault());
    EXPECT_GT(stats.cycles, 0u);
}

TEST(Evaluation, MeasureIterationsIsPositiveAndCached)
{
    const robots::Benchmark &bench = robots::benchmark("MobileRobot");
    int a = measureIterations(bench, 32);
    int b = measureIterations(bench, 32);
    EXPECT_GT(a, 0);
    EXPECT_EQ(a, b);
}

TEST(Evaluation, ProducesAllPlatforms)
{
    BenchmarkEvaluation eval =
        evaluateBenchmark(robots::benchmark("MobileRobot"), 32);
    EXPECT_EQ(eval.baselines.size(), 5u);
    EXPECT_GT(eval.robox.seconds, 0.0);
    EXPECT_NEAR(eval.robox.watts, 3.4, 1e-9);
    EXPECT_GT(eval.platform("ARM Cortex A57").seconds, 0.0);
    EXPECT_THROW(eval.platform("PDP-11"), FatalError);
}

TEST(Evaluation, HeadlineComparisonsMatchPaperShape)
{
    // Geomean over the six benchmarks at N=32 must land near the
    // paper's headline results (Figs. 5-8): 29.4x over ARM, 7.3x over
    // Xeon, ~2x over GTX 650 Ti, ~3.5x over Tegra X2, and slower than
    // the Tesla K40; 22.1x perf/W over ARM.
    std::vector<double> arm, xeon, gtx, tegra, k40, ppw_arm;
    for (const robots::Benchmark &bench : robots::allBenchmarks()) {
        BenchmarkEvaluation eval = evaluateBenchmark(bench, 32);
        arm.push_back(eval.speedupOver("ARM Cortex A57"));
        xeon.push_back(eval.speedupOver("Intel Xeon E3"));
        gtx.push_back(eval.speedupOver("GTX 650 Ti"));
        tegra.push_back(eval.speedupOver("Tegra X2"));
        k40.push_back(eval.speedupOver("Tesla K40"));
        ppw_arm.push_back(eval.ppwOver("ARM Cortex A57"));
    }
    EXPECT_NEAR(geometricMean(arm), 29.4, 8.0);
    EXPECT_NEAR(geometricMean(xeon), 7.3, 2.0);
    EXPECT_NEAR(geometricMean(gtx), 2.0, 0.8);
    EXPECT_NEAR(geometricMean(tegra), 3.5, 1.2);
    EXPECT_LT(geometricMean(k40), 1.0); // K40 wins on raw speed...
    EXPECT_GT(geometricMean(ppw_arm), 10.0); // ...but loses on perf/W.
    EXPECT_NEAR(geometricMean(ppw_arm), 22.1, 8.0);
}

TEST(Evaluation, SpeedupGrowsWithHorizon)
{
    // Fig. 9: the geomean speedup over ARM grows from ~29x at N=32
    // toward ~39x at N=1024.
    std::vector<double> at32, at1024;
    for (const robots::Benchmark &bench : robots::allBenchmarks()) {
        at32.push_back(
            evaluateBenchmark(bench, 32).speedupOver("ARM Cortex A57"));
        at1024.push_back(
            evaluateBenchmark(bench, 1024).speedupOver("ARM Cortex A57"));
    }
    EXPECT_GT(geometricMean(at1024), geometricMean(at32));
}

TEST(Evaluation, InterconnectAblationMatchesFig10)
{
    // Fig. 10: disabling the interconnect ALUs costs on the order of
    // 35% average performance at N=1024.
    std::vector<double> ratio;
    for (const robots::Benchmark &bench : robots::allBenchmarks()) {
        accel::AcceleratorConfig with;
        accel::AcceleratorConfig without;
        without.computeEnabledInterconnect = false;
        int iters = measureIterations(bench, 1024);
        double t_with =
            evaluateBenchmark(bench, 1024, with, iters).robox.seconds;
        double t_without =
            evaluateBenchmark(bench, 1024, without, iters).robox.seconds;
        ratio.push_back(t_without / t_with);
    }
    double mean = geometricMean(ratio);
    EXPECT_GT(mean, 1.1);
    EXPECT_LT(mean, 2.2);
}

TEST(Controller, TaskSelectionAndPreviewReferences)
{
    const char *src = R"(
System S() {
  state x; input u;
  x.dt = u;
  u.lower_bound <= -1;
  u.upper_bound <= 1;
  Task gentle(reference g) { penalty p; p.running = x - g;
                             p.weight <= 0.1; }
  Task eager(reference g) { penalty p; p.running = x - g;
                            p.weight <= 10; }
}
reference g;
S s();
s.gentle(g);
s.eager(g);
)";
    mpc::MpcOptions opt;
    opt.horizon = 10;
    opt.dt = 0.1;
    Controller gentle(src, opt, "gentle");
    Controller eager(src, opt, "eager");
    EXPECT_EQ(gentle.model().taskName, "gentle");
    EXPECT_EQ(eager.model().taskName, "eager");
    auto rg = gentle.step(Vector{0.0}, Vector{1.0});
    auto re = eager.step(Vector{0.0}, Vector{1.0});
    EXPECT_GT(re.u0[0], rg.u0[0]); // Higher weight pushes harder.

    // Preview overload: per-stage references are accepted end to end.
    std::vector<Vector> refs;
    for (int k = 0; k <= opt.horizon; ++k)
        refs.push_back(Vector{0.1 * k});
    auto rp = eager.step(Vector{0.0}, refs);
    EXPECT_TRUE(std::isfinite(rp.u0[0]));
}

// step() returns the controller's own Result, so once the backup plan
// has taken its first plan a warm period touches no heap.
TEST(Controller, WarmStepAllocatesNothing)
{
    if (!support::allocCountingActive())
        GTEST_SKIP() << "allocation counting hook not linked";
    const robots::Benchmark &bench = robots::benchmark("MobileRobot");
    Controller controller(bench.source, bench.options);
    controller.step(bench.initialState, bench.reference);
    const std::uint64_t before = support::allocCount();
    const mpc::IpmSolver::Result &result =
        controller.step(bench.initialState, bench.reference);
    EXPECT_EQ(support::allocCount() - before, 0u);
    EXPECT_TRUE(mpc::statusUsable(result.status));
    // The reference names the same storage on every step.
    EXPECT_EQ(&result,
              &controller.step(bench.initialState, bench.reference));
}

TEST(Controller, WarmStepWithRecorderAllocatesNothing)
{
    if (!support::allocCountingActive())
        GTEST_SKIP() << "allocation counting hook not linked";
    const robots::Benchmark &bench = robots::benchmark("MobileRobot");
    mpc::MpcOptions options = bench.options;
    options.flightRecorderCapacity = 4;
    Controller controller(bench.source, options);
    // Wrap the ring, so every slot has held a record.
    for (int step = 0; step < 6; ++step)
        controller.step(bench.initialState, bench.reference);
    for (int step = 0; step < 3; ++step) {
        const std::uint64_t before = support::allocCount();
        controller.step(bench.initialState, bench.reference);
        EXPECT_EQ(support::allocCount() - before, 0u) << "step " << step;
    }
    EXPECT_EQ(controller.flightRecorder().size(), 4);
}

// The backup plan and the sensor gate read the model a moved controller
// took with it, not the one the moved-from controller left behind.
TEST(Controller, MovedControllerServesFullSizedBackupCommand)
{
    const robots::Benchmark &bench = robots::benchmark("MobileRobot");
    Controller source(bench.source, bench.options);
    Controller moved(std::move(source));
    Vector x = bench.initialState;
    x[0] = std::nan("");
    const mpc::IpmSolver::Result &result = moved.step(x, bench.reference);
    EXPECT_FALSE(mpc::statusUsable(result.status));
    const dsl::ModelSpec &model = moved.model();
    ASSERT_EQ(result.u0.size(), static_cast<std::size_t>(model.nu()));
    for (std::size_t j = 0; j < result.u0.size(); ++j) {
        EXPECT_TRUE(std::isfinite(result.u0[j])) << j;
        EXPECT_GE(result.u0[j], model.inputLower[j]) << j;
        EXPECT_LE(result.u0[j], model.inputUpper[j]) << j;
    }
}

TEST(Evaluation, GeometricMeanBasics)
{
    EXPECT_DOUBLE_EQ(geometricMean({4.0}), 4.0);
    EXPECT_NEAR(geometricMean({1.0, 100.0}), 10.0, 1e-12);
}

} // namespace
} // namespace robox::core
