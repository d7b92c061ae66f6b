/**
 * @file
 * Tests for the degraded-comms link layer: pure chaos channel
 * decisions, the retransmit/ack/backoff schedule, late-delivery tail
 * resumption, staleness-bounded extrapolation, link-down shedding,
 * zero-impairment bitwise identity with the direct path, thread-count
 * bitwise replay, closed-loop tracking under loss, and allocation-free
 * warm periods.
 */

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dsl/sema.hh"
#include "mpc/batch.hh"
#include "mpc/chaos.hh"
#include "mpc/link.hh"
#include "mpc/simulate.hh"
#include "support/alloc_hook.hh"

namespace robox::mpc
{
namespace
{

const char *kDoubleIntegrator = R"(
System DoubleIntegrator( param a_max ) {
  state pos, vel;
  input acc;
  pos.dt = vel;
  vel.dt = acc;
  acc.lower_bound <= -a_max;
  acc.upper_bound <= a_max;
  Task moveTo( reference target, param w_pos, param w_u ) {
    penalty track, effort;
    track.running = pos - target;
    track.weight <= w_pos;
    effort.running = acc;
    effort.weight <= w_u;
  }
}
reference target;
DoubleIntegrator plant(1.0);
plant.moveTo(target, 1.0, 0.05);
)";

MpcOptions
linkOptions(int horizon = 12)
{
    MpcOptions opt;
    opt.horizon = horizon;
    opt.dt = 0.1;
    opt.maxIterations = 60;
    opt.linkEnabled = true;
    return opt;
}

void
makeFleetInputs(std::size_t robots, std::vector<Vector> &states,
                std::vector<Vector> &refs)
{
    states.clear();
    refs.clear();
    for (std::size_t i = 0; i < robots; ++i) {
        double s = static_cast<double>(i);
        states.push_back(Vector{0.1 * s, -0.03 * s});
        refs.push_back(Vector{1.0 + 0.2 * s});
    }
}

/** An N-stage plan whose stage k input is `base + k * step`, so tests
 *  can tell exactly which stage a command came from. */
std::vector<Vector>
rampPlan(std::size_t stages, double base, double step)
{
    std::vector<Vector> plan;
    for (std::size_t k = 0; k < stages; ++k)
        plan.push_back(Vector{base + static_cast<double>(k) * step});
    return plan;
}

// ---------------------------------------------------------------------
// Chaos link channels
// ---------------------------------------------------------------------

TEST(LinkChaos, DecisionsArePureAndIndependentAcrossChannels)
{
    ChaosSpec spec;
    spec.seed = 42;
    spec.uplinkDropRate = 0.5;
    spec.downlinkDropRate = 0.5;
    spec.uplinkDelayRate = 0.5;
    spec.linkDelayPeriodsMax = 3;
    ChaosEngine engine(spec);

    bool up_down_differ = false;
    bool nonce_differ = false;
    for (std::uint64_t b = 0; b < 64; ++b) {
        // Pure: equal identities give equal decisions.
        EXPECT_EQ(engine.linkDropAt(LinkDirection::Uplink, b, 3, 0),
                  engine.linkDropAt(LinkDirection::Uplink, b, 3, 0));
        EXPECT_EQ(engine.linkDelayAt(LinkDirection::Uplink, b, 3, 0),
                  engine.linkDelayAt(LinkDirection::Uplink, b, 3, 0));
        // Direction and nonce index independent streams.
        if (engine.linkDropAt(LinkDirection::Uplink, b, 3, 0) !=
            engine.linkDropAt(LinkDirection::Downlink, b, 3, 0))
            up_down_differ = true;
        if (engine.linkDropAt(LinkDirection::Uplink, b, 3, 0) !=
            engine.linkDropAt(LinkDirection::Uplink, b, 3, 1))
            nonce_differ = true;
        // Delay magnitude honors the configured window.
        const int d = engine.linkDelayAt(LinkDirection::Uplink, b, 3, 0);
        EXPECT_GE(d, 0);
        EXPECT_LE(d, spec.linkDelayPeriodsMax);
    }
    EXPECT_TRUE(up_down_differ);
    EXPECT_TRUE(nonce_differ);
    EXPECT_TRUE(engine.linkImpaired());
    EXPECT_STREQ(toString(LinkDirection::Uplink), "uplink");
    EXPECT_STREQ(toString(LinkDirection::Downlink), "downlink");
}

TEST(LinkChaos, ZeroRatesNeverFireAndBlackoutDropsBothDirections)
{
    ChaosEngine clean{ChaosSpec{}};
    for (std::uint64_t b = 0; b < 32; ++b) {
        EXPECT_FALSE(clean.linkDropAt(LinkDirection::Uplink, b, 0, 0));
        EXPECT_FALSE(clean.linkDropAt(LinkDirection::Downlink, b, 0, 0));
        EXPECT_EQ(clean.linkDelayAt(LinkDirection::Uplink, b, 0, 0), 0);
        EXPECT_FALSE(clean.linkDupAt(LinkDirection::Uplink, b, 0, 0));
        EXPECT_FALSE(clean.linkBlackoutAt(b, 0));
    }
    EXPECT_FALSE(clean.linkImpaired());

    ChaosSpec spec;
    spec.seed = 7;
    spec.linkBlackoutRate = 0.1;
    spec.linkBlackoutBatches = 4;
    ChaosEngine engine(spec);
    EXPECT_TRUE(engine.linkImpaired());
    // Blackouts persist for the episode length and drop every
    // transmission in both directions while active.
    std::uint64_t blackout_periods = 0;
    for (std::uint64_t b = 0; b < 256; ++b) {
        if (!engine.linkBlackoutAt(b, 2))
            continue;
        ++blackout_periods;
        EXPECT_TRUE(engine.linkDropAt(LinkDirection::Uplink, b, 2, 0));
        EXPECT_TRUE(engine.linkDropAt(LinkDirection::Downlink, b, 2, 5));
    }
    EXPECT_GT(blackout_periods, 0u);
}

// ---------------------------------------------------------------------
// Protocol unit tests (FleetLink driven directly)
// ---------------------------------------------------------------------

TEST(Link, PerfectLinkDeliversSamePeriodAndAcksNextPeriod)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    FleetLink link(model, linkOptions(), 1);
    std::vector<Vector> states{Vector{0.2, 0.1}};
    std::vector<Vector> refs{Vector{1.0}};

    link.beginPeriod(0, states, refs);
    EXPECT_EQ(link.service(0), FleetLink::Service::Fresh);
    EXPECT_EQ(link.stalenessPeriods(0), 0u);
    ASSERT_EQ(link.servedStates()[0].size(), 2u);
    EXPECT_DOUBLE_EQ(link.servedStates()[0][0], 0.2);

    const auto plan = rampPlan(4, 0.5, 0.01);
    link.sendPlan(0, plan);
    link.finishPeriod();
    // On-time delivery: the robot executes the plan's stage 0 (the
    // solver's u0), not the buffered tail.
    EXPECT_TRUE(link.executedFreshPlan(0));
    EXPECT_FALSE(link.wasPlanMissed(0));

    // The next period's uplink piggybacks the ack; no retransmit ever
    // fires for an acked plan.
    link.beginPeriod(1, states, refs);
    link.finishPeriod();
    LinkReport report;
    link.report(report);
    EXPECT_EQ(report.retransmits, 0u);
    EXPECT_EQ(report.acksDelivered, 1u);
    EXPECT_EQ(report.uplink.dropped, 0u);
    EXPECT_EQ(report.downlink.dropped, 0u);
    // All deliveries were on time.
    EXPECT_EQ(report.deliveryLatency.totalSamples(),
              report.uplink.delivered + report.downlink.delivered);
    EXPECT_DOUBLE_EQ(report.deliveryLatency.mean(), 0.0);
}

TEST(Link, RetransmitBackoffFollowsCappedExponentialSchedule)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    MpcOptions opt = linkOptions();
    // Heartbeats stay alive (uplinks flow), but every plan downlink is
    // lost, so the plan sent at period 0 is never acked.
    ChaosSpec spec;
    spec.downlinkDropRate = 1.0;
    ChaosEngine chaos(spec);

    FleetLink link(model, opt, 1);
    link.setChaos(&chaos);
    std::vector<Vector> states{Vector{0.0, 0.0}};
    std::vector<Vector> refs{Vector{1.0}};

    link.beginPeriod(0, states, refs);
    link.sendPlan(0, rampPlan(4, 0.5, 0.0));
    link.finishPeriod();

    std::vector<std::uint64_t> retry_periods;
    std::uint64_t seen = 0;
    LinkReport report;
    for (std::uint64_t p = 1; p <= 40; ++p) {
        link.beginPeriod(p, states, refs);
        link.finishPeriod(); // No fresh plan -> retransmit eligible.
        link.report(report);
        const std::uint64_t now = report.retransmits;
        if (now > seen) {
            EXPECT_EQ(now, seen + 1);
            retry_periods.push_back(p);
            seen = now;
        }
    }
    // Base 1, doubling, capped at 8: +1, +2, +4, +8, +8, +8, ...
    const std::vector<std::uint64_t> expected{1, 3, 7, 15, 23, 31, 39};
    EXPECT_EQ(retry_periods, expected);
}

TEST(Link, LatePlanDeliveryResumesTailMidway)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    // Every downlink survives but arrives exactly one period late.
    ChaosSpec spec;
    spec.downlinkDelayRate = 1.0;
    spec.linkDelayPeriodsMax = 1;
    ChaosEngine chaos(spec);

    FleetLink link(model, linkOptions(), 1);
    link.setChaos(&chaos);
    std::vector<Vector> states{Vector{0.0, 0.0}};
    std::vector<Vector> refs{Vector{1.0}};

    link.beginPeriod(0, states, refs);
    link.sendPlan(0, rampPlan(6, 0.5, 0.01));
    link.finishPeriod();
    // Nothing delivered yet and no plan was ever buffered: the robot
    // falls back to the box-projected zero command.
    EXPECT_FALSE(link.executedFreshPlan(0));
    EXPECT_TRUE(link.wasPlanMissed(0));
    ASSERT_EQ(link.executedCommand(0).size(), 1u);
    EXPECT_DOUBLE_EQ(link.executedCommand(0)[0], 0.0);

    link.beginPeriod(1, states, refs);
    link.finishPeriod();
    // The period-0 plan landed one period late: accept() starts the
    // tail at stage 1 and skip(1) advances past the stage consumed in
    // flight, so the executed command is stage 2 of the ramp.
    EXPECT_FALSE(link.executedFreshPlan(0));
    EXPECT_DOUBLE_EQ(link.executedCommand(0)[0], 0.5 + 2 * 0.01);
    EXPECT_EQ(link.planBuffer(0).stagesReplayed(), 2u);
    EXPECT_EQ(link.planBuffer(0).remainingTail(), 2u);

    // With no newer plan, the next period keeps walking the tail.
    link.beginPeriod(2, states, refs);
    link.finishPeriod();
    EXPECT_DOUBLE_EQ(link.executedCommand(0)[0], 0.5 + 3 * 0.01);
}

TEST(Link, DuplicatesAndReordersAreCountedAndIdempotent)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    ChaosSpec spec;
    spec.seed = 2026;
    spec.uplinkDupRate = 1.0;
    spec.uplinkDelayRate = 0.5;
    spec.linkDelayPeriodsMax = 2;
    ChaosEngine chaos(spec);

    FleetLink link(model, linkOptions(), 4);
    link.setChaos(&chaos);
    std::vector<Vector> states, refs;
    makeFleetInputs(4, states, refs);

    for (std::uint64_t p = 0; p < 24; ++p) {
        link.beginPeriod(p, states, refs);
        link.finishPeriod();
        for (std::size_t i = 0; i < 4; ++i) {
            // Duplicates and stale deliveries never regress the served
            // state: service is Fresh or a bounded extrapolation.
            EXPECT_NE(link.service(i), FleetLink::Service::Down);
            EXPECT_LE(link.stalenessPeriods(i), 2u);
        }
    }
    LinkReport report;
    link.report(report);
    EXPECT_EQ(report.uplink.duplicates, 4u * 24u);
    EXPECT_EQ(report.uplink.sent, 2u * 4u * 24u);
    EXPECT_GT(report.uplink.reordered, 0u);
    EXPECT_GT(report.uplink.delivered, 0u);
    EXPECT_GT(report.deliveryLatency.totalSamples(), 0u);
}

TEST(Link, ExtrapolationCoversTheStalenessBoundThenDemotes)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    MpcOptions opt = linkOptions();
    ChaosSpec spec;
    spec.uplinkDropRate = 1.0; // Attached after period 0.
    ChaosEngine chaos(spec);

    FleetLink link(model, opt, 1);
    std::vector<Vector> states{Vector{0.3, 0.5}};
    std::vector<Vector> refs{Vector{1.0}};

    link.beginPeriod(0, states, refs);
    EXPECT_EQ(link.service(0), FleetLink::Service::Fresh);
    link.sendPlan(0, rampPlan(12, 0.8, 0.0));
    link.finishPeriod();

    link.setChaos(&chaos); // The uplink goes dark from period 1 on.
    for (std::uint64_t p = 1; p <= 6; ++p) {
        link.beginPeriod(p, states, refs);
        if (p <= 3) {
            // Within the staleness bound: a bounded dynamics rollout
            // from the last fresh state, applying the last plan.
            EXPECT_EQ(link.service(0), FleetLink::Service::Extrapolated)
                << "period " << p;
            EXPECT_TRUE(link.wasExtrapolated(0));
            const Vector &x = link.servedStates()[0];
            ASSERT_EQ(x.size(), 2u);
            EXPECT_TRUE(std::isfinite(x[0]) && std::isfinite(x[1]));
            // vel' = acc = 0.8 (clamped to a_max = 1), so the rollout
            // must move the state away from the last fresh value.
            EXPECT_GT(x[1], 0.5);
            EXPECT_GT(x[0], 0.3);
        } else if (p <= 5) {
            // Past the bound, before the heartbeat trips: demoted.
            EXPECT_EQ(link.service(0), FleetLink::Service::Stale)
                << "period " << p;
            EXPECT_TRUE(link.wasStaleDemoted(0));
        } else {
            // Six silent periods: declared down.
            EXPECT_EQ(link.service(0), FleetLink::Service::Down)
                << "period " << p;
            EXPECT_TRUE(link.isDown(0));
            EXPECT_TRUE(link.wentDown(0));
        }
        link.finishPeriod();
    }
    LinkReport report;
    link.report(report);
    EXPECT_EQ(report.statesExtrapolated, 3u);
    EXPECT_EQ(report.staleDemotions, 2u);
    EXPECT_EQ(report.linkDownEvents, 1u);
    EXPECT_EQ(report.staleness.totalSamples(), 4u); // Fresh + 3 rollouts.
}

// ---------------------------------------------------------------------
// BatchController integration
// ---------------------------------------------------------------------

TEST(LinkBatch, ZeroImpairmentIsBitwiseIdenticalToDirectPath)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    constexpr std::size_t kRobots = 6;
    constexpr int kBatches = 8;

    MpcOptions direct_opt = linkOptions();
    direct_opt.linkEnabled = false;
    MpcOptions link_opt = linkOptions();
    // All-zero impairment rates: the chaos engine is attached but the
    // channel is perfect.
    ChaosEngine clean{ChaosSpec{}};

    BatchController direct(model, direct_opt, kRobots, 2);
    BatchController linked(model, link_opt, kRobots, 2);
    linked.setLinkChaos(&clean);
    ASSERT_EQ(linked.link() != nullptr, true);
    ASSERT_EQ(direct.link(), nullptr);

    std::vector<Vector> states, refs;
    makeFleetInputs(kRobots, states, refs);
    std::vector<Vector> states2 = states;

    for (int b = 0; b < kBatches; ++b) {
        const auto &ra = direct.solveAll(states, refs);
        const auto &rb = linked.solveAll(states2, refs);
        for (std::size_t i = 0; i < kRobots; ++i) {
            EXPECT_EQ(ra[i].status, rb[i].status) << "robot " << i;
            EXPECT_EQ(ra[i].iterations, rb[i].iterations);
            ASSERT_EQ(ra[i].u0.size(), rb[i].u0.size());
            EXPECT_EQ(std::memcmp(ra[i].u0.data(), rb[i].u0.data(),
                                  ra[i].u0.size() * sizeof(double)),
                      0)
                << "robot " << i;
        }
        for (std::size_t i = 0; i < kRobots; ++i) {
            states[i][0] += 0.01;
            states2[i][0] += 0.01;
        }
    }
    // The perfect link did real protocol work: every state delivered,
    // every plan acked, nothing dropped or retransmitted.
    const LinkReport &ln = linked.report().overload.link;
    EXPECT_EQ(ln.uplink.sent, kRobots * kBatches);
    EXPECT_EQ(ln.uplink.delivered, kRobots * kBatches);
    EXPECT_EQ(ln.downlink.dropped, 0u);
    EXPECT_EQ(ln.retransmits, 0u);
    EXPECT_EQ(ln.planMisses, 0u);
    EXPECT_EQ(ln.statesExtrapolated, 0u);
}

TEST(LinkBatch, DeadUplinkDemotesThenShedsThroughTheLadder)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    MpcOptions opt = linkOptions();
    ChaosSpec spec;
    spec.uplinkDropRate = 1.0; // Nothing ever arrives.
    ChaosEngine chaos(spec);

    constexpr std::size_t kRobots = 3;
    BatchController batch(model, opt, kRobots, 2);
    batch.setLinkChaos(&chaos);
    batch.enableTimeline(true);

    std::vector<Vector> states, refs;
    makeFleetInputs(kRobots, states, refs);
    for (int b = 0; b < 8; ++b) {
        const auto &results = batch.solveAll(states, refs);
        for (std::size_t i = 0; i < kRobots; ++i) {
            // With no delivered measurement ever, robots ride the
            // ladder: backup service until the heartbeat bound, shed
            // after (silent periods reach six at batch 5).
            if (b < 5)
                EXPECT_EQ(results[i].status,
                          SolveStatus::ServedFromBackup)
                    << "batch " << b;
            else
                EXPECT_EQ(results[i].status, SolveStatus::Shed)
                    << "batch " << b;
        }
    }
    const LinkReport &ln = batch.report().overload.link;
    EXPECT_EQ(ln.uplink.delivered, 0u);
    EXPECT_EQ(ln.linkDownEvents, kRobots);
    EXPECT_GT(ln.staleDemotions, 0u);
    EXPECT_GT(ln.linkDownRobotPeriods, 0u);

    // The timeline carries the link markers under the "link" category.
    const std::string json = batch.timeline().toChromeJson();
    EXPECT_NE(json.find("stale-demoted"), std::string::npos);
    EXPECT_NE(json.find("link-down"), std::string::npos);
    EXPECT_NE(json.find("plan-missed"), std::string::npos);
    EXPECT_NE(json.find("\"cat\":\"link\""), std::string::npos);

    // The metrics snapshot exposes the link counters.
    const std::string metrics =
        batchMetricsJson(batch.report(), /*include_timing=*/false);
    EXPECT_NE(metrics.find("\"linkDownEvents\": 3"), std::string::npos);
    EXPECT_NE(metrics.find("\"link_staleness_periods\""),
              std::string::npos);
    EXPECT_NE(metrics.find("\"link_delivery_latency_periods\""),
              std::string::npos);
}

TEST(LinkBatch, LinkStormReplaysBitwiseAcrossThreadCounts)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    constexpr std::size_t kRobots = 10;
    constexpr int kBatches = 16;

    MpcOptions opt = linkOptions();
    opt.batchDeadlineSeconds = 1e-3;
    opt.overloadParallelism = 4;
    opt.overloadBackupCostSeconds = 4e-4;

    ChaosSpec spec;
    spec.seed = 20260809;
    spec.stallRate = 0.15;
    spec.stallCostSeconds = 1e-3;
    spec.virtualSolveCostSeconds = 3.0 * 1e-3 * 4.0 / kRobots;
    spec.uplinkDropRate = 0.25;
    spec.downlinkDropRate = 0.2;
    spec.uplinkDelayRate = 0.2;
    spec.downlinkDelayRate = 0.2;
    spec.linkDelayPeriodsMax = 2;
    spec.uplinkDupRate = 0.1;
    spec.downlinkDupRate = 0.1;
    spec.linkBlackoutRate = 0.02;
    spec.linkBlackoutBatches = 3;

    auto run = [&](std::size_t threads) {
        BatchController batch(model, opt, kRobots, threads);
        batch.enableTimeline(true);
        ChaosEngine chaos(spec);
        batch.setCostHook(chaos.costHook());
        batch.setLinkChaos(&chaos);

        std::vector<Vector> states, refs;
        makeFleetInputs(kRobots, states, refs);
        for (int b = 0; b < kBatches; ++b) {
            chaos.setBatch(static_cast<std::uint64_t>(b));
            batch.solveAll(states, refs);
            for (std::size_t i = 0; i < kRobots; ++i) {
                states[i][0] += 0.005;
                states[i][1] += 0.002;
            }
        }
        return std::make_pair(batch.timeline().toChromeJson(),
                              batchMetricsJson(batch.report(),
                                               /*include_timing=*/false));
    };

    const auto serial = run(1);
    const auto pooled = run(4);
    EXPECT_EQ(serial.first, pooled.first);   // Timeline JSON.
    EXPECT_EQ(serial.second, pooled.second); // Metrics JSON.

    // The storm must actually exercise the impairment machinery: none
    // of these counters may still read zero in the snapshot.
    const std::string &metrics = serial.second;
    EXPECT_EQ(metrics.find("\"linkUplinkDropped\": 0,"),
              std::string::npos);
    EXPECT_EQ(metrics.find("\"linkRetransmits\": 0,"),
              std::string::npos);
    EXPECT_EQ(metrics.find("\"linkPlanMisses\": 0,"), std::string::npos);
}

TEST(LinkBatch, ClosedLoopTrackingDegradesGracefullyWithLossRate)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    Plant plant(model);
    constexpr int kBatches = 60;
    constexpr int kSettle = 30; // Score the settled half only.
    const double dt = linkOptions().dt;

    auto track = [&](double loss) {
        MpcOptions opt = linkOptions();
        ChaosSpec spec;
        spec.seed = 99;
        spec.uplinkDropRate = loss;
        spec.downlinkDropRate = loss;
        ChaosEngine chaos(spec);
        BatchController batch(model, opt, 1, 1);
        batch.setLinkChaos(&chaos);

        std::vector<Vector> states{Vector{0.0, 0.0}};
        std::vector<Vector> refs{Vector{1.0}};
        double err = 0.0;
        int scored = 0;
        for (int b = 0; b < kBatches; ++b) {
            const auto &results = batch.solveAll(states, refs);
            // The executed command is what the link says reached the
            // actuators — stage 0 on time, buffered tail otherwise.
            states[0] =
                plant.step(states[0], results[0].u0, refs[0], dt);
            if (b >= kSettle) {
                err += std::abs(states[0][0] - 1.0);
                ++scored;
            }
        }
        return err / scored;
    };

    const double clean = track(0.0);
    const double lossy = track(0.3);
    const double storm = track(0.5);
    // A clean link settles tightly on the target.
    EXPECT_LT(clean, 0.05);
    // Loss degrades tracking but the buffered tail + extrapolation
    // keep the loop stable and bounded.
    EXPECT_LT(lossy, 0.5);
    EXPECT_LT(storm, 1.0);
    EXPECT_LE(clean, lossy + 1e-9);
    EXPECT_LE(lossy, storm + 0.05);
}

TEST(LinkBatch, ResetForgetsProtocolStateButKeepsCounters)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    MpcOptions opt = linkOptions();
    ChaosSpec spec;
    spec.uplinkDropRate = 1.0;
    ChaosEngine chaos(spec);

    BatchController batch(model, opt, 2, 1);
    batch.setLinkChaos(&chaos);
    std::vector<Vector> states, refs;
    makeFleetInputs(2, states, refs);
    for (int b = 0; b < 8; ++b)
        batch.solveAll(states, refs);
    ASSERT_TRUE(batch.link()->isDown(0));
    const std::uint64_t dropped_before =
        batch.report().overload.link.uplink.dropped;
    EXPECT_GT(dropped_before, 0u);

    batch.resetAll();
    batch.setLinkChaos(nullptr); // Channel restored.
    batch.solveAll(states, refs);
    // Protocol state was forgotten: the link is back up and serving
    // fresh measurements; lifetime counters kept accumulating.
    EXPECT_FALSE(batch.link()->isDown(0));
    EXPECT_EQ(batch.link()->service(0), FleetLink::Service::Fresh);
    EXPECT_GE(batch.report().overload.link.uplink.dropped,
              dropped_before);
}

TEST(LinkBatch, WarmPeriodsAllocateNothing)
{
    if (!support::allocCountingActive())
        GTEST_SKIP() << "allocation counting hook not linked";

    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    constexpr std::size_t kRobots = 4;
    MpcOptions opt = linkOptions();
    opt.flightRecorderCapacity = 8;
    BatchController batch(model, opt, kRobots, 1);
    ChaosSpec spec;
    spec.uplinkDropRate = 1.0;
    const ChaosEngine drop_uplinks(spec);

    std::vector<Vector> states, refs;
    makeFleetInputs(kRobots, states, refs);
    // Heap allocations on this (the only) thread during one period.
    auto period = [&](const ChaosEngine *chaos) {
        batch.setLinkChaos(chaos);
        const std::uint64_t before = support::allocCount();
        batch.solveAll(states, refs);
        return support::allocCount() - before;
    };
    // Warm-up: clean periods, one whose uplinks are all lost (the
    // controller extrapolates every robot), and clean periods again.
    for (int p = 0; p < 3; ++p)
        period(nullptr);
    period(&drop_uplinks);
    for (int p = 0; p < 3; ++p)
        period(nullptr);

    EXPECT_EQ(period(nullptr), 0u);
    EXPECT_EQ(period(&drop_uplinks), 0u);
    for (std::size_t i = 0; i < kRobots; ++i)
        EXPECT_TRUE(batch.link()->wasExtrapolated(i)) << i;
    EXPECT_EQ(batch.report().lastBatchFailures(), 0u);
}

} // namespace
} // namespace robox::mpc
