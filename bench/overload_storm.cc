/**
 * @file
 * Overload-storm study: offered load vs the admission ladder's
 * degrade/backup/shed response and its closed-loop tracking cost.
 *
 * A fleet of double-integrator robots runs closed loop under a
 * BatchController with a batch deadline, while a seeded ChaosEngine
 * injects worker stalls, load bursts, and poisoned measurements. The
 * chaos cost hook replaces measured wall time with deterministic
 * virtual time (ChaosSpec::virtualSolveCostSeconds), so every
 * admission decision — and therefore every number below — is a pure
 * function of the spec and the sweep point: two runs emit
 * byte-identical JSON, on any machine, at any thread count (the
 * admission math is pinned via MpcOptions::overloadParallelism).
 *
 * Swept: offered load L = fleet solve demand / batch compute budget.
 * Reported per point: overloaded batches, per-rung service counts
 * (degraded / served-from-backup / shed), sensor-gate rejections, and
 * the tracking-error cost of degradation. No wall-clock quantity is
 * printed — that is what keeps the output diffable.
 *
 * A second sweep exercises the degraded-comms path (mpc/link.hh): the
 * same fleet at a fixed, underloaded compute point, but with the
 * robot<->controller link impaired at increasing loss rates. Drops,
 * delays, duplicates and blackouts are pure splitmix64 functions of
 * (seed, period, robot), so the link sweep is byte-deterministic too.
 * Reported per point: drop/retransmit/plan-miss counters, state
 * extrapolations, staleness demotions, link-down events, and the
 * closed-loop tracking cost of flying on buffered plan tails.
 *
 * `--smoke` shrinks the sweep to a ~1 s check that ctest
 * (OverloadStorm.*) diffs byte-for-byte against tests/golden/ at 4 and
 * 1 worker threads as a determinism gate. Flags:
 *   --smoke           shrink the sweep to the golden-checked size
 *   --threads N       worker threads (default 4; output is identical
 *                     at any value — that is the determinism gate)
 *   --metrics PATH    also write the report to PATH
 *   --timeline PATH   write the highest-load storm's fleet timeline
 *                     (Chrome trace-event JSON; see mpc/timeline.hh)
 *   --link-timeline PATH  write the worst-loss link storm's timeline
 *   --kill-resume     kill-and-resume chaos mode: checkpoint each
 *                     storm's controller + harness state every
 *                     --checkpoint-every batches (atomic rename,
 *                     support/checkpoint.hh), then at splitmix64-
 *                     scheduled batches destroy the BatchController,
 *                     dump its flight recorder as a postmortem, and
 *                     resume a fresh instance from the latest
 *                     checkpoint. The report must byte-match the
 *                     uninterrupted run — that is the crash-safety
 *                     gate ctest diffs against the golden.
 *   --checkpoint-every N  batches between checkpoints (default 7)
 *   --checkpoint-dir PATH where checkpoint + postmortem files land
 *                     (default ".")
 *
 * The per-point metrics render through stats::StatGroup::toJson(), the
 * same schema the fault campaign and the batch controller's overload
 * report use.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "dsl/sema.hh"
#include "mpc/batch.hh"
#include "mpc/chaos.hh"
#include "mpc/checkpoint_io.hh"
#include "mpc/simulate.hh"
#include "mpc/status.hh"
#include "mpc/timeline.hh"
#include "support/checkpoint.hh"
#include "support/hash.hh"
#include "support/stats.hh"
#include "support/trace.hh"

namespace
{

using robox::Vector;
using robox::mpc::BatchController;
using robox::mpc::ChaosEngine;
using robox::mpc::ChaosSpec;
using robox::mpc::FleetTimeline;
using robox::mpc::MpcOptions;
using robox::mpc::Plant;
using robox::mpc::SolveStatus;
using robox::support::splitmix64;

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

constexpr std::size_t kRobots = 12;
constexpr std::size_t kDefaultThreads = 4;
constexpr int kParallelism = 4;        //!< Pinned admission math.
constexpr double kBudgetSeconds = 1e-3; //!< Batch deadline.

/** Kill-and-resume chaos configuration (--kill-resume). */
struct CrashPlan
{
    int checkpointEvery = 7; //!< Batches between checkpoints.
    int crashes = 2;         //!< Simulated kills per storm.
    std::string dir = ".";   //!< Checkpoint / postmortem directory.
};

/** Deterministic, sorted, deduplicated batch indices at which a storm
 *  is killed. Every index lands after the first checkpoint exists, so
 *  each kill resumes from a real file (the corrupt/cold-start path is
 *  exercised separately). */
std::vector<int>
crashSchedule(std::uint64_t seed, std::uint64_t storm_nonce, int batches,
              const CrashPlan &plan)
{
    std::vector<int> out;
    const int lo = plan.checkpointEvery + 1;
    const int span = batches - lo;
    if (span <= 0)
        return out;
    for (int k = 0; k < plan.crashes; ++k) {
        std::uint64_t h = splitmix64(
            seed ^ (storm_nonce << 20) ^ (0xC4A5ull << 40) ^
            static_cast<std::uint64_t>(k));
        out.push_back(lo + static_cast<int>(h % static_cast<std::uint64_t>(
                                                    span)));
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

/** Outcome of one storm at one offered-load point. */
struct StormResult
{
    double offeredLoad = 0.0;
    std::uint64_t overloadedBatches = 0;
    std::uint64_t degraded = 0;
    std::uint64_t servedFromBackup = 0;
    std::uint64_t shed = 0;
    std::uint64_t badInput = 0;
    std::uint64_t poisoned = 0;
    std::uint64_t failures = 0;
    std::uint64_t protectedShed = 0; //!< Shed events on priority robots.
    double projectedSeconds = 0.0;   //!< Last batch, virtual time.
    double admittedSeconds = 0.0;    //!< Last batch, virtual time.
    double maxTrackingError = 0.0;
    double meanTrackingError = 0.0;
};

/** One closed-loop storm: `batches` control periods of `kRobots`
 *  robots under chaos, at a virtual solve cost sized so the fleet's
 *  demand is `load` times the batch compute budget. With a CrashPlan,
 *  the controller is periodically checkpointed and deterministically
 *  killed + resumed mid-sweep; the returned result must be identical
 *  either way. */
StormResult
runStorm(const robox::dsl::ModelSpec &model, const MpcOptions &opt,
         double load, std::uint64_t seed, int batches,
         std::size_t threads, FleetTimeline *timeline_out,
         const CrashPlan *crash = nullptr, std::size_t storm_index = 0)
{
    ChaosSpec spec;
    spec.seed = seed;
    spec.stallRate = 0.1;
    spec.stallCostSeconds = 0.5 * kBudgetSeconds;
    spec.stallSpinSeconds = 5e-5; // Real jitter; never in the output.
    spec.burstRate = 0.15;
    spec.burstFactor = 2.0;
    spec.poisonRate = 0.01;
    spec.virtualSolveCostSeconds =
        load * kBudgetSeconds * kParallelism / kRobots;
    ChaosEngine chaos(spec);

    // The runtime wiring (hooks, priorities, timeline) is not part of
    // a checkpoint — a resumed "process" re-applies it exactly as a
    // restarted serving binary would.
    auto make_batch = [&] {
        auto p = std::make_unique<BatchController>(model, opt, kRobots,
                                                   threads);
        p->setCostHook(chaos.costHook());
        p->setStallHook(chaos.stallHook());
        p->enableTimeline(timeline_out != nullptr);
        // Robots 0 and 1 are high priority: shed them last.
        p->setPriority(0, 1.0);
        p->setPriority(1, 1.0);
        return p;
    };
    std::unique_ptr<BatchController> batch = make_batch();

    Plant plant(model);
    std::vector<Vector> truth, meas, prev_meas, refs;
    std::vector<Vector> last_u(kRobots, Vector{0.0});
    for (std::size_t i = 0; i < kRobots; ++i) {
        double s = static_cast<double>(i);
        truth.push_back(Vector{0.1 * s, -0.03 * s});
        meas.push_back(Vector{0.0, 0.0});
        prev_meas.push_back(Vector{0.0, 0.0});
        refs.push_back(Vector{1.0 + 0.2 * s});
    }

    StormResult result;
    result.offeredLoad = load;
    const int settle = batches / 3;
    double err_sum = 0.0;
    std::uint64_t err_n = 0;

    const std::string tag = "storm_" + std::to_string(storm_index);
    const std::string ckpt_path =
        crash ? crash->dir + "/" + tag + ".rbcp" : std::string();
    const std::vector<int> kills =
        crash ? crashSchedule(seed, storm_index, batches, *crash)
              : std::vector<int>();
    std::size_t next_kill = 0;

    // Reset the harness loop to batch 0 (cold start after a restore
    // failure: no checkpoint survived, so the storm replays whole).
    auto cold_start = [&] {
        for (std::size_t i = 0; i < kRobots; ++i) {
            double s = static_cast<double>(i);
            truth[i] = Vector{0.1 * s, -0.03 * s};
            prev_meas[i] = Vector{0.0, 0.0};
            last_u[i] = Vector{0.0};
        }
        err_sum = 0.0;
        err_n = 0;
        result = StormResult();
        result.offeredLoad = load;
        return 0;
    };

    int b = 0;
    while (b < batches) {
        if (crash && next_kill < kills.size() && b == kills[next_kill]) {
            ++next_kill;
            // Black box first: the postmortem is the flight recorder
            // recovered from the instance being killed.
            robox::support::writeFileAtomic(
                crash->dir + "/postmortem_" + tag + "_" +
                    std::to_string(next_kill) + ".json",
                batch->flightRecorder().toJson());
            batch = make_batch(); // The "new process".
            std::string blob;
            bool restored = false;
            std::uint64_t saved_b = 0;
            if (robox::support::readFile(ckpt_path, &blob)) {
                robox::support::CheckpointReader r(blob);
                std::uint64_t saved_shed = 0;
                restored =
                    r.status() ==
                        robox::support::CheckpointStatus::Ok &&
                    r.u64(&saved_b) &&
                    robox::field(r, truth) &&
                    robox::field(r, prev_meas) &&
                    robox::field(r, last_u) &&
                    r.f64(&err_sum) && r.u64(&err_n) &&
                    r.f64(&result.maxTrackingError) &&
                    r.u64(&saved_shed) && batch->restore(r) && r.atEnd();
                if (restored)
                    result.protectedShed = saved_shed;
            }
            if (!restored) {
                std::fprintf(stderr,
                             "overload_storm: %s checkpoint unusable, "
                             "cold-starting\n",
                             tag.c_str());
                batch = make_batch(); // restore() left it cold anyway.
                b = cold_start();
            } else {
                b = static_cast<int>(saved_b);
            }
            continue;
        }

        chaos.setBatch(static_cast<std::uint64_t>(b));
        for (std::size_t i = 0; i < kRobots; ++i) {
            meas[i].copyFrom(truth[i]);
            chaos.poisonState(static_cast<std::uint64_t>(b), i,
                              prev_meas[i], meas[i]);
            prev_meas[i].copyFrom(meas[i]);
        }
        const auto &results = batch->solveAll(meas, refs);
        for (std::size_t i = 0; i < kRobots; ++i) {
            if (results[i].status == SolveStatus::Shed) {
                if (i < 2)
                    ++result.protectedShed;
            } else {
                last_u[i].copyFrom(results[i].u0);
            }
            // Shed robots hold their previous actuation (the ladder
            // gave them no fresh command, not even a backup).
            truth[i] = plant.step(truth[i], last_u[i], refs[i], opt.dt);
            if (b >= settle) {
                double e = std::abs(truth[i][0] - refs[i][0]);
                result.maxTrackingError =
                    std::max(result.maxTrackingError, e);
                err_sum += e;
                ++err_n;
            }
        }
        ++b;
        if (crash && b % crash->checkpointEvery == 0) {
            robox::support::CheckpointWriter w;
            w.u64(static_cast<std::uint64_t>(b));
            robox::field(w, truth);
            robox::field(w, prev_meas);
            robox::field(w, last_u);
            w.f64(err_sum);
            w.u64(err_n);
            w.f64(result.maxTrackingError);
            w.u64(result.protectedShed);
            batch->checkpoint(w);
            robox::support::writeFileAtomic(ckpt_path, w.finish());
        }
    }

    const robox::mpc::BatchReport &report = batch->report();
    result.overloadedBatches = report.overload.overloadedBatches;
    result.degraded = report.overload.degraded;
    result.servedFromBackup = report.overload.servedFromBackup;
    result.shed = report.overload.shed;
    result.badInput = report.overload.badInput;
    result.poisoned = report.overload.poisoned;
    result.failures = report.failures;
    result.projectedSeconds = report.overload.projectedSeconds;
    result.admittedSeconds = report.overload.admittedSeconds;
    result.meanTrackingError =
        err_n > 0 ? err_sum / static_cast<double>(err_n) : 0.0;
    if (timeline_out)
        *timeline_out = batch->timeline();
    return result;
}

/** Outcome of one link storm at one loss-rate point. */
struct LinkStormResult
{
    double lossRate = 0.0;
    std::uint64_t uplinkDropped = 0;
    std::uint64_t downlinkDropped = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t planMisses = 0;
    std::uint64_t statesExtrapolated = 0;
    std::uint64_t staleDemotions = 0;
    std::uint64_t linkDownEvents = 0;
    std::uint64_t servedFromBackup = 0;
    std::uint64_t shed = 0;
    double maxTrackingError = 0.0;
    double meanTrackingError = 0.0;
};

/** One closed-loop storm over the lossy link: compute is underloaded
 *  (offered load 0.5, virtual time) so every demotion below comes from
 *  the link layer — dropped uplinks forcing extrapolation and staleness
 *  demotions, dropped plans forcing the robots onto buffered tails. */
LinkStormResult
runLinkStorm(const robox::dsl::ModelSpec &model, const MpcOptions &opt,
             double loss, std::uint64_t seed, int batches,
             std::size_t threads, FleetTimeline *timeline_out,
             const CrashPlan *crash = nullptr, std::size_t storm_index = 0)
{
    ChaosSpec spec;
    spec.seed = seed;
    spec.uplinkDropRate = loss;
    spec.downlinkDropRate = loss;
    spec.uplinkDelayRate = 0.5 * loss;
    spec.downlinkDelayRate = 0.5 * loss;
    spec.linkDelayPeriodsMax = 2;
    spec.uplinkDupRate = 0.25 * loss;
    spec.downlinkDupRate = 0.25 * loss;
    spec.linkBlackoutRate = 0.05 * loss;
    spec.linkBlackoutBatches = 4;
    spec.virtualSolveCostSeconds =
        0.5 * kBudgetSeconds * kParallelism / kRobots;
    ChaosEngine chaos(spec);

    MpcOptions link_opt = opt;
    link_opt.linkEnabled = true;

    auto make_batch = [&] {
        auto p = std::make_unique<BatchController>(model, link_opt,
                                                   kRobots, threads);
        p->setCostHook(chaos.costHook());
        p->setLinkChaos(&chaos);
        p->enableTimeline(timeline_out != nullptr);
        return p;
    };
    std::unique_ptr<BatchController> batch = make_batch();

    Plant plant(model);
    std::vector<Vector> truth, meas, refs;
    for (std::size_t i = 0; i < kRobots; ++i) {
        double s = static_cast<double>(i);
        truth.push_back(Vector{0.1 * s, -0.03 * s});
        meas.push_back(Vector{0.0, 0.0});
        refs.push_back(Vector{1.0 + 0.2 * s});
    }

    LinkStormResult result;
    result.lossRate = loss;
    const int settle = batches / 3;
    double err_sum = 0.0;
    std::uint64_t err_n = 0;

    const std::string tag = "link_storm_" + std::to_string(storm_index);
    const std::string ckpt_path =
        crash ? crash->dir + "/" + tag + ".rbcp" : std::string();
    // A distinct nonce channel from the compute storms, so the two
    // sweeps are killed at independent batch indices.
    const std::vector<int> kills =
        crash ? crashSchedule(seed, 0x100 + storm_index, batches, *crash)
              : std::vector<int>();
    std::size_t next_kill = 0;

    auto cold_start = [&] {
        for (std::size_t i = 0; i < kRobots; ++i) {
            double s = static_cast<double>(i);
            truth[i] = Vector{0.1 * s, -0.03 * s};
        }
        err_sum = 0.0;
        err_n = 0;
        result = LinkStormResult();
        result.lossRate = loss;
        return 0;
    };

    int b = 0;
    while (b < batches) {
        if (crash && next_kill < kills.size() && b == kills[next_kill]) {
            ++next_kill;
            robox::support::writeFileAtomic(
                crash->dir + "/postmortem_" + tag + "_" +
                    std::to_string(next_kill) + ".json",
                batch->flightRecorder().toJson());
            batch = make_batch();
            std::string blob;
            bool restored = false;
            std::uint64_t saved_b = 0;
            if (robox::support::readFile(ckpt_path, &blob)) {
                robox::support::CheckpointReader r(blob);
                restored =
                    r.status() ==
                        robox::support::CheckpointStatus::Ok &&
                    r.u64(&saved_b) &&
                    robox::field(r, truth) &&
                    r.f64(&err_sum) && r.u64(&err_n) &&
                    r.f64(&result.maxTrackingError) &&
                    batch->restore(r) && r.atEnd();
            }
            if (!restored) {
                std::fprintf(stderr,
                             "overload_storm: %s checkpoint unusable, "
                             "cold-starting\n",
                             tag.c_str());
                batch = make_batch();
                b = cold_start();
            } else {
                b = static_cast<int>(saved_b);
            }
            continue;
        }

        chaos.setBatch(static_cast<std::uint64_t>(b));
        for (std::size_t i = 0; i < kRobots; ++i)
            meas[i].copyFrom(truth[i]);
        const auto &results = batch->solveAll(meas, refs);
        for (std::size_t i = 0; i < kRobots; ++i) {
            // In link mode every result carries the command the robot
            // actually executes — a fresh plan head or its buffered
            // open-loop tail (shed robots included; see mpc/link.hh).
            truth[i] =
                plant.step(truth[i], results[i].u0, refs[i], opt.dt);
            if (b >= settle) {
                double e = std::abs(truth[i][0] - refs[i][0]);
                result.maxTrackingError =
                    std::max(result.maxTrackingError, e);
                err_sum += e;
                ++err_n;
            }
        }
        ++b;
        if (crash && b % crash->checkpointEvery == 0) {
            robox::support::CheckpointWriter w;
            w.u64(static_cast<std::uint64_t>(b));
            robox::field(w, truth);
            w.f64(err_sum);
            w.u64(err_n);
            w.f64(result.maxTrackingError);
            batch->checkpoint(w);
            robox::support::writeFileAtomic(ckpt_path, w.finish());
        }
    }

    const robox::mpc::BatchReport &report = batch->report();
    const robox::mpc::LinkReport &link = report.overload.link;
    result.uplinkDropped = link.uplink.dropped;
    result.downlinkDropped = link.downlink.dropped;
    result.retransmits = link.retransmits;
    result.planMisses = link.planMisses;
    result.statesExtrapolated = link.statesExtrapolated;
    result.staleDemotions = link.staleDemotions;
    result.linkDownEvents = link.linkDownEvents;
    result.servedFromBackup = report.overload.servedFromBackup;
    result.shed = report.overload.shed;
    result.meanTrackingError =
        err_n > 0 ? err_sum / static_cast<double>(err_n) : 0.0;
    if (timeline_out)
        *timeline_out = batch->timeline();
    return result;
}

/** One sweep point in the uniform StatGroup::toJson() schema. No
 *  wall-clock quantity and no thread count appear, so the report
 *  diffs byte-for-byte across runs and across --threads values. */
std::string
stormPointJson(const StormResult &r)
{
    using robox::stats::Scalar;
    using robox::stats::StatGroup;

    auto scalar = [](const char *name, const char *desc, double v) {
        Scalar s(name, desc);
        s.set(v);
        return s;
    };
    std::vector<Scalar> scalars;
    scalars.reserve(13);
    scalars.push_back(scalar("offeredLoad", "demand / budget",
                             r.offeredLoad));
    scalars.push_back(scalar("overloadedBatches",
                             "batches projected over budget",
                             static_cast<double>(r.overloadedBatches)));
    scalars.push_back(scalar("degraded", "degraded-budget solves",
                             static_cast<double>(r.degraded)));
    scalars.push_back(scalar("servedFromBackup", "backup-tail serves",
                             static_cast<double>(r.servedFromBackup)));
    scalars.push_back(scalar("shed", "robots shed",
                             static_cast<double>(r.shed)));
    scalars.push_back(scalar("badInput", "input rejections",
                             static_cast<double>(r.badInput)));
    scalars.push_back(scalar("poisoned", "sensor-gate demotions",
                             static_cast<double>(r.poisoned)));
    scalars.push_back(scalar("failures", "non-usable solves",
                             static_cast<double>(r.failures)));
    scalars.push_back(scalar("protectedShed",
                             "sheds of high-priority robots",
                             static_cast<double>(r.protectedShed)));
    scalars.push_back(scalar("projectedSeconds",
                             "last batch projected (virtual) cost",
                             r.projectedSeconds));
    scalars.push_back(scalar("admittedSeconds",
                             "last batch admitted (virtual) cost",
                             r.admittedSeconds));
    scalars.push_back(scalar("maxTrackingError",
                             "worst post-settle tracking error",
                             r.maxTrackingError));
    scalars.push_back(scalar("meanTrackingError",
                             "mean post-settle tracking error",
                             r.meanTrackingError));

    StatGroup group("storm");
    for (Scalar &s : scalars)
        group.add(&s);
    return group.toJson();
}

/** One link-sweep point, same diffable StatGroup::toJson() schema. */
std::string
linkStormPointJson(const LinkStormResult &r)
{
    using robox::stats::Scalar;
    using robox::stats::StatGroup;

    auto scalar = [](const char *name, const char *desc, double v) {
        Scalar s(name, desc);
        s.set(v);
        return s;
    };
    std::vector<Scalar> scalars;
    scalars.reserve(12);
    scalars.push_back(scalar("lossRate", "per-message drop probability",
                             r.lossRate));
    scalars.push_back(scalar("uplinkDropped", "state uplinks lost",
                             static_cast<double>(r.uplinkDropped)));
    scalars.push_back(scalar("downlinkDropped", "plan downlinks lost",
                             static_cast<double>(r.downlinkDropped)));
    scalars.push_back(scalar("retransmits", "backoff plan retransmits",
                             static_cast<double>(r.retransmits)));
    scalars.push_back(scalar("planMisses",
                             "periods a robot flew its buffered tail",
                             static_cast<double>(r.planMisses)));
    scalars.push_back(scalar("statesExtrapolated",
                             "stale states served via rollout",
                             static_cast<double>(r.statesExtrapolated)));
    scalars.push_back(scalar("staleDemotions",
                             "states past the staleness bound",
                             static_cast<double>(r.staleDemotions)));
    scalars.push_back(scalar("linkDownEvents", "heartbeat loss events",
                             static_cast<double>(r.linkDownEvents)));
    scalars.push_back(scalar("servedFromBackup", "backup-tail serves",
                             static_cast<double>(r.servedFromBackup)));
    scalars.push_back(scalar("shed", "robots shed",
                             static_cast<double>(r.shed)));
    scalars.push_back(scalar("maxTrackingError",
                             "worst post-settle tracking error",
                             r.maxTrackingError));
    scalars.push_back(scalar("meanTrackingError",
                             "mean post-settle tracking error",
                             r.meanTrackingError));

    StatGroup group("link_storm");
    for (Scalar &s : scalars)
        group.add(&s);
    return group.toJson();
}

std::string
reportJson(const std::vector<StormResult> &sweep,
           const std::vector<LinkStormResult> &link_sweep,
           std::uint64_t seed, int batches)
{
    std::ostringstream os;
    os << "{\n\"benchmark\": \"overload_storm\",\n"
       << "\"model\": \"DoubleIntegrator\",\n"
       << "\"robots\": " << kRobots << ",\n"
       << "\"parallelism\": " << kParallelism << ",\n"
       << "\"budget_seconds\": " << kBudgetSeconds << ",\n"
       << "\"seed\": " << seed << ",\n"
       << "\"batches\": " << batches << ",\n"
       << "\"sweep\": [\n";
    for (std::size_t i = 0; i < sweep.size(); ++i)
        os << stormPointJson(sweep[i])
           << (i + 1 < sweep.size() ? ",\n" : "\n");
    os << "],\n\"link_sweep\": [\n";
    for (std::size_t i = 0; i < link_sweep.size(); ++i)
        os << linkStormPointJson(link_sweep[i])
           << (i + 1 < link_sweep.size() ? ",\n" : "\n");
    os << "]\n}\n";
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    bool kill_resume = false;
    std::size_t threads = kDefaultThreads;
    const char *timeline_path = nullptr;
    const char *metrics_path = nullptr;
    const char *link_timeline_path = nullptr;
    CrashPlan plan;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[i], "--kill-resume") == 0) {
            kill_resume = true;
        } else if (std::strcmp(argv[i], "--checkpoint-every") == 0 &&
                   i + 1 < argc) {
            plan.checkpointEvery = static_cast<int>(
                std::max(1L, std::atol(argv[++i])));
        } else if (std::strcmp(argv[i], "--checkpoint-dir") == 0 &&
                   i + 1 < argc) {
            plan.dir = argv[++i];
        } else if (std::strcmp(argv[i], "--threads") == 0 &&
                   i + 1 < argc) {
            threads = static_cast<std::size_t>(
                std::max(1L, std::atol(argv[++i])));
        } else if (std::strcmp(argv[i], "--timeline") == 0 &&
                   i + 1 < argc) {
            timeline_path = argv[++i];
        } else if (std::strcmp(argv[i], "--metrics") == 0 &&
                   i + 1 < argc) {
            metrics_path = argv[++i];
        } else if (std::strcmp(argv[i], "--link-timeline") == 0 &&
                   i + 1 < argc) {
            link_timeline_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: overload_storm [--smoke] [--threads N]"
                         " [--metrics PATH] [--timeline PATH]"
                         " [--link-timeline PATH] [--kill-resume]"
                         " [--checkpoint-every N] [--checkpoint-dir"
                         " PATH]\n");
            return 2;
        }
    }

    robox::dsl::ModelSpec model =
        robox::dsl::analyzeSource(kDoubleIntegrator);
    MpcOptions opt;
    opt.horizon = 12;
    opt.dt = 0.1;
    opt.maxIterations = 60;
    opt.batchDeadlineSeconds = kBudgetSeconds;
    opt.overloadParallelism = kParallelism;
    // Backup service priced so extreme storms overflow even an
    // all-backup batch and actually exercise the shed rung.
    opt.overloadBackupCostSeconds = 4e-4;
    opt.sensorRangeMargin = 0.5;
    opt.sensorJumpThreshold = 5.0;
    opt.sensorFrozenPeriods = 2;
    // The black box rides along in kill-resume mode so each simulated
    // kill leaves a postmortem. It records, never decides, so the
    // report stays byte-identical to a run without it.
    if (kill_resume)
        opt.flightRecorderCapacity = 32;

    constexpr std::uint64_t kSeed = 20260806;
    const int batches = smoke ? 40 : 120;
    const std::vector<double> loads =
        smoke ? std::vector<double>{0.5, 2.0, 8.0}
              : std::vector<double>{0.5, 1.0, 1.5, 2.0, 4.0, 8.0};
    const std::vector<double> losses =
        smoke ? std::vector<double>{0.0, 0.35}
              : std::vector<double>{0.0, 0.1, 0.25, 0.5};

    const CrashPlan *crash = kill_resume ? &plan : nullptr;

    // The fleet timeline is recorded for the highest-load storm — the
    // one whose ladder activity is worth looking at.
    FleetTimeline timeline;
    std::vector<StormResult> sweep;
    for (std::size_t i = 0; i < loads.size(); ++i) {
        const bool last = i + 1 == loads.size();
        sweep.push_back(runStorm(model, opt, loads[i], kSeed, batches,
                                 threads,
                                 timeline_path && last ? &timeline
                                                       : nullptr,
                                 crash, i));
    }
    // Likewise the link timeline for the worst-loss link storm.
    FleetTimeline link_timeline;
    std::vector<LinkStormResult> link_sweep;
    for (std::size_t i = 0; i < losses.size(); ++i) {
        const bool last = i + 1 == losses.size();
        link_sweep.push_back(
            runLinkStorm(model, opt, losses[i], kSeed, batches, threads,
                         link_timeline_path && last ? &link_timeline
                                                    : nullptr,
                         crash, i));
    }
    const std::string report =
        reportJson(sweep, link_sweep, kSeed, batches);
    std::fputs(report.c_str(), stdout);
    if (metrics_path)
        robox::trace::writeTextFile(metrics_path, report);
    if (timeline_path)
        timeline.writeChromeJson(timeline_path);
    if (link_timeline_path)
        link_timeline.writeChromeJson(link_timeline_path);

    // Sanity gates: a storm study whose underloaded point degrades
    // service, whose overloaded point doesn't, or whose loop blows up
    // would be useless as a regression signal; fail loudly instead.
    const StormResult &calm = sweep.front();
    if (calm.degraded != 0 || calm.shed != 0) {
        std::fprintf(stderr, "overload_storm: underloaded point was "
                             "degraded or shed\n");
        return 1;
    }
    const StormResult &worst = sweep.back();
    if (worst.overloadedBatches == 0 || worst.degraded == 0 ||
        worst.servedFromBackup == 0 || worst.shed == 0) {
        std::fprintf(stderr, "overload_storm: max-load point did not "
                             "exercise every ladder rung\n");
        return 1;
    }
    for (const StormResult &r : sweep) {
        if (!std::isfinite(r.maxTrackingError) ||
            !std::isfinite(r.meanTrackingError)) {
            std::fprintf(stderr,
                         "overload_storm: closed loop went non-finite\n");
            return 1;
        }
        if (r.protectedShed != 0) {
            std::fprintf(stderr, "overload_storm: a high-priority robot "
                                 "was shed\n");
            return 1;
        }
        if (r.poisoned == 0) {
            std::fprintf(stderr, "overload_storm: chaos poisoning never "
                                 "tripped the sensor gate\n");
            return 1;
        }
    }

    // Link-sweep gates: a perfect link must look exactly like the
    // direct path, and the worst-loss point must exercise every
    // degraded-comms mechanism, without the loop going non-finite.
    const LinkStormResult &clean = link_sweep.front();
    if (clean.uplinkDropped != 0 || clean.downlinkDropped != 0 ||
        clean.retransmits != 0 || clean.planMisses != 0 ||
        clean.statesExtrapolated != 0 || clean.servedFromBackup != 0) {
        std::fprintf(stderr, "overload_storm: lossless link point was "
                             "impaired\n");
        return 1;
    }
    const LinkStormResult &worst_link = link_sweep.back();
    if (worst_link.uplinkDropped == 0 ||
        worst_link.downlinkDropped == 0 || worst_link.retransmits == 0 ||
        worst_link.planMisses == 0 ||
        worst_link.statesExtrapolated == 0) {
        std::fprintf(stderr, "overload_storm: max-loss point did not "
                             "exercise the degraded-comms path\n");
        return 1;
    }
    for (const LinkStormResult &r : link_sweep) {
        if (!std::isfinite(r.maxTrackingError) ||
            !std::isfinite(r.meanTrackingError)) {
            std::fprintf(stderr, "overload_storm: link-storm loop went "
                                 "non-finite\n");
            return 1;
        }
    }
    if (clean.meanTrackingError > worst_link.meanTrackingError + 1e-9) {
        std::fprintf(stderr, "overload_storm: loss made tracking "
                             "better than the lossless link\n");
        return 1;
    }

    // Kill-resume leaves each storm's last checkpoint on disk. Gate
    // the corrupt-blob path on the real artifact: one flipped payload
    // byte must be rejected (CRC) and leave the fresh controller
    // serving from a clean cold start — never a crash.
    if (kill_resume) {
        const std::string last_ckpt =
            plan.dir + "/storm_" + std::to_string(loads.size() - 1) +
            ".rbcp";
        std::string blob;
        if (!robox::support::readFile(last_ckpt, &blob) ||
            blob.size() <= 20) {
            std::fprintf(stderr, "overload_storm: kill-resume left no "
                                 "checkpoint at %s\n",
                         last_ckpt.c_str());
            return 1;
        }
        blob[blob.size() / 2] =
            static_cast<char>(blob[blob.size() / 2] ^ 0x5a);
        BatchController fresh(model, opt, kRobots, threads);
        robox::support::CheckpointReader r(blob);
        if (fresh.restore(r)) {
            std::fprintf(stderr, "overload_storm: corrupt checkpoint "
                                 "was accepted\n");
            return 1;
        }
        std::vector<Vector> meas(kRobots, Vector{0.0, 0.0});
        std::vector<Vector> refs(kRobots, Vector{1.0});
        const auto &results = fresh.solveAll(meas, refs);
        for (std::size_t i = 0; i < kRobots; ++i) {
            if (!robox::mpc::statusUsable(results[i].status)) {
                std::fprintf(stderr,
                             "overload_storm: cold start after corrupt "
                             "checkpoint did not serve\n");
                return 1;
            }
        }
    }
    return 0;
}
