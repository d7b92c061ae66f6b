/**
 * @file
 * Tests for the crash-safe serving layer: the versioned CRC-protected
 * checkpoint format, bitwise kill-and-resume of core::Controller and
 * BatchController (including across thread counts and under
 * chaos/lossy-link configs), rejection of corrupt / truncated /
 * version-skewed blobs with a clean cold-start fallback, sensor-gate
 * streak continuity across a restore, and byte-stability of the
 * flight-recorder postmortem dump.
 */

#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/controller.hh"
#include "dsl/sema.hh"
#include "mpc/batch.hh"
#include "mpc/chaos.hh"
#include "mpc/checkpoint_io.hh"
#include "mpc/failsafe.hh"
#include "mpc/flight_recorder.hh"
#include "mpc/sensor_gate.hh"
#include "mpc/simulate.hh"
#include "support/checkpoint.hh"

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
baseOptions()
{
    MpcOptions opt;
    opt.horizon = 8;
    opt.dt = 0.1;
    opt.maxIterations = 40;
    return opt;
}

/** Bitwise vector equality (what "resumed identically" means). */
void
expectSameBits(const Vector &a, const Vector &b)
{
    ASSERT_EQ(a.size(), b.size());
    if (a.size() > 0) {
        EXPECT_EQ(0, std::memcmp(a.data(), b.data(),
                                 a.size() * sizeof(double)));
    }
}

// ---------------------------------------------------------------------
// Format layer.
// ---------------------------------------------------------------------

TEST(CheckpointFormat, RoundTripPreservesEveryTypeBitwise)
{
    support::CheckpointWriter w;
    w.u8(0xAB);
    w.u32(0xDEADBEEFu);
    w.u64(0x0123456789ABCDEFull);
    w.i32(-7);
    w.i64(-1234567890123ll);
    w.boolean(true);
    w.f64(-0.1);
    const double nan = std::nan("0x5");
    w.f64(nan);
    w.str("postmortem");

    support::CheckpointReader r(w.finish());
    ASSERT_EQ(support::CheckpointStatus::Ok, r.status());
    std::uint8_t u8v = 0;
    std::uint32_t u32v = 0;
    std::uint64_t u64v = 0;
    std::int32_t i32v = 0;
    std::int64_t i64v = 0;
    bool bv = false;
    double d1 = 0.0, d2 = 0.0;
    std::string s;
    ASSERT_TRUE(r.u8(&u8v));
    ASSERT_TRUE(r.u32(&u32v));
    ASSERT_TRUE(r.u64(&u64v));
    ASSERT_TRUE(r.i32(&i32v));
    ASSERT_TRUE(r.i64(&i64v));
    ASSERT_TRUE(r.boolean(&bv));
    ASSERT_TRUE(r.f64(&d1));
    ASSERT_TRUE(r.f64(&d2));
    ASSERT_TRUE(r.str(&s));
    EXPECT_EQ(0xAB, u8v);
    EXPECT_EQ(0xDEADBEEFu, u32v);
    EXPECT_EQ(0x0123456789ABCDEFull, u64v);
    EXPECT_EQ(-7, i32v);
    EXPECT_EQ(-1234567890123ll, i64v);
    EXPECT_TRUE(bv);
    EXPECT_EQ(-0.1, d1);
    // NaN payload bits survive (bitwise, not value, storage).
    EXPECT_EQ(0, std::memcmp(&nan, &d2, sizeof nan));
    EXPECT_EQ("postmortem", s);
    EXPECT_TRUE(r.atEnd());
    EXPECT_FALSE(r.failed());

    // Reading past the end fails and latches, never crashes.
    EXPECT_FALSE(r.u8(&u8v));
    EXPECT_TRUE(r.failed());
}

TEST(CheckpointFormat, HeaderRejectsEveryCorruptionClass)
{
    support::CheckpointWriter w;
    w.u64(42);
    w.f64(3.5);
    const std::string good = w.finish();

    {
        support::CheckpointReader r(good);
        EXPECT_EQ(support::CheckpointStatus::Ok, r.status());
    }
    {
        std::string bad = good;
        bad[0] = 'X';
        support::CheckpointReader r(bad);
        EXPECT_EQ(support::CheckpointStatus::BadMagic, r.status());
    }
    {
        std::string bad = good;
        bad[4] = static_cast<char>(support::kCheckpointVersion + 1);
        support::CheckpointReader r(bad);
        EXPECT_EQ(support::CheckpointStatus::BadVersion, r.status());
    }
    {
        std::string bad = good.substr(0, good.size() - 3);
        support::CheckpointReader r(bad);
        EXPECT_EQ(support::CheckpointStatus::Truncated, r.status());
    }
    {
        std::string bad = good.substr(0, 10); // Inside the header.
        support::CheckpointReader r(bad);
        EXPECT_EQ(support::CheckpointStatus::Truncated, r.status());
    }
    {
        std::string bad = good;
        bad[good.size() - 1] ^= 0x01; // Payload bit flip.
        support::CheckpointReader r(bad);
        EXPECT_EQ(support::CheckpointStatus::BadChecksum, r.status());
    }
    {
        support::CheckpointReader r{std::string()};
        EXPECT_EQ(support::CheckpointStatus::Truncated, r.status());
        std::uint64_t v = 0;
        EXPECT_FALSE(r.u64(&v)); // Reads refuse on a bad header.
    }
}

TEST(CheckpointFormat, CorruptCountsFailWithoutAllocating)
{
    // The CRC catches torn writes, not a corrupt length: a count that
    // needs more bytes than the payload has left must fail the read,
    // never size an allocation or throw.
    support::CheckpointWriter w;
    w.u64(std::uint64_t{1} << 62);
    const std::string blob = w.finish();

    FleetTimeline timeline;
    support::CheckpointReader r1(blob);
    EXPECT_FALSE(timeline.restore(r1));

    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    SensorGate gate(model, baseOptions());
    support::CheckpointReader r2(blob);
    EXPECT_FALSE(gate.restore(r2));
}

TEST(CheckpointFormat, WrongLengthStateFailsRestore)
{
    // A CRC-valid payload can also hold a length the model cannot
    // produce. The restore must fail on it, or a later read of nx
    // states or nu inputs runs past the stored vector.
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    ASSERT_EQ(2, model.nx());
    ASSERT_EQ(1, model.nu());

    // A sensor gate whose 1-state baseline is marked present.
    support::CheckpointWriter g;
    field(g, Vector{0.5}); // baseline_
    g.boolean(true);       // has_baseline_
    g.i32(0);              // frozen streak
    g.i32(0);              // jump streak
    g.u32(0);              // last verdict: Ok
    g.u64(0);              // rejected
    SensorGate gate(model, baseOptions());
    support::CheckpointReader r1(g.finish());
    EXPECT_FALSE(gate.restore(r1));
    EXPECT_EQ(SensorVerdict::Ok, gate.check(Vector{0.0, 0.0}));

    // A backup plan with one empty stage.
    support::CheckpointWriter b;
    b.u64(1); // stages
    b.u64(0); // stage 0 length
    b.u64(0); // cursor
    b.i32(0); // consecutive
    BackupPlan backup(model);
    support::CheckpointReader r2(b.finish());
    EXPECT_FALSE(backup.restore(r2));
    EXPECT_FALSE(backup.available());

    // A flight recorder holding more records than were ever recorded.
    support::CheckpointWriter f;
    f.u64(4); // capacity
    f.u64(1); // total recorded
    f.u64(2); // retained
    for (int k = 0; k < 2; ++k) {
        FlightRecord rec;
        rec.period = static_cast<std::uint64_t>(k);
        f.u64(rec.period);
        f.i32(rec.robot);
        f.u32(static_cast<std::uint32_t>(rec.status));
        f.i32(rec.rung);
        f.i32(rec.sensorVerdict);
        f.i32(rec.linkService);
        f.boolean(rec.degraded);
        field(f, rec.state);
        field(f, rec.command);
    }
    FlightRecorder recorder;
    recorder.configure(4);
    support::CheckpointReader r3(f.finish());
    EXPECT_FALSE(recorder.restore(r3));
    EXPECT_EQ(0u, recorder.dropped());

    // Streaks and counts that check() and command() cannot produce.
    // Each payload is well formed apart from its one value, and the
    // in-range payloads restore.
    MpcOptions gated = baseOptions();
    gated.sensorJumpThreshold = 1.0;
    gated.sensorFrozenPeriods = 3;
    auto gatePayload = [](std::int32_t frozen, std::int32_t jump) {
        support::CheckpointWriter w;
        field(w, Vector{0.5, 0.0}); // baseline_
        w.boolean(true);            // has_baseline_
        w.i32(frozen);
        w.i32(jump);
        w.u32(0); // last verdict: Ok
        w.u64(0); // rejected
        return w.finish();
    };
    const int rehome = SensorGate::kJumpRehomePeriods;
    SensorGate valid_gate(model, gated);
    support::CheckpointReader r4(gatePayload(3, rehome - 1));
    EXPECT_TRUE(valid_gate.restore(r4));
    const std::pair<std::int32_t, std::int32_t> bad_streaks[] = {
        {INT_MAX, 0}, {-1, 0}, {0, rehome}, {0, -1}};
    for (const auto &[frozen, jump] : bad_streaks) {
        SensorGate bad_gate(model, gated);
        support::CheckpointReader r(gatePayload(frozen, jump));
        EXPECT_FALSE(bad_gate.restore(r))
            << "frozen " << frozen << ", jump " << jump;
        // The refused gate was reset: it holds no baseline to repeat.
        EXPECT_EQ(SensorVerdict::Ok, bad_gate.check(Vector{0.5, 0.0}));
    }

    auto backupPayload = [](std::uint64_t cursor, std::int32_t consecutive) {
        support::CheckpointWriter w;
        w.u64(1);              // stages
        field(w, Vector{0.5}); // stage 0
        w.u64(cursor);
        w.i32(consecutive);
        return w.finish();
    };
    BackupPlan negative(model);
    support::CheckpointReader r5(backupPayload(1, -1));
    EXPECT_FALSE(negative.restore(r5));
    EXPECT_FALSE(negative.available());
    BackupPlan past_tail(model);
    support::CheckpointReader r6(backupPayload(2, 0));
    EXPECT_FALSE(past_tail.restore(r6));
    // command() holds a restored INT_MAX streak instead of overflowing.
    BackupPlan pinned(model);
    support::CheckpointReader r7(backupPayload(1, INT_MAX));
    ASSERT_TRUE(pinned.restore(r7));
    EXPECT_EQ(0.5, pinned.command()[0]);
    EXPECT_EQ(INT_MAX, pinned.consecutiveDegraded());
}

TEST(CheckpointFormat, AtomicWriteLandsAndOverwrites)
{
    const std::string path =
        ::testing::TempDir() + "checkpoint_atomic_test.rbcp";
    ASSERT_TRUE(support::writeFileAtomic(path, "first"));
    ASSERT_TRUE(support::writeFileAtomic(path, "second"));
    std::string back;
    ASSERT_TRUE(support::readFile(path, &back));
    EXPECT_EQ("second", back);
    std::remove(path.c_str());
    EXPECT_FALSE(support::readFile(path, &back));
}

// ---------------------------------------------------------------------
// Single-robot controller.
// ---------------------------------------------------------------------

TEST(ControllerCheckpoint, ResumedStepsAreBitwiseIdentical)
{
    MpcOptions opt = baseOptions();
    opt.flightRecorderCapacity = 8;
    core::Controller live(kDoubleIntegrator, opt);
    core::Controller resumed(kDoubleIntegrator, opt);

    Plant plant(live.model());
    Vector truth{0.4, -0.2};
    const Vector ref{1.0};
    const int total = 16, cut = 7;

    std::string blob;
    Vector truth_at_cut;
    for (int k = 0; k < total; ++k) {
        if (k == cut) {
            support::CheckpointWriter w;
            live.checkpoint(w);
            blob = w.finish();
            truth_at_cut = truth;
        }
        auto res = live.step(truth, ref);
        truth = plant.step(truth, res.u0, ref, opt.dt);
        if (k < cut)
            continue;
    }
    const std::string live_box = live.flightRecorder().toJson();

    // "Crash" and resume the second controller at the cut.
    support::CheckpointReader r(blob);
    ASSERT_TRUE(resumed.restore(r));
    EXPECT_TRUE(r.atEnd());
    EXPECT_EQ(static_cast<std::uint64_t>(cut), resumed.periods());

    Vector truth2 = truth_at_cut;
    for (int k = cut; k < total; ++k) {
        auto res = resumed.step(truth2, ref);
        truth2 = plant.step(truth2, res.u0, ref, opt.dt);
    }
    expectSameBits(truth, truth2);
    EXPECT_EQ(live.periods(), resumed.periods());
    EXPECT_EQ(live.lastStatus(), resumed.lastStatus());
    // Both black boxes saw the same flight: byte-identical postmortems.
    EXPECT_EQ(live_box, resumed.flightRecorder().toJson());
}

TEST(ControllerCheckpoint, BadBlobsAreRejectedIntoCleanColdStart)
{
    MpcOptions opt = baseOptions();
    opt.flightRecorderCapacity = 4;
    core::Controller ctl(kDoubleIntegrator, opt);
    const Vector x{0.3, 0.1};
    const Vector ref{1.0};
    ctl.step(x, ref);
    support::CheckpointWriter w;
    ctl.checkpoint(w);
    const std::string good = w.finish();

    core::Controller fresh(kDoubleIntegrator, opt);
    {
        std::string bad = good;
        bad[bad.size() / 2] ^= 0x40;
        support::CheckpointReader r(bad);
        EXPECT_FALSE(fresh.restore(r));
    }
    {
        std::string bad = good;
        bad[4] = static_cast<char>(support::kCheckpointVersion + 9);
        support::CheckpointReader r(bad);
        EXPECT_FALSE(fresh.restore(r));
    }
    {
        support::CheckpointReader r(good.substr(0, good.size() / 2));
        EXPECT_FALSE(fresh.restore(r));
    }
    {
        // Structurally valid blob with a foreign layout.
        support::CheckpointWriter other;
        other.u64(7);
        support::CheckpointReader r(other.finish());
        EXPECT_FALSE(fresh.restore(r));
    }
    // After every rejection the controller serves from a cold start.
    EXPECT_EQ(0u, fresh.periods());
    auto res = fresh.step(x, ref);
    EXPECT_TRUE(statusUsable(res.status));
    EXPECT_FALSE(res.degraded);
}

TEST(ControllerCheckpoint, GateStreaksContinueWithoutResetOrDoubleCount)
{
    MpcOptions opt = baseOptions();
    opt.sensorJumpThreshold = 5.0;
    opt.sensorFrozenPeriods = 2;

    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    SensorGate live(model, opt);
    const Vector frozen{0.25, -0.125};

    // Baseline, then one repeat: the streak stands one short of the
    // frozen verdict at the cut.
    EXPECT_EQ(SensorVerdict::Ok, live.check(frozen));
    EXPECT_EQ(SensorVerdict::Ok, live.check(frozen));

    support::CheckpointWriter w;
    live.checkpoint(w);
    SensorGate resumed(model, opt);
    support::CheckpointReader r(w.finish());
    ASSERT_TRUE(resumed.restore(r));

    // The streak must continue (trip on the very next repeat), not
    // restart from zero...
    EXPECT_EQ(SensorVerdict::Frozen, resumed.check(frozen));
    EXPECT_EQ(SensorVerdict::Frozen, live.check(frozen));
    EXPECT_EQ(live.rejected(), resumed.rejected());

    // ...and the jump re-home streak must survive a restore the same
    // way: two of the kJumpRehomePeriods rejections happen before the
    // cut, the re-home lands on schedule after it.
    ASSERT_EQ(3, SensorGate::kJumpRehomePeriods);
    const Vector teleported{40.0, 0.0};
    EXPECT_EQ(SensorVerdict::Jump, live.check(teleported));
    EXPECT_EQ(SensorVerdict::Jump, live.check(teleported));
    support::CheckpointWriter w2;
    live.checkpoint(w2);
    SensorGate resumed2(model, opt);
    support::CheckpointReader r2(w2.finish());
    ASSERT_TRUE(resumed2.restore(r2));
    EXPECT_EQ(live.check(teleported), resumed2.check(teleported));
    // Baseline re-homed: the new location is now plausible.
    EXPECT_EQ(SensorVerdict::Ok, live.check(teleported));
    EXPECT_EQ(SensorVerdict::Ok, resumed2.check(teleported));
    EXPECT_EQ(live.rejected(), resumed2.rejected());
}

// ---------------------------------------------------------------------
// Flight recorder.
// ---------------------------------------------------------------------

TEST(FlightRecorderCheckpoint, PostmortemDumpIsByteStable)
{
    FlightRecorder rec;
    rec.configure(3);
    for (int i = 0; i < 5; ++i) {
        FlightRecord fr;
        fr.period = static_cast<std::uint64_t>(i);
        fr.robot = i % 2;
        fr.status = i == 4 ? SolveStatus::NumericFailure
                           : SolveStatus::Converged;
        fr.rung = i % 3;
        fr.degraded = i == 4;
        fr.state = Vector{0.125 * i, -0.0625 * i};
        fr.command = Vector{0.5 - 0.1 * i};
        rec.push(fr);
    }
    EXPECT_EQ(3, rec.size());
    EXPECT_EQ(5u, rec.totalRecorded());
    EXPECT_EQ(2u, rec.dropped());
    EXPECT_EQ(2u, rec.record(0).period); // Oldest retained.

    const std::string dump = rec.toJson();
    EXPECT_EQ(dump, rec.toJson()); // Rendering is pure.

    FlightRecorder back;
    back.configure(3);
    support::CheckpointWriter w;
    rec.checkpoint(w);
    support::CheckpointReader r(w.finish());
    ASSERT_TRUE(back.restore(r));
    EXPECT_EQ(dump, back.toJson()); // The black box survived intact.

    // A differently-sized ring refuses the payload instead of
    // truncating it silently.
    FlightRecorder wrong;
    wrong.configure(2);
    support::CheckpointReader r2(w.finish());
    EXPECT_FALSE(wrong.restore(r2));
    EXPECT_TRUE(wrong.empty());
}

// ---------------------------------------------------------------------
// Fleet controller.
// ---------------------------------------------------------------------

constexpr std::size_t kFleet = 4;

struct FleetHarness
{
    dsl::ModelSpec model;
    Plant plant;
    std::vector<Vector> truth, meas, refs;

    explicit FleetHarness(const dsl::ModelSpec &m) : model(m), plant(m)
    {
        for (std::size_t i = 0; i < kFleet; ++i) {
            double s = static_cast<double>(i);
            truth.push_back(Vector{0.1 * s, -0.03 * s});
            meas.push_back(Vector{0.0, 0.0});
            refs.push_back(Vector{1.0 + 0.25 * s});
        }
    }

    /** One closed-loop batch; commands that aren't usable hold the
     *  previous actuation (shed robots have stale u0). */
    void stepBatch(BatchController &batch, ChaosEngine *chaos, int b,
                   double dt)
    {
        if (chaos)
            chaos->setBatch(static_cast<std::uint64_t>(b));
        for (std::size_t i = 0; i < kFleet; ++i)
            meas[i].copyFrom(truth[i]);
        const auto &results = batch.solveAll(meas, refs);
        for (std::size_t i = 0; i < kFleet; ++i)
            truth[i] =
                plant.step(truth[i], results[i].u0, refs[i], dt);
    }
};

/** Run `total` closed-loop batches, checkpointing at `cut` into
 *  *blob and *truth_at_cut; returns the final fleet truth. */
std::vector<Vector>
runFleet(const dsl::ModelSpec &model, const MpcOptions &opt,
         std::size_t threads, ChaosEngine *chaos, int total, int cut,
         std::string *blob, std::vector<Vector> *truth_at_cut,
         std::string *metrics)
{
    BatchController batch(model, opt, kFleet, threads);
    if (chaos) {
        batch.setCostHook(chaos->costHook());
        if (chaos->linkImpaired())
            batch.setLinkChaos(chaos);
        batch.setPriority(0, 1.0);
    }
    FleetHarness h(model);
    for (int b = 0; b < total; ++b) {
        if (b == cut && blob) {
            support::CheckpointWriter w;
            batch.checkpoint(w);
            *blob = w.finish();
            *truth_at_cut = h.truth;
        }
        h.stepBatch(batch, chaos, b, opt.dt);
    }
    if (metrics)
        *metrics = batchMetricsJson(batch.report(), false);
    return h.truth;
}

/** Resume from `blob` at batch `cut` with `threads` workers and run to
 *  `total`; returns the final fleet truth. */
std::vector<Vector>
resumeFleet(const dsl::ModelSpec &model, const MpcOptions &opt,
            std::size_t threads, ChaosEngine *chaos, int total, int cut,
            const std::string &blob,
            const std::vector<Vector> &truth_at_cut, std::string *metrics)
{
    BatchController batch(model, opt, kFleet, threads);
    if (chaos) {
        batch.setCostHook(chaos->costHook());
        if (chaos->linkImpaired())
            batch.setLinkChaos(chaos);
        batch.setPriority(0, 1.0);
    }
    support::CheckpointReader r(blob);
    EXPECT_TRUE(batch.restore(r));
    EXPECT_TRUE(r.atEnd());
    FleetHarness h(model);
    h.truth = truth_at_cut;
    for (int b = cut; b < total; ++b)
        h.stepBatch(batch, chaos, b, opt.dt);
    if (metrics)
        *metrics = batchMetricsJson(batch.report(), false);
    return h.truth;
}

void
expectSameFleet(const std::vector<Vector> &a, const std::vector<Vector> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        expectSameBits(a[i], b[i]);
}

TEST(BatchCheckpoint, PlainFleetResumesBitwiseAcrossThreadCounts)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    MpcOptions opt = baseOptions();
    const int total = 12, cut = 5;

    std::string blob, live_metrics, resumed_metrics;
    std::vector<Vector> at_cut;
    auto live = runFleet(model, opt, 4, nullptr, total, cut, &blob,
                         &at_cut, &live_metrics);
    // Checkpoint written at --threads 4, restored at --threads 1: the
    // worker-pool size is explicitly not part of the resumable state.
    auto resumed = resumeFleet(model, opt, 1, nullptr, total, cut, blob,
                               at_cut, &resumed_metrics);
    expectSameFleet(live, resumed);
    EXPECT_EQ(live_metrics, resumed_metrics);
}

TEST(BatchCheckpoint, ChaosStormResumesBitwise)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    MpcOptions opt = baseOptions();
    opt.batchDeadlineSeconds = 1e-3;
    opt.overloadParallelism = 2;
    opt.overloadBackupCostSeconds = 4e-4;
    opt.sensorRangeMargin = 0.5;
    opt.sensorJumpThreshold = 5.0;
    opt.sensorFrozenPeriods = 2;
    opt.flightRecorderCapacity = 16;

    ChaosSpec spec;
    spec.seed = 99;
    spec.stallRate = 0.2;
    spec.stallCostSeconds = 5e-4;
    spec.burstRate = 0.2;
    spec.burstFactor = 3.0;
    spec.poisonRate = 0.05;
    spec.virtualSolveCostSeconds = 2e-3; // Overloaded: ladder engages.
    const int total = 14, cut = 6;

    std::string blob, live_metrics, resumed_metrics;
    std::vector<Vector> at_cut;
    ChaosEngine chaos_a(spec);
    auto live = runFleet(model, opt, 4, &chaos_a, total, cut, &blob,
                         &at_cut, &live_metrics);
    ChaosEngine chaos_b(spec);
    auto resumed = resumeFleet(model, opt, 1, &chaos_b, total, cut, blob,
                               at_cut, &resumed_metrics);
    expectSameFleet(live, resumed);
    EXPECT_EQ(live_metrics, resumed_metrics);
}

TEST(BatchCheckpoint, LossyLinkResumesBitwise)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    MpcOptions opt = baseOptions();
    opt.linkEnabled = true;
    opt.batchDeadlineSeconds = 1e-3;
    opt.overloadParallelism = 2;
    opt.flightRecorderCapacity = 16;

    ChaosSpec spec;
    spec.seed = 7;
    spec.uplinkDropRate = 0.3;
    spec.downlinkDropRate = 0.3;
    spec.uplinkDelayRate = 0.15;
    spec.downlinkDelayRate = 0.15;
    spec.linkDelayPeriodsMax = 2;
    spec.uplinkDupRate = 0.1;
    spec.downlinkDupRate = 0.1;
    spec.linkBlackoutRate = 0.05;
    spec.linkBlackoutBatches = 3;
    spec.virtualSolveCostSeconds = 2e-4;
    const int total = 14, cut = 6;

    std::string blob, live_metrics, resumed_metrics;
    std::vector<Vector> at_cut;
    ChaosEngine chaos_a(spec);
    auto live = runFleet(model, opt, 4, &chaos_a, total, cut, &blob,
                         &at_cut, &live_metrics);
    ChaosEngine chaos_b(spec);
    auto resumed = resumeFleet(model, opt, 1, &chaos_b, total, cut, blob,
                               at_cut, &resumed_metrics);
    expectSameFleet(live, resumed);
    // The link-protocol counters (retransmits, plan misses, seq state)
    // ride in the metrics snapshot: equal bytes mean the protocol
    // state machine resumed mid-flight, not restarted.
    EXPECT_EQ(live_metrics, resumed_metrics);
}

TEST(BatchCheckpoint, RestoreKeepsTheRestoringProcessTimelineSetting)
{
    // Timeline enablement is runtime wiring, not resumable state: a
    // blob written with the timeline on must not switch it back on in
    // a process that turned it off. The recorded spans still resume.
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    MpcOptions opt = baseOptions();
    FleetHarness h(model);
    BatchController live(model, opt, kFleet, 1);
    live.enableTimeline(true);
    for (int b = 0; b < 3; ++b)
        h.stepBatch(live, nullptr, b, opt.dt);
    const std::size_t spans = live.timeline().spans().size();
    ASSERT_GT(spans, 0u);
    support::CheckpointWriter w;
    live.checkpoint(w);
    const std::string blob = w.finish();

    BatchController resumed(model, opt, kFleet, 1);
    resumed.enableTimeline(false);
    support::CheckpointReader r(blob);
    ASSERT_TRUE(resumed.restore(r));
    EXPECT_TRUE(r.atEnd());
    EXPECT_EQ(spans, resumed.timeline().spans().size());
    const std::size_t markers = resumed.timeline().markers().size();
    h.stepBatch(resumed, nullptr, 3, opt.dt);
    EXPECT_EQ(spans, resumed.timeline().spans().size());
    EXPECT_EQ(markers, resumed.timeline().markers().size());
}

TEST(BatchCheckpoint, MismatchedOrCorruptBlobsColdStartCleanly)
{
    dsl::ModelSpec model = dsl::analyzeSource(kDoubleIntegrator);
    MpcOptions opt = baseOptions();
    opt.flightRecorderCapacity = 8;

    BatchController donor(model, opt, kFleet, 2);
    FleetHarness h(model);
    for (int b = 0; b < 3; ++b)
        h.stepBatch(donor, nullptr, b, opt.dt);
    support::CheckpointWriter w;
    donor.checkpoint(w);
    const std::string good = w.finish();

    // Fleet-size skew.
    {
        BatchController smaller(model, opt, kFleet - 1, 2);
        support::CheckpointReader r(good);
        EXPECT_FALSE(smaller.restore(r));
        EXPECT_EQ(0u, smaller.report().batches);
    }
    // Link-config skew.
    {
        MpcOptions link_opt = opt;
        link_opt.linkEnabled = true;
        BatchController linked(model, link_opt, kFleet, 2);
        support::CheckpointReader r(good);
        EXPECT_FALSE(linked.restore(r));
    }
    // Corrupt payload byte.
    BatchController fresh(model, opt, kFleet, 2);
    {
        std::string bad = good;
        bad[bad.size() - 9] ^= 0x20;
        support::CheckpointReader r(bad);
        EXPECT_FALSE(fresh.restore(r));
    }
    // The rejected controller is a clean cold start: report zeroed,
    // recorder empty, and the next batch serves every robot.
    EXPECT_EQ(0u, fresh.report().batches);
    EXPECT_TRUE(fresh.flightRecorder().empty());
    FleetHarness h2(model);
    h2.stepBatch(fresh, nullptr, 0, opt.dt);
    for (std::size_t i = 0; i < kFleet; ++i)
        EXPECT_TRUE(statusUsable(fresh.report().statuses[i]));

    // And the good blob still restores after all that.
    support::CheckpointReader r(good);
    BatchController fine(model, opt, kFleet, 1);
    EXPECT_TRUE(fine.restore(r));
    EXPECT_EQ(donor.report().batches, fine.report().batches);
    EXPECT_EQ(batchMetricsJson(donor.report(), false),
              batchMetricsJson(fine.report(), false));
}

} // namespace
} // namespace robox::mpc
