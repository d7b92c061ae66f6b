/**
 * @file
 * Fault-injection campaign study: upset rate vs closed-loop tracking
 * error and detection latency.
 *
 * Sweeps the single-event-upset rate of a seeded FaultCampaign against
 * the fixed-point double-integrator controller running with the
 * golden-model cross-check enabled. Each campaign poisons the solver's
 * quantized tape environment; the cross-check flags breaching solves
 * NumericDegraded and the failsafe ladder substitutes backup commands.
 * The study reports, per upset rate, how many faults landed, how many
 * solves were condemned, how quickly an upset was detected (control
 * periods from injection to the first NumericDegraded solve), and what
 * the upsets cost in tracking error — as JSON on stdout, so campaign
 * results can be diffed and plotted.
 *
 * A second sweep re-runs every rate with MpcOptions::accelSelfCheck
 * on: upsets are then caught by parity inside the faulted evaluation
 * and retried through the recovery ladder (re-execute, reload,
 * CPU fallback), so those points report detection coverage and the
 * recovery-rung histogram instead of a cross-check latency.
 *
 * Deterministic: the campaign seed is fixed, so two runs emit
 * byte-identical JSON. `--smoke` shrinks the sweep to a ~1 s check
 * that ctest (FaultCampaign.SmokeMatchesGoldenTwice) diffs
 * byte-for-byte against tests/golden/fault_campaign_smoke.json. The
 * per-point metrics render through stats::StatGroup::toJson(), the
 * same schema the overload storm and the batch controller's overload
 * report use.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "accel/faults.hh"
#include "dsl/sema.hh"
#include "fixed/selfcheck.hh"
#include "mpc/failsafe.hh"
#include "mpc/ipm.hh"
#include "mpc/simulate.hh"
#include "mpc/status.hh"
#include "support/stats.hh"

namespace
{

using robox::Vector;
using robox::accel::FaultCampaign;
using robox::accel::FaultInjector;
using robox::mpc::BackupPlan;
using robox::mpc::IpmSolver;
using robox::mpc::Plant;
using robox::mpc::SolveStats;
using robox::mpc::SolveStatus;

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

/** Outcome of one campaign rollout. */
struct CampaignResult
{
    double upsetRate = 0.0;
    std::uint64_t faultsInjected = 0;
    std::uint64_t saturations = 0;
    int degradedSteps = 0;           //!< Backup commands issued.
    int numericDegradedSolves = 0;   //!< Solves condemned by cross-check.
    int faultSteps = 0;              //!< Steps in which faults landed.
    int detectedFaultSteps = 0;      //!< Fault steps later condemned.
    double meanDetectionLatency = 0.0; //!< Control periods to detection.
    double maxTrackingError = 0.0;   //!< Worst |pos - target| after settle.
    double finalTrackingError = 0.0;
};

/**
 * Closed-loop rollout under one campaign, mirroring the failsafe
 * discipline of mpc::simulateClosedLoop: usable solves refresh the
 * backup plan, condemned solves are replaced by its shifted tail.
 */
CampaignResult
runCampaign(const robox::dsl::ModelSpec &model,
            const robox::mpc::MpcOptions &opt, double upset_rate,
            std::uint64_t seed, int steps)
{
    FaultCampaign campaign;
    campaign.seed = seed;
    campaign.upsetRate = upset_rate;
    FaultInjector injector(campaign);

    IpmSolver solver(model, opt);
    solver.setTapeFaultHook(injector.tapeHook());
    BackupPlan backup(model);
    Plant plant(model);
    const Vector ref{1.0};
    Vector x{0.0, 0.0};

    CampaignResult result;
    result.upsetRate = upset_rate;
    // Fault steps awaiting their first NumericDegraded detection.
    std::vector<int> pending;
    long detection_periods = 0;
    const int settle = steps / 3; // Tracking error ignores the approach.

    for (int step = 0; step < steps; ++step) {
        IpmSolver::Result r = solver.solve(x, ref);
        const SolveStats &stats = solver.lastStats();
        result.saturations += stats.numeric.saturations;
        if (stats.numeric.faultsInjected > 0) {
            ++result.faultSteps;
            pending.push_back(step);
        }
        if (r.status == SolveStatus::NumericDegraded) {
            ++result.numericDegradedSolves;
            for (int fault_step : pending) {
                detection_periods += step - fault_step;
                ++result.detectedFaultSteps;
            }
            pending.clear();
        }

        if (!backup.settle(r, solver))
            ++result.degradedSteps;
        x = plant.step(x, r.u0, ref, opt.dt);
        if (step >= settle)
            result.maxTrackingError = std::max(result.maxTrackingError,
                                               std::abs(x[0] - ref[0]));
    }
    result.faultsInjected = injector.faultsInjected();
    result.finalTrackingError = std::abs(x[0] - ref[0]);
    result.meanDetectionLatency =
        result.detectedFaultSteps > 0
            ? static_cast<double>(detection_periods) /
                  result.detectedFaultSteps
            : 0.0;
    return result;
}

/** Outcome of one rollout with the self-checking ladder armed. */
struct SelfCheckResult
{
    double upsetRate = 0.0;
    std::uint64_t faultsInjected = 0;
    robox::SelfCheckStats selfCheck; //!< Summed across all solves.
    int accelFaultSolves = 0;  //!< Solves condemned on the CPU rung.
    int degradedSteps = 0;     //!< Backup commands issued.
    double detectionCoverage = 1.0; //!< Detected / injected upsets.
    double maxTrackingError = 0.0;
    double finalTrackingError = 0.0;
};

/**
 * The same closed-loop rollout with MpcOptions::accelSelfCheck on: an
 * upset is now caught by parity inside the faulted evaluation (instead
 * of periods later by the cross-check) and retried through the
 * recovery ladder, so the sweep reports detection coverage and the
 * recovery-rung histogram rather than a detection latency.
 */
SelfCheckResult
runSelfCheckCampaign(const robox::dsl::ModelSpec &model,
                     const robox::mpc::MpcOptions &base,
                     double upset_rate, std::uint64_t seed, int steps)
{
    FaultCampaign campaign;
    campaign.seed = seed;
    campaign.upsetRate = upset_rate;
    FaultInjector injector(campaign);

    robox::mpc::MpcOptions opt = base;
    opt.accelSelfCheck = true;
    IpmSolver solver(model, opt);
    solver.setTapeFaultHook(injector.tapeHook());
    BackupPlan backup(model);
    Plant plant(model);
    const Vector ref{1.0};
    Vector x{0.0, 0.0};

    SelfCheckResult result;
    result.upsetRate = upset_rate;
    const int settle = steps / 3;

    for (int step = 0; step < steps; ++step) {
        IpmSolver::Result r = solver.solve(x, ref);
        result.selfCheck.merge(solver.lastStats().numeric.selfCheck);
        if (r.status == SolveStatus::AccelFault)
            ++result.accelFaultSolves;

        if (!backup.settle(r, solver))
            ++result.degradedSteps;
        x = plant.step(x, r.u0, ref, opt.dt);
        if (step >= settle)
            result.maxTrackingError = std::max(result.maxTrackingError,
                                               std::abs(x[0] - ref[0]));
    }
    result.faultsInjected = injector.faultsInjected();
    result.finalTrackingError = std::abs(x[0] - ref[0]);
    if (result.faultsInjected > 0)
        result.detectionCoverage =
            static_cast<double>(result.selfCheck.parityErrors) /
            static_cast<double>(result.faultsInjected);
    return result;
}

/** One sweep point in the uniform StatGroup::toJson() schema. */
std::string
campaignPointJson(const CampaignResult &r)
{
    using robox::stats::Scalar;
    using robox::stats::StatGroup;

    auto scalar = [](const char *name, const char *desc, double v) {
        Scalar s(name, desc);
        s.set(v);
        return s;
    };
    std::vector<Scalar> scalars;
    scalars.reserve(10);
    scalars.push_back(scalar("upsetRate", "per-access upset probability",
                             r.upsetRate));
    scalars.push_back(scalar("faultsInjected", "bit flips landed",
                             static_cast<double>(r.faultsInjected)));
    scalars.push_back(scalar("saturations", "fixed-point saturations",
                             static_cast<double>(r.saturations)));
    scalars.push_back(scalar("faultSteps", "steps in which faults landed",
                             r.faultSteps));
    scalars.push_back(scalar("numericDegradedSolves",
                             "solves condemned by the cross-check",
                             r.numericDegradedSolves));
    scalars.push_back(scalar("degradedSteps", "backup commands issued",
                             r.degradedSteps));
    scalars.push_back(scalar("detectedFaultSteps",
                             "fault steps later condemned",
                             r.detectedFaultSteps));
    scalars.push_back(scalar("meanDetectionLatency",
                             "control periods to detection",
                             r.meanDetectionLatency));
    scalars.push_back(scalar("maxTrackingError",
                             "worst post-settle tracking error",
                             r.maxTrackingError));
    scalars.push_back(scalar("finalTrackingError",
                             "tracking error at the last step",
                             r.finalTrackingError));

    StatGroup group("campaign");
    for (Scalar &s : scalars)
        group.add(&s);
    return group.toJson();
}

/** One self-check sweep point in the same schema. */
std::string
selfCheckPointJson(const SelfCheckResult &r)
{
    using robox::stats::Scalar;
    using robox::stats::StatGroup;

    auto scalar = [](const char *name, const char *desc, double v) {
        Scalar s(name, desc);
        s.set(v);
        return s;
    };
    auto count = [&](const char *name, const char *desc,
                     std::uint64_t v) {
        return scalar(name, desc, static_cast<double>(v));
    };
    const robox::SelfCheckStats &sc = r.selfCheck;
    std::vector<Scalar> scalars;
    scalars.reserve(13);
    scalars.push_back(scalar("upsetRate", "per-access upset probability",
                             r.upsetRate));
    scalars.push_back(count("faultsInjected", "bit flips landed",
                            r.faultsInjected));
    scalars.push_back(count("parityChecks", "words parity-verified",
                            sc.parityChecks));
    scalars.push_back(count("parityErrors", "upsets caught by parity",
                            sc.parityErrors));
    scalars.push_back(scalar("detectionCoverage",
                             "detected fraction of injected upsets",
                             r.detectionCoverage));
    scalars.push_back(count("reexecutions",
                            "recovery rung-1 re-executions",
                            sc.reexecutions));
    scalars.push_back(count("reloads", "recovery rung-2 image reloads",
                            sc.reloads));
    scalars.push_back(count("cpuFallbacks",
                            "recovery rung-3 CPU fallbacks",
                            sc.cpuFallbacks));
    scalars.push_back(scalar("accelFaultSolves",
                             "solves condemned as AccelFault",
                             r.accelFaultSolves));
    scalars.push_back(scalar("degradedSteps", "backup commands issued",
                             r.degradedSteps));
    scalars.push_back(scalar("maxTrackingError",
                             "worst post-settle tracking error",
                             r.maxTrackingError));
    scalars.push_back(scalar("finalTrackingError",
                             "tracking error at the last step",
                             r.finalTrackingError));

    StatGroup group("selfcheck");
    for (Scalar &s : scalars)
        group.add(&s);
    return group.toJson();
}

void
printJson(const std::vector<CampaignResult> &sweep,
          const std::vector<SelfCheckResult> &selfcheck,
          std::uint64_t seed, int steps)
{
    std::ostringstream os;
    os << "{\n\"benchmark\": \"fault_campaign\",\n"
       << "\"model\": \"DoubleIntegrator\",\n"
       << "\"seed\": " << seed << ",\n"
       << "\"steps\": " << steps << ",\n"
       << "\"sweep\": [\n";
    for (std::size_t i = 0; i < sweep.size(); ++i)
        os << campaignPointJson(sweep[i])
           << (i + 1 < sweep.size() ? ",\n" : "\n");
    os << "],\n\"selfcheckSweep\": [\n";
    for (std::size_t i = 0; i < selfcheck.size(); ++i)
        os << selfCheckPointJson(selfcheck[i])
           << (i + 1 < selfcheck.size() ? ",\n" : "\n");
    os << "]\n}\n";
    std::fputs(os.str().c_str(), stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else {
            std::fprintf(stderr, "usage: fault_campaign [--smoke]\n");
            return 2;
        }
    }

    robox::dsl::ModelSpec model =
        robox::dsl::analyzeSource(kDoubleIntegrator);
    robox::mpc::MpcOptions opt;
    opt.horizon = 12;
    opt.dt = 0.1;
    opt.fixedPointTapes = true;
    opt.crossCheckFixedPoint = true;

    constexpr std::uint64_t kSeed = 20260806;
    const int steps = smoke ? 30 : 150;
    // One solve makes ~15k faultable word accesses, so rates above
    // ~1e-4 condemn essentially every solve; the interesting gradient
    // (occasional upsets, some below detection threshold) lives lower.
    const std::vector<double> rates =
        smoke ? std::vector<double>{0.0, 3e-5}
              : std::vector<double>{0.0,  1e-6, 3e-6, 1e-5,
                                    3e-5, 1e-4, 1e-3};

    std::vector<CampaignResult> sweep;
    std::vector<SelfCheckResult> selfcheck;
    for (double rate : rates) {
        sweep.push_back(runCampaign(model, opt, rate, kSeed, steps));
        selfcheck.push_back(
            runSelfCheckCampaign(model, opt, rate, kSeed, steps));
    }
    printJson(sweep, selfcheck, kSeed, steps);

    // A campaign that landed faults but never tripped the cross-check
    // (or destabilized tracking without detection) would make the
    // smoke run useless as a regression signal; fail loudly instead.
    const CampaignResult &clean = sweep.front();
    if (clean.faultsInjected != 0 || clean.degradedSteps != 0) {
        std::fprintf(stderr,
                     "fault_campaign: zero-rate campaign was not clean\n");
        return 1;
    }
    const CampaignResult &worst = sweep.back();
    if (worst.faultsInjected == 0) {
        std::fprintf(stderr,
                     "fault_campaign: max-rate campaign injected "
                     "no faults\n");
        return 1;
    }
    if (!std::isfinite(worst.finalTrackingError)) {
        std::fprintf(stderr,
                     "fault_campaign: closed loop went non-finite\n");
        return 1;
    }

    // The self-checking sweep has its own contract: the zero-rate
    // point must be untouched by the detectors, and at the highest
    // rate at least 95% of injected upsets must be caught on-line
    // (each strike flips one bit of a word the parity pass verifies,
    // so anything below that is a detection-layer regression).
    const SelfCheckResult &sc_clean = selfcheck.front();
    if (sc_clean.faultsInjected != 0 ||
        sc_clean.selfCheck.parityErrors != 0 ||
        sc_clean.accelFaultSolves != 0) {
        std::fprintf(stderr,
                     "fault_campaign: zero-rate self-check campaign "
                     "was not clean\n");
        return 1;
    }
    const SelfCheckResult &sc_worst = selfcheck.back();
    if (sc_worst.faultsInjected == 0 ||
        sc_worst.detectionCoverage < 0.95) {
        std::fprintf(stderr,
                     "fault_campaign: self-check detection coverage "
                     "%.3f below 0.95\n",
                     sc_worst.detectionCoverage);
        return 1;
    }
    if (!std::isfinite(sc_worst.finalTrackingError)) {
        std::fprintf(stderr,
                     "fault_campaign: self-checked loop went "
                     "non-finite\n");
        return 1;
    }
    return 0;
}
