/**
 * @file
 * Implementation of the live-upgrade rollout state machine.
 */

#include "mpc/upgrade.hh"

#include <algorithm>
#include <cmath>
#include <string>

#include "compiler/binary.hh"

namespace robox::mpc
{

namespace
{

/** Divergence warn band: an absolute per-component difference between
 *  the incumbent's and the candidate's first commands beyond which a
 *  comparison counts as a warning. */
constexpr double kDivergenceWarnAbs = 1e-2;

/** Fault-rate guard: the candidate fails when its bad-solve rate over
 *  the phase exceeds the incumbent's by more than this margin. */
constexpr double kFaultRateMargin = 0.10;

/** splitmix64 finalizer — same permutation as mpc/chaos.cc, so canary
 *  selection inherits its statistical quality and portability. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Top 53 bits -> uniform double in [0, 1); exact and portable. */
double
uniform(std::uint64_t h)
{
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

constexpr std::uint64_t kCanarySalt = 0x9c4a1e8f52d7b306ull;

/** Canary-selection draw for one robot under one seed. */
double
canaryDraw(std::uint64_t seed, std::size_t robot)
{
    std::uint64_t h = mix64(seed ^ kCanarySalt);
    h = mix64(h ^ static_cast<std::uint64_t>(robot));
    return uniform(h);
}

/** A solve outcome the fault-rate guard counts against its version. */
bool
statusBad(SolveStatus status)
{
    return !statusUsable(status) ||
           status == SolveStatus::NumericDegraded ||
           status == SolveStatus::AccelFault;
}

} // namespace

const char *
toString(UpgradePhase phase)
{
    switch (phase) {
      case UpgradePhase::Idle: return "idle";
      case UpgradePhase::Shadow: return "shadow";
      case UpgradePhase::Canary: return "canary";
      case UpgradePhase::Committed: return "committed";
      case UpgradePhase::RolledBack: return "rolled-back";
      case UpgradePhase::Rejected: return "rejected";
    }
    return "?";
}

const char *
toString(UpgradeScheduleStatus status)
{
    switch (status) {
      case UpgradeScheduleStatus::Scheduled: return "scheduled";
      case UpgradeScheduleStatus::BadImage: return "bad-image";
      case UpgradeScheduleStatus::Incompatible: return "incompatible";
      case UpgradeScheduleStatus::Busy: return "busy";
    }
    return "?";
}

UpgradeManager::UpgradeManager(const MpcOptions &incumbent_options,
                               std::size_t num_robots)
    : options_(incumbent_options), num_robots_(num_robots)
{
    serving_.assign(num_robots_, 0);
    canary_.assign(num_robots_, 0);
    scratch_.assign(num_robots_, PairSample());
}

bool
UpgradeManager::buildSolvers(const UpgradeCandidate &candidate,
                             std::size_t num_robots)
{
    // Solver construction from a structurally valid ModelSpec does
    // not throw, but the candidate arrives from a deployment pipeline
    // — treat any surprise as an incompatibility, never as a reason
    // to take down the serving process.
    try {
        std::vector<std::unique_ptr<IpmSolver>> solvers;
        solvers.reserve(num_robots);
        for (std::size_t i = 0; i < num_robots; ++i)
            solvers.push_back(std::make_unique<IpmSolver>(
                candidate.model, candidate.options));
        candidate_solvers_ = std::move(solvers);
        return true;
    } catch (...) {
        return false;
    }
}

UpgradeScheduleStatus
UpgradeManager::schedule(const UpgradeCandidate &candidate,
                         const MpcProblem &incumbent)
{
    if (phase_ == UpgradePhase::Shadow ||
        phase_ == UpgradePhase::Canary ||
        phase_ == UpgradePhase::Committed) {
        // One rollout at a time, and a committed candidate stays the
        // serving version for the controller's lifetime — chaining
        // upgrades is a redeploy.
        report_.phase = static_cast<std::uint8_t>(phase_);
        return UpgradeScheduleStatus::Busy;
    }
    ++report_.scheduled;

    // Gate 0: the compiled image is the untrusted artifact — verify
    // its header and CRC-32 before anything else touches the
    // candidate. An empty image fails as Truncated.
    if (compiler::verifyImage(candidate.image) !=
        compiler::ImageStatus::Ok) {
        ++report_.rejectedImages;
        report_.phase = static_cast<std::uint8_t>(phase_);
        return UpgradeScheduleStatus::BadImage;
    }

    if (!buildSolvers(candidate, num_robots_)) {
        ++report_.rejectedIncompatible;
        report_.phase = static_cast<std::uint8_t>(phase_);
        return UpgradeScheduleStatus::Incompatible;
    }
    // Shape gate: the live-upgrade contract swaps the controller, not
    // the plant interface. nx/nu/nref/horizon must all match so the
    // incumbent's backup plans, gates, and checkpoints stay valid.
    const MpcProblem &cand = candidate_solvers_[0]->problem();
    if (cand.nx() != incumbent.nx() || cand.nu() != incumbent.nu() ||
        cand.nref() != incumbent.nref() ||
        cand.horizon() != incumbent.horizon()) {
        dropCandidateSolvers();
        ++report_.rejectedIncompatible;
        report_.phase = static_cast<std::uint8_t>(phase_);
        return UpgradeScheduleStatus::Incompatible;
    }

    candidate_ = candidate;
    startShadow();
    return UpgradeScheduleStatus::Scheduled;
}

void
UpgradeManager::startShadow()
{
    phase_ = UpgradePhase::Shadow;
    phase_periods_ = 0;
    std::fill(serving_.begin(), serving_.end(), 0);
    std::fill(canary_.begin(), canary_.end(), 0);
    incumbent_solves_ = 0;
    incumbent_bad_ = 0;
    candidate_solves_ = 0;
    candidate_bad_ = 0;
    report_.incumbentCostEwma = 0.0;
    report_.candidateCostEwma = 0.0;
    report_.canaryRobots = 0;
    report_.phase = static_cast<std::uint8_t>(phase_);
    clearScratch();
    queueMarker(TimelineMarker::UpgradeShadowStart, 0);
}

void
UpgradeManager::startCanary()
{
    phase_ = UpgradePhase::Canary;
    phase_periods_ = 0;
    // Fresh fault-rate baseline for the phase; the cost EWMAs carry
    // over — they track the same fleet, just with the canary robots'
    // samples now coming from serving solves.
    incumbent_solves_ = 0;
    incumbent_bad_ = 0;
    candidate_solves_ = 0;
    candidate_bad_ = 0;

    const double fraction =
        std::clamp(options_.upgradeCanaryFraction, 0.0, 1.0);
    std::size_t selected = 0;
    std::size_t argmin = 0;
    double best = 2.0;
    for (std::size_t i = 0; i < num_robots_; ++i) {
        const double u = canaryDraw(options_.upgradeSeed, i);
        if (u < best) {
            best = u;
            argmin = i;
        }
        if (u < fraction) {
            canary_[i] = 1;
            ++selected;
        }
    }
    // A canary phase with zero canaries validates nothing: always
    // switch at least the robot with the smallest draw.
    if (selected == 0) {
        canary_[argmin] = 1;
        selected = 1;
    }
    report_.canaryRobots = selected;
    report_.phase = static_cast<std::uint8_t>(phase_);
    queueMarker(TimelineMarker::UpgradeCanaryStart, 0);
    for (std::size_t i = 0; i < num_robots_; ++i) {
        if (canary_[i]) {
            serving_[i] = 1;
            queueMarker(TimelineMarker::CanarySwitched,
                        static_cast<std::uint32_t>(i));
        }
    }
}

void
UpgradeManager::commit()
{
    phase_ = UpgradePhase::Committed;
    phase_periods_ = 0;
    std::fill(serving_.begin(), serving_.end(), 1);
    ++report_.committed;
    report_.version = 2;
    report_.phase = static_cast<std::uint8_t>(phase_);
    queueMarker(TimelineMarker::UpgradeCommitted, 0);
}

void
UpgradeManager::failCandidate(std::uint64_t UpgradeReport::*reason)
{
    ++(report_.*reason);
    if (phase_ == UpgradePhase::Shadow) {
        ++report_.rejectedCandidates;
        phase_ = UpgradePhase::Rejected;
        queueMarker(TimelineMarker::UpgradeRejected, 0);
    } else {
        ++report_.rolledBack;
        phase_ = UpgradePhase::RolledBack;
        queueMarker(TimelineMarker::UpgradeRolledBack, 0);
    }
    // The incumbent shadow-solved every canary robot each period, so
    // its warm starts and the shared backup-plan tails are current:
    // flipping serving_ back is all a rollback takes — no robot
    // misses a command.
    std::fill(serving_.begin(), serving_.end(), 0);
    std::fill(canary_.begin(), canary_.end(), 0);
    report_.phase = static_cast<std::uint8_t>(phase_);
    dropCandidateSolvers();
}

void
UpgradeManager::abortToIncumbent()
{
    if (phase_ != UpgradePhase::Shadow && phase_ != UpgradePhase::Canary)
        return;
    if (phase_ == UpgradePhase::Shadow) {
        ++report_.rejectedCandidates;
        phase_ = UpgradePhase::Rejected;
        queueMarker(TimelineMarker::UpgradeRejected, 0);
    } else {
        ++report_.rolledBack;
        phase_ = UpgradePhase::RolledBack;
        queueMarker(TimelineMarker::UpgradeRolledBack, 0);
    }
    std::fill(serving_.begin(), serving_.end(), 0);
    std::fill(canary_.begin(), canary_.end(), 0);
    report_.phase = static_cast<std::uint8_t>(phase_);
    dropCandidateSolvers();
}

void
UpgradeManager::dropCandidateSolvers()
{
    candidate_solvers_.clear();
}

void
UpgradeManager::clearScratch()
{
    std::fill(scratch_.begin(), scratch_.end(), PairSample());
}

void
UpgradeManager::queueMarker(TimelineMarker kind, std::uint32_t robot)
{
    pending_markers_.push_back(PendingMarker{kind, robot});
}

void
UpgradeManager::recordPair(std::size_t i,
                           const IpmSolver::Result &serving,
                           double serving_seconds,
                           const IpmSolver::Result *shadow,
                           double shadow_seconds)
{
    PairSample &s = scratch_[i];
    s.hasPair = 1;
    s.servingSeconds = serving_seconds;
    s.shadowSeconds = shadow_seconds;
    const bool serving_is_candidate = serving_[i] != 0;
    const bool serving_bad = statusBad(serving.status);
    const bool shadow_bad = !shadow || statusBad(shadow->status);
    s.servingBad = serving_bad ? 1 : 0;
    s.shadowBad = shadow_bad ? 1 : 0;

    // Divergence is only meaningful between two usable commands; a
    // version that failed to produce one is charged through the
    // fault-rate guard instead.
    if (!shadow || !statusUsable(serving.status) ||
        !statusUsable(shadow->status))
        return;
    const Vector &inc = serving_is_candidate ? shadow->u0 : serving.u0;
    const Vector &cand = serving_is_candidate ? serving.u0 : shadow->u0;
    const std::size_t n = std::min(inc.size(), cand.size());
    for (std::size_t j = 0; j < n; ++j) {
        const double diff = std::abs(cand[j] - inc[j]);
        if (!(diff >= 0.0))
            continue; // NaN-poisoned comparison; statuses catch it.
        s.maxAbs = std::max(s.maxAbs, diff);
        if (diff > kDivergenceWarnAbs)
            ++s.warns;
        // Cross-check-style conjunction: absolute AND relative, so
        // large-magnitude commands do not trip on honest rounding.
        if (diff > options_.upgradeFailAbs &&
            diff > options_.upgradeFailRel * std::abs(inc[j]))
            ++s.fails;
    }
}

void
UpgradeManager::finishPeriod(const std::vector<double> &batch_cost,
                             bool hooked)
{
    if (!doubleSolve()) {
        clearScratch();
        return;
    }
    ++phase_periods_;

    const double alpha = kCostEwmaAlpha;
    const double scale = candidate_.modeledCostScale > 0.0
                             ? candidate_.modeledCostScale
                             : 1.0;
    std::uint64_t period_fails = 0;
    for (std::size_t i = 0; i < num_robots_; ++i) {
        const PairSample &s = scratch_[i];
        if (!s.hasPair)
            continue;
        ++report_.shadowSolves;
        report_.divergenceWarns += s.warns;
        report_.divergenceFails += s.fails;
        period_fails += s.fails;
        report_.maxDivergence =
            std::max(report_.maxDivergence, s.maxAbs);

        const bool serving_is_candidate = serving_[i] != 0;
        // Modeled per-version costs. Under a hook the serving cost is
        // the controller's batch_cost (already hook-mapped and, for a
        // candidate robot, scale-multiplied); the other version's is
        // derived through modeledCostScale so the hook is never
        // invoked an extra time. Without a hook, measured wall
        // seconds of each solver are used directly.
        double inc_cost;
        double cand_cost;
        if (hooked) {
            const double base = batch_cost[i];
            if (serving_is_candidate) {
                cand_cost = base;
                inc_cost = base / scale;
            } else {
                inc_cost = base;
                cand_cost = base * scale;
            }
        } else {
            inc_cost = serving_is_candidate ? s.shadowSeconds
                                            : s.servingSeconds;
            cand_cost = serving_is_candidate ? s.servingSeconds
                                             : s.shadowSeconds;
        }
        if (inc_cost >= 0.0 && std::isfinite(inc_cost))
            report_.incumbentCostEwma =
                report_.incumbentCostEwma <= 0.0
                    ? inc_cost
                    : (1.0 - alpha) * report_.incumbentCostEwma +
                          alpha * inc_cost;
        if (cand_cost >= 0.0 && std::isfinite(cand_cost))
            report_.candidateCostEwma =
                report_.candidateCostEwma <= 0.0
                    ? cand_cost
                    : (1.0 - alpha) * report_.candidateCostEwma +
                          alpha * cand_cost;

        const bool inc_bad =
            serving_is_candidate ? s.shadowBad : s.servingBad;
        const bool cand_bad =
            serving_is_candidate ? s.servingBad : s.shadowBad;
        ++incumbent_solves_;
        ++candidate_solves_;
        incumbent_bad_ += inc_bad ? 1 : 0;
        candidate_bad_ += cand_bad ? 1 : 0;
    }
    clearScratch();

    // Guards, most specific first. Divergence: any component past the
    // fail band this period means the candidate computes materially
    // different commands than the incumbent for the same inputs.
    if (period_fails > 0) {
        failCandidate(&UpgradeReport::rollbackDivergence);
        return;
    }
    // Fault-rate regression, once each version has at least a
    // fleet-sized sample in this phase.
    if (candidate_solves_ >= num_robots_ &&
        incumbent_solves_ >= num_robots_) {
        const double cand_rate =
            static_cast<double>(candidate_bad_) /
            static_cast<double>(candidate_solves_);
        const double inc_rate =
            static_cast<double>(incumbent_bad_) /
            static_cast<double>(incumbent_solves_);
        if (cand_rate > inc_rate + kFaultRateMargin) {
            failCandidate(&UpgradeReport::rollbackFaultRate);
            return;
        }
    }
    // Latency budget: the candidate costs more than the allowed
    // multiple of the incumbent, both models warm. Armed only in
    // Canary, where the candidate's cost reaches serving; in Shadow its
    // solves run outside the admission budget.
    if (phase_ == UpgradePhase::Canary && phase_periods_ >= 2 &&
        report_.incumbentCostEwma > 0.0 &&
        options_.upgradeMaxCostRatio > 0.0 &&
        report_.candidateCostEwma >
            options_.upgradeMaxCostRatio * report_.incumbentCostEwma) {
        failCandidate(&UpgradeReport::rollbackLatency);
        return;
    }

    if (phase_ == UpgradePhase::Shadow &&
        phase_periods_ >=
            static_cast<std::uint64_t>(
                std::max(1, options_.upgradeShadowPeriods)))
        startCanary();
    else if (phase_ == UpgradePhase::Canary &&
             phase_periods_ >=
                 static_cast<std::uint64_t>(
                     std::max(1, options_.upgradeCanaryPeriods)))
        commit();
}

void
UpgradeManager::resetSolvers()
{
    for (auto &s : candidate_solvers_)
        s->reset();
}

template <class Io, class Self>
bool
UpgradeManager::transfer(Io &io, Self &self)
{
    using support::enumField;
    auto &rp = self.report_;
    if (!enumField<std::uint8_t>(io, self.phase_, UpgradePhase::Rejected) ||
        !field(io, self.phase_periods_) || !field(io, rp.version) ||
        !field(io, rp.scheduled) || !field(io, rp.rejectedImages) ||
        !field(io, rp.rejectedIncompatible) || !field(io, rp.committed) ||
        !field(io, rp.rolledBack) || !field(io, rp.rejectedCandidates) ||
        !field(io, rp.shadowSolves) || !field(io, rp.canaryRobots) ||
        !field(io, rp.divergenceWarns) || !field(io, rp.divergenceFails) ||
        !field(io, rp.maxDivergence) || !field(io, rp.incumbentCostEwma) ||
        !field(io, rp.candidateCostEwma) ||
        !field(io, rp.rollbackDivergence) ||
        !field(io, rp.rollbackFaultRate) || !field(io, rp.rollbackLatency) ||
        !field(io, self.incumbent_solves_) || !field(io, self.incumbent_bad_) ||
        !field(io, self.candidate_solves_) || !field(io, self.candidate_bad_))
        return false;
    for (auto *flags : {&self.serving_, &self.canary_})
        for (auto &v : *flags)
            if (!field(io, v) || v > 1)
                return false;
    auto marker = [](auto &io, auto &m) {
        return enumField<std::uint8_t>(io, m.kind,
                                       TimelineMarker::CanarySwitched) &&
               field(io, m.robot);
    };
    return support::listField(io, self.pending_markers_, marker,
                              16 * self.num_robots_ + 16);
}

void
UpgradeManager::checkpoint(support::CheckpointWriter &w) const
{
    transfer(w, *this);
    const bool has_solvers = !candidate_solvers_.empty();
    w.boolean(has_solvers);
    if (!has_solvers)
        return;
    // Candidate identity — enough to refuse a restore against the
    // wrong candidate. The solvers themselves are rebuilt from the
    // re-supplied UpgradeCandidate, then restored below.
    std::string image(candidate_.image.begin(), candidate_.image.end());
    w.str(image);
    const MpcProblem &p = candidate_solvers_[0]->problem();
    w.i32(p.nx());
    w.i32(p.nu());
    w.i32(p.nref());
    w.i32(p.horizon());
    w.f64(candidate_.modeledCostScale);
    for (const auto &s : candidate_solvers_)
        s->checkpoint(w);
}

bool
UpgradeManager::restore(support::CheckpointReader &r,
                        const UpgradeCandidate *candidate)
{
    if (!transfer(r, *this))
        return false;
    report_.phase = static_cast<std::uint8_t>(phase_);

    bool has_solvers = false;
    if (!r.boolean(&has_solvers))
        return false;
    if (!has_solvers) {
        dropCandidateSolvers();
        return true;
    }
    std::string image;
    std::int32_t nx = 0;
    std::int32_t nu = 0;
    std::int32_t nref = 0;
    std::int32_t horizon = 0;
    double cost_scale = 0.0;
    if (!r.str(&image) || !r.i32(&nx) || !r.i32(&nu) ||
        !r.i32(&nref) || !r.i32(&horizon) || !r.f64(&cost_scale))
        return false;
    if (!candidate)
        return false;
    const std::string supplied(candidate->image.begin(),
                               candidate->image.end());
    if (supplied != image ||
        candidate->modeledCostScale != cost_scale)
        return false;
    if (!buildSolvers(*candidate, num_robots_))
        return false;
    const MpcProblem &p = candidate_solvers_[0]->problem();
    if (p.nx() != nx || p.nu() != nu || p.nref() != nref ||
        p.horizon() != horizon) {
        dropCandidateSolvers();
        return false;
    }
    candidate_ = *candidate;
    for (auto &s : candidate_solvers_)
        if (!s->restore(r)) {
            dropCandidateSolvers();
            return false;
        }
    return true;
}

} // namespace robox::mpc
