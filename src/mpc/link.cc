/**
 * @file
 * Implementation of the deterministic lossy link layer.
 */

#include "mpc/link.hh"

#include <algorithm>
#include <cmath>

#include "mpc/checkpoint_io.hh"
#include "support/logging.hh"

namespace robox::mpc
{

const char *
toString(FleetLink::Service service)
{
    switch (service) {
      case FleetLink::Service::Fresh: return "fresh";
      case FleetLink::Service::Extrapolated: return "extrapolated";
      case FleetLink::Service::Stale: return "stale";
      case FleetLink::Service::Down: return "down";
    }
    return "unknown";
}

FleetLink::FleetLink(const dsl::ModelSpec &model,
                     const MpcOptions &options, std::size_t num_robots)
    : model_(&model), options_(options), plant_(model)
{
    robox_assert(num_robots > 0);
    endpoints_.resize(num_robots);
    buffers_.reserve(num_robots);
    for (std::size_t i = 0; i < num_robots; ++i)
        buffers_.emplace_back(model);
    served_.resize(num_robots);
    exec_.resize(num_robots);
    service_.assign(num_robots, Service::Fresh);
    down_.assign(num_robots, 0);
    fresh_exec_.assign(num_robots, 0);
    extrapolated_.assign(num_robots, 0);
    stale_demoted_.assign(num_robots, 0);
    plan_missed_.assign(num_robots, 0);
    went_down_.assign(num_robots, 0);
    came_up_.assign(num_robots, 0);
}

void
FleetLink::transmitUplink(std::size_t i, const Vector &state)
{
    Endpoint &e = endpoints_[i];
    const std::uint64_t ack = e.bufferedSeq;
    // A transmission attempt per nonce: the primary is nonce 0, a
    // duplicate copy nonce 1. Each attempt draws its own drop and
    // delay decisions, so a duplicate can survive a dropped primary
    // (the recovery that makes duplication worth modeling).
    auto attempt = [&](std::uint64_t nonce) {
        ++totals_.uplinkSent;
        if (chaos_ && chaos_->linkDropAt(LinkDirection::Uplink, period_,
                                         i, nonce)) {
            ++totals_.uplinkDropped;
            return;
        }
        const int delay =
            chaos_ ? chaos_->linkDelayAt(LinkDirection::Uplink, period_,
                                         i, nonce)
                   : 0;
        UplinkMsg msg;
        msg.seq = period_;
        msg.sent = period_;
        msg.deliverAt = period_ + static_cast<std::uint64_t>(delay);
        msg.ackSeq = ack;
        msg.duplicate = nonce != 0;
        msg.state = state;
        e.uplinkQueue.push_back(std::move(msg));
    };
    attempt(0);
    if (chaos_ &&
        chaos_->linkDupAt(LinkDirection::Uplink, period_, i, 0)) {
        ++totals_.uplinkDuplicates;
        attempt(1);
    }
}

void
FleetLink::transmitDownlink(std::size_t i, std::uint64_t seq,
                            const std::vector<Vector> &plan)
{
    Endpoint &e = endpoints_[i];
    auto attempt = [&](std::uint64_t nonce) {
        ++totals_.downlinkSent;
        if (chaos_ && chaos_->linkDropAt(LinkDirection::Downlink,
                                         period_, i, nonce)) {
            ++totals_.downlinkDropped;
            return;
        }
        const int delay =
            chaos_ ? chaos_->linkDelayAt(LinkDirection::Downlink,
                                         period_, i, nonce)
                   : 0;
        DownlinkMsg msg;
        msg.seq = seq;
        msg.sent = period_;
        msg.deliverAt = period_ + static_cast<std::uint64_t>(delay);
        msg.duplicate = nonce != 0;
        msg.plan = plan;
        e.downlinkQueue.push_back(std::move(msg));
    };
    attempt(0);
    if (chaos_ &&
        chaos_->linkDupAt(LinkDirection::Downlink, period_, i, 0)) {
        ++totals_.downlinkDuplicates;
        attempt(1);
    }
}

void
FleetLink::drainUplinks(std::size_t i)
{
    Endpoint &e = endpoints_[i];
    // Partition out this period's deliveries, keeping the queue order
    // for the rest. Delivery order is (deliverAt, seq, duplicate) —
    // fully determined by the message identities, never by timing.
    std::vector<UplinkMsg> due;
    std::size_t keep = 0;
    for (std::size_t k = 0; k < e.uplinkQueue.size(); ++k) {
        if (e.uplinkQueue[k].deliverAt <= period_) {
            due.push_back(std::move(e.uplinkQueue[k]));
        } else {
            if (keep != k) // Self-move would clear the payload.
                e.uplinkQueue[keep] = std::move(e.uplinkQueue[k]);
            ++keep;
        }
    }
    e.uplinkQueue.resize(keep);
    std::stable_sort(due.begin(), due.end(),
                     [](const UplinkMsg &a, const UplinkMsg &b) {
                         if (a.deliverAt != b.deliverAt)
                             return a.deliverAt < b.deliverAt;
                         if (a.seq != b.seq)
                             return a.seq < b.seq;
                         return !a.duplicate && b.duplicate;
                     });

    const auto nx = static_cast<std::size_t>(model_->nx());
    for (const UplinkMsg &msg : due) {
        ++totals_.uplinkDelivered;
        e.latency.sample(static_cast<double>(period_ - msg.sent));
        if (e.maxUpSeqDelivered != kNever &&
            msg.seq < e.maxUpSeqDelivered)
            ++totals_.uplinkReordered;
        if (e.maxUpSeqDelivered == kNever ||
            msg.seq > e.maxUpSeqDelivered)
            e.maxUpSeqDelivered = msg.seq;
        e.lastAnyDelivery = period_;

        // Piggybacked ack: advances the controller's acked plan seq.
        if (msg.ackSeq != kNever &&
            (e.ackedSeq == kNever || msg.ackSeq > e.ackedSeq)) {
            e.ackedSeq = msg.ackSeq;
            ++totals_.acksDelivered;
        }

        // Newest state wins; only a correctly shaped measurement may
        // become the fresh-state baseline (a malformed one is still
        // served — and rejected — when it is this period's).
        if ((e.lastFreshSeq == kNever || msg.seq > e.lastFreshSeq) &&
            msg.state.size() == nx) {
            e.lastFreshSeq = msg.seq;
            if (e.lastFreshState.size() != nx)
                e.lastFreshState.resize(nx);
            e.lastFreshState.copyFrom(msg.state);
        }
    }
}

void
FleetLink::classify(std::size_t i, const std::vector<Vector> &measured,
                    const std::vector<Vector> &refs)
{
    Endpoint &e = endpoints_[i];
    Vector &served = served_[i];
    const auto nx = static_cast<std::size_t>(model_->nx());
    const auto nref = static_cast<std::size_t>(model_->nref());
    const auto nu = static_cast<std::size_t>(model_->nu());

    if (down_[i]) {
        service_[i] = Service::Down;
        return;
    }

    // On-time delivery: serve exactly what arrived, shaped or not —
    // input validation downstream treats a malformed measurement
    // identically to the direct path (BadInput).
    if (e.lastFreshSeq == kNever || period_ > e.lastFreshSeq) {
        // No correctly shaped state arrived this period; but an
        // on-time malformed one must still surface as BadInput, so
        // check the measured entry the robot transmitted.
        bool malformed_fresh = false;
        if (e.lastAnyDelivery == period_ && i < measured.size() &&
            measured[i].size() != nx) {
            // The delivered message carried this period's (malformed)
            // measurement only if it was transmitted this period and
            // not delayed; lastAnyDelivery == period_ with a mis-sized
            // source is the deterministic signature of that.
            malformed_fresh = e.maxUpSeqDelivered == period_;
        }
        if (malformed_fresh) {
            service_[i] = Service::Fresh;
            served = measured[i];
            return;
        }
    } else {
        // e.lastFreshSeq == period_: a fresh, well-shaped state.
        service_[i] = Service::Fresh;
        if (served.size() != nx)
            served.resize(nx);
        served.copyFrom(e.lastFreshState);
        e.staleness.sample(0.0);
        return;
    }

    const std::uint64_t age =
        e.lastFreshSeq == kNever ? kNever : period_ - e.lastFreshSeq;
    const auto bound =
        static_cast<std::uint64_t>(std::max(0, options_.linkStalenessBoundPeriods));
    const bool refs_ok =
        i < refs.size() && refs[i].size() == nref;
    if (age != kNever && age <= bound && refs_ok) {
        // Bounded dynamics rollout: advance the last fresh state by
        // `age` periods, applying the inputs the last computed plan
        // intended for those periods (the robot is executing that
        // plan's tail open loop, so this is the controller's best
        // deterministic estimate of where the robot actually is).
        if (roll_x_.size() != nx)
            roll_x_.resize(nx);
        roll_x_.copyFrom(e.lastFreshState);
        if (roll_ref_.size() != nref)
            roll_ref_.resize(nref);
        roll_ref_.copyFrom(refs[i]);
        Vector u(nu);
        for (std::uint64_t k = 0; k < age; ++k) {
            const std::uint64_t t = e.lastFreshSeq + k;
            if (e.lastPlan.empty() || e.lastPlanSeq == kNever) {
                for (std::size_t j = 0; j < nu; ++j)
                    u[j] = std::clamp(0.0, model_->inputLower[j],
                                      model_->inputUpper[j]);
            } else {
                const std::size_t stage =
                    t <= e.lastPlanSeq
                        ? 0
                        : std::min<std::size_t>(
                              static_cast<std::size_t>(t - e.lastPlanSeq),
                              e.lastPlan.size() - 1);
                u.copyFrom(e.lastPlan[stage]);
            }
            roll_x_ = plant_.step(roll_x_, u, roll_ref_, options_.dt);
        }
        service_[i] = Service::Extrapolated;
        extrapolated_[i] = 1;
        ++totals_.statesExtrapolated;
        e.staleness.sample(static_cast<double>(age));
        if (served.size() != nx)
            served.resize(nx);
        served.copyFrom(roll_x_);
        return;
    }

    service_[i] = Service::Stale;
    stale_demoted_[i] = 1;
    ++totals_.staleDemotions;
}

void
FleetLink::beginPeriod(std::uint64_t period,
                       const std::vector<Vector> &measured,
                       const std::vector<Vector> &refs)
{
    period_ = period;
    const std::size_t n = endpoints_.size();
    std::fill(fresh_exec_.begin(), fresh_exec_.end(), 0);
    std::fill(extrapolated_.begin(), extrapolated_.end(), 0);
    std::fill(stale_demoted_.begin(), stale_demoted_.end(), 0);
    std::fill(plan_missed_.begin(), plan_missed_.end(), 0);
    std::fill(went_down_.begin(), went_down_.end(), 0);
    std::fill(came_up_.begin(), came_up_.end(), 0);

    static const Vector kEmpty;
    for (std::size_t i = 0; i < n; ++i) {
        endpoints_[i].planSentThisPeriod = false;
        transmitUplink(i, i < measured.size() ? measured[i] : kEmpty);
    }
    for (std::size_t i = 0; i < n; ++i)
        drainUplinks(i);

    // Heartbeat: any delivered uplink proves the link is alive; its
    // absence for linkDownPeriods declares the link down (<= 0
    // disables detection).
    for (std::size_t i = 0; i < n; ++i) {
        Endpoint &e = endpoints_[i];
        bool now_down = false;
        if (options_.linkDownPeriods > 0) {
            const std::uint64_t silent =
                e.lastAnyDelivery == kNever
                    ? period_ + 1
                    : period_ - e.lastAnyDelivery;
            now_down = silent >=
                       static_cast<std::uint64_t>(options_.linkDownPeriods);
        }
        if (now_down && !down_[i]) {
            went_down_[i] = 1;
            ++totals_.linkDownEvents;
        } else if (!now_down && down_[i]) {
            came_up_[i] = 1;
            ++totals_.linkUpEvents;
        }
        down_[i] = now_down ? 1 : 0;
        if (now_down)
            ++totals_.linkDownRobotPeriods;
    }

    for (std::size_t i = 0; i < n; ++i)
        classify(i, measured, refs);
}

void
FleetLink::sendPlan(std::size_t i, const std::vector<Vector> &inputs)
{
    Endpoint &e = endpoints_[i];
    e.lastPlanSeq = period_;
    if (e.lastPlan.size() != inputs.size())
        e.lastPlan.resize(inputs.size());
    for (std::size_t k = 0; k < inputs.size(); ++k) {
        if (e.lastPlan[k].size() != inputs[k].size())
            e.lastPlan[k].resize(inputs[k].size());
        e.lastPlan[k].copyFrom(inputs[k]);
    }
    e.planSentThisPeriod = true;
    // Arm the retransmit schedule for this plan.
    e.retryInterval = static_cast<std::uint64_t>(
        std::max(1, options_.linkRetransmitBackoffBase));
    e.nextRetry = period_ + e.retryInterval;
    transmitDownlink(i, period_, e.lastPlan);
}

void
FleetLink::drainDownlinks(std::size_t i)
{
    Endpoint &e = endpoints_[i];
    std::vector<DownlinkMsg> due;
    std::size_t keep = 0;
    for (std::size_t k = 0; k < e.downlinkQueue.size(); ++k) {
        if (e.downlinkQueue[k].deliverAt <= period_) {
            due.push_back(std::move(e.downlinkQueue[k]));
        } else {
            if (keep != k) // Self-move would clear the payload.
                e.downlinkQueue[keep] = std::move(e.downlinkQueue[k]);
            ++keep;
        }
    }
    e.downlinkQueue.resize(keep);
    std::stable_sort(due.begin(), due.end(),
                     [](const DownlinkMsg &a, const DownlinkMsg &b) {
                         if (a.deliverAt != b.deliverAt)
                             return a.deliverAt < b.deliverAt;
                         if (a.seq != b.seq)
                             return a.seq < b.seq;
                         return !a.duplicate && b.duplicate;
                     });

    for (const DownlinkMsg &msg : due) {
        ++totals_.downlinkDelivered;
        e.latency.sample(static_cast<double>(period_ - msg.sent));
        if (e.maxDownSeqDelivered != kNever &&
            msg.seq < e.maxDownSeqDelivered)
            ++totals_.downlinkReordered;
        if (e.maxDownSeqDelivered == kNever ||
            msg.seq > e.maxDownSeqDelivered)
            e.maxDownSeqDelivered = msg.seq;

        // Newest plan wins; stale and duplicate deliveries are
        // ignored. A late plan resumes `lateness` stages into its
        // tail: those stages' periods already elapsed in flight.
        if (e.bufferedSeq == kNever || msg.seq > e.bufferedSeq) {
            buffers_[i].accept(msg.plan);
            buffers_[i].skip(
                static_cast<std::size_t>(period_ - msg.seq));
            e.bufferedSeq = msg.seq;
        }
    }
}

void
FleetLink::finishPeriod()
{
    const std::size_t n = endpoints_.size();
    // Retransmit pass: robots that did not get a fresh plan this
    // period, whose newest plan is unacked, and whose backoff timer
    // fired, get the stored plan again (same seq, doubled interval).
    for (std::size_t i = 0; i < n; ++i) {
        Endpoint &e = endpoints_[i];
        if (e.planSentThisPeriod || e.lastPlanSeq == kNever)
            continue;
        if (e.ackedSeq != kNever && e.ackedSeq >= e.lastPlanSeq)
            continue; // Delivered and acknowledged; nothing to repair.
        if (period_ < e.nextRetry)
            continue;
        ++totals_.retransmits;
        transmitDownlink(i, e.lastPlanSeq, e.lastPlan);
        const auto cap = static_cast<std::uint64_t>(
            std::max(1, options_.linkRetransmitBackoffCap));
        e.retryInterval = std::min(cap, e.retryInterval * 2);
        e.nextRetry = period_ + e.retryInterval;
    }

    for (std::size_t i = 0; i < n; ++i)
        drainDownlinks(i);

    // Execution: a robot whose plan for *this* period arrived on time
    // executes its stage-0 input (the solver's u0, bitwise); everyone
    // else executes the buffered open-loop tail.
    for (std::size_t i = 0; i < n; ++i) {
        Endpoint &e = endpoints_[i];
        if (e.bufferedSeq != kNever && e.bufferedSeq == period_) {
            fresh_exec_[i] = 1;
            continue;
        }
        plan_missed_[i] = 1;
        ++totals_.planMisses;
        const Vector &u = buffers_[i].command();
        if (exec_[i].size() != u.size())
            exec_[i].resize(u.size());
        exec_[i].copyFrom(u);
    }
}

std::uint64_t
FleetLink::stalenessPeriods(std::size_t i) const
{
    const Endpoint &e = endpoints_[i];
    return e.lastFreshSeq == kNever ? period_ + 1
                                    : period_ - e.lastFreshSeq;
}

LinkReport
FleetLink::report() const
{
    LinkReport report = totals_;
    // Deterministic fold of the per-robot distributions: merge() is
    // order-independent, and robot-index order makes the pass itself
    // canonical.
    for (const Endpoint &e : endpoints_) {
        report.deliveryLatency.merge(e.latency);
        report.staleness.merge(e.staleness);
    }
    return report;
}

void
FleetLink::reset()
{
    for (std::size_t i = 0; i < endpoints_.size(); ++i) {
        Endpoint &e = endpoints_[i];
        e.uplinkQueue.clear();
        e.downlinkQueue.clear();
        e.lastFreshSeq = kNever;
        e.lastAnyDelivery = kNever;
        e.maxUpSeqDelivered = kNever;
        e.lastPlanSeq = kNever;
        e.lastPlan.clear();
        e.ackedSeq = kNever;
        e.nextRetry = 0;
        e.retryInterval = 0;
        e.planSentThisPeriod = false;
        e.bufferedSeq = kNever;
        e.maxDownSeqDelivered = kNever;
        buffers_[i].clear();
    }
    std::fill(down_.begin(), down_.end(), 0);
    std::fill(fresh_exec_.begin(), fresh_exec_.end(), 0);
    std::fill(extrapolated_.begin(), extrapolated_.end(), 0);
    std::fill(stale_demoted_.begin(), stale_demoted_.end(), 0);
    std::fill(plan_missed_.begin(), plan_missed_.end(), 0);
    std::fill(went_down_.begin(), went_down_.end(), 0);
    std::fill(came_up_.begin(), came_up_.end(), 0);
}

namespace
{

/** LinkReport's checkpointed state, listed once. */
template <class Io, class Report>
bool
transferLinkReport(Io &io, Report &rp)
{
    return field(io, rp.uplinkSent) && field(io, rp.uplinkDropped) &&
           field(io, rp.uplinkDelivered) && field(io, rp.uplinkDuplicates) &&
           field(io, rp.uplinkReordered) && field(io, rp.downlinkSent) &&
           field(io, rp.downlinkDropped) &&
           field(io, rp.downlinkDelivered) &&
           field(io, rp.downlinkDuplicates) &&
           field(io, rp.downlinkReordered) && field(io, rp.retransmits) &&
           field(io, rp.acksDelivered) && field(io, rp.planMisses) &&
           field(io, rp.statesExtrapolated) &&
           field(io, rp.staleDemotions) && field(io, rp.linkDownEvents) &&
           field(io, rp.linkUpEvents) &&
           field(io, rp.linkDownRobotPeriods) &&
           field(io, rp.deliveryLatency) && field(io, rp.staleness);
}

} // namespace

bool
field(support::CheckpointWriter &w, const LinkReport &report)
{
    return transferLinkReport(w, report);
}

bool
field(support::CheckpointReader &r, LinkReport &report)
{
    return transferLinkReport(r, report);
}

template <class Io, class Self>
bool
FleetLink::transfer(Io &io, Self &self)
{
    using support::enumField;
    auto uplink = [](auto &io, auto &m) {
        return field(io, m.seq) && field(io, m.sent) &&
               field(io, m.deliverAt) && field(io, m.ackSeq) &&
               field(io, m.duplicate) && field(io, m.state);
    };
    auto downlink = [](auto &io, auto &m) {
        return field(io, m.seq) && field(io, m.sent) &&
               field(io, m.deliverAt) && field(io, m.duplicate) &&
               field(io, m.plan);
    };
    if (!support::expectField(io, std::uint64_t{self.endpoints_.size()}) ||
        !field(io, self.period_))
        return false;
    for (std::size_t i = 0; i < self.endpoints_.size(); ++i) {
        auto &e = self.endpoints_[i];
        if (!support::listField(io, e.uplinkQueue, uplink) ||
            !support::listField(io, e.downlinkQueue, downlink) ||
            !field(io, e.lastFreshSeq) || !field(io, e.lastFreshState) ||
            !field(io, e.lastAnyDelivery) ||
            !field(io, e.maxUpSeqDelivered) || !field(io, e.lastPlanSeq) ||
            !field(io, e.lastPlan) || !field(io, e.ackedSeq) ||
            !field(io, e.nextRetry) || !field(io, e.retryInterval) ||
            !field(io, e.planSentThisPeriod) || !field(io, e.bufferedSeq) ||
            !field(io, e.maxDownSeqDelivered) || !field(io, e.latency) ||
            !field(io, e.staleness) || !field(io, self.buffers_[i]) ||
            !field(io, self.served_[i]) || !field(io, self.exec_[i]) ||
            !enumField<std::uint8_t>(io, self.service_[i], Service::Down) ||
            !field(io, self.down_[i]) || !field(io, self.fresh_exec_[i]) ||
            !field(io, self.extrapolated_[i]) ||
            !field(io, self.stale_demoted_[i]) ||
            !field(io, self.plan_missed_[i]) ||
            !field(io, self.went_down_[i]) || !field(io, self.came_up_[i]))
            return false;
    }
    return field(io, self.totals_);
}

void
FleetLink::checkpoint(support::CheckpointWriter &w) const
{
    transfer(w, *this);
}

bool
FleetLink::restore(support::CheckpointReader &r)
{
    if (transfer(r, *this))
        return true;
    reset();
    totals_ = LinkReport();
    return false;
}

} // namespace robox::mpc
