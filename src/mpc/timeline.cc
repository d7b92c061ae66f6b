/**
 * @file
 * Chrome trace-event export of the fleet serving timeline.
 */

#include "mpc/timeline.hh"

#include <set>
#include <sstream>

#include "support/trace.hh"

namespace robox::mpc
{

const char *
toString(ServiceRung rung)
{
    switch (rung) {
      case ServiceRung::Full: return "full";
      case ServiceRung::Degraded: return "degraded";
      case ServiceRung::Backup: return "backup";
      case ServiceRung::Shed: return "shed";
      case ServiceRung::BadInput: return "bad-input";
    }
    return "?";
}

const char *
toString(TimelineMarker marker)
{
    switch (marker) {
      case TimelineMarker::RungChange: return "rung-change";
      case TimelineMarker::ServedFromBackup: return "served-from-backup";
      case TimelineMarker::Shed: return "shed";
      case TimelineMarker::BadInput: return "bad-input";
      case TimelineMarker::SensorDemoted: return "sensor-demoted";
      case TimelineMarker::PlanMissed: return "plan-missed";
      case TimelineMarker::StateExtrapolated: return "state-extrapolated";
      case TimelineMarker::StaleDemoted: return "stale-demoted";
      case TimelineMarker::LinkDown: return "link-down";
      case TimelineMarker::LinkUp: return "link-up";
    }
    return "?";
}

namespace
{

/** Link events get their own trace category so a viewer can filter
 *  comms health separately from admission decisions. */
const char *
markerCategory(TimelineMarker kind)
{
    switch (kind) {
      case TimelineMarker::PlanMissed:
      case TimelineMarker::StateExtrapolated:
      case TimelineMarker::StaleDemoted:
      case TimelineMarker::LinkDown:
      case TimelineMarker::LinkUp:
        return "link";
      default:
        return "admission";
    }
}

constexpr int kFleetPid = 0;
constexpr double kMicrosPerSecond = 1e6;

} // namespace

std::string
FleetTimeline::toChromeJson() const
{
    robox::trace::ChromeTraceWriter writer;

    // Label every robot lane that carries at least one record; the
    // ordered set keeps metadata order (and thus output bytes)
    // independent of record order.
    std::set<std::uint32_t> robots;
    for (const SolveSpan &s : spans_)
        robots.insert(s.robot);
    for (const Marker &m : markers_)
        robots.insert(m.robot);
    writer.setProcessName(kFleetPid, "fleet");
    for (std::uint32_t robot : robots) {
        std::ostringstream name;
        name << "robot " << robot;
        const int tid = static_cast<int>(robot);
        writer.setThreadName(kFleetPid, tid, name.str());
        writer.setThreadSortIndex(kFleetPid, tid, tid);
    }

    for (const SolveSpan &s : spans_) {
        std::ostringstream name;
        name << "solve (" << toString(s.rung) << ")";
        std::ostringstream args;
        args << "{\"batch\":" << s.batch << ",\"status\":\""
             << toString(s.status) << "\",\"iterations\":"
             << s.iterations << "}";
        writer.completeEvent(name.str(), toString(s.rung), kFleetPid,
                             static_cast<int>(s.robot),
                             s.startSeconds * kMicrosPerSecond,
                             s.durationSeconds * kMicrosPerSecond,
                             args.str());
    }
    for (const Marker &m : markers_) {
        std::ostringstream args;
        args << "{\"batch\":" << m.batch;
        if (m.kind == TimelineMarker::RungChange)
            args << ",\"from\":\"" << toString(m.from) << "\",\"to\":\""
                 << toString(m.to) << "\"";
        args << "}";
        writer.instantEvent(toString(m.kind), markerCategory(m.kind),
                            kFleetPid, static_cast<int>(m.robot),
                            m.atSeconds * kMicrosPerSecond, args.str());
    }
    return writer.json();
}

void
FleetTimeline::writeChromeJson(const std::string &path) const
{
    robox::trace::writeTextFile(path, toChromeJson());
}

template <class Io, class Self>
bool
FleetTimeline::transfer(Io &io, Self &self)
{
    using support::enumField;
    auto span = [](auto &io, auto &s) {
        return field(io, s.robot) && field(io, s.batch) &&
               field(io, s.startSeconds) && field(io, s.durationSeconds) &&
               enumField<std::uint8_t>(io, s.rung, ServiceRung::BadInput) &&
               enumField<std::uint32_t>(io, s.status, SolveStatus::Shed) &&
               field(io, s.iterations);
    };
    auto marker = [](auto &io, auto &m) {
        return field(io, m.robot) && field(io, m.batch) &&
               field(io, m.atSeconds) &&
               enumField<std::uint8_t>(io, m.kind, TimelineMarker::LinkUp) &&
               enumField<std::uint8_t>(io, m.from, ServiceRung::BadInput) &&
               enumField<std::uint8_t>(io, m.to, ServiceRung::BadInput);
    };
    return support::listField(io, self.spans_, span) &&
           support::listField(io, self.markers_, marker);
}

void
FleetTimeline::checkpoint(support::CheckpointWriter &w) const
{
    transfer(w, *this);
}

bool
FleetTimeline::restore(support::CheckpointReader &r)
{
    if (transfer(r, *this))
        return true;
    clear();
    return false;
}

} // namespace robox::mpc
