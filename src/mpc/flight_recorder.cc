/**
 * @file
 * Implementation of the black-box flight recorder.
 */

#include "mpc/flight_recorder.hh"

#include <sstream>

#include "mpc/checkpoint_io.hh"
#include "support/strings.hh"

namespace robox::mpc
{

namespace
{

void
appendVector(std::ostringstream &os, const Vector &v)
{
    os << "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        os << (i ? "," : "") << jsonNumber(v[i]);
    os << "]";
}

} // namespace

std::string
FlightRecorder::toJson() const
{
    std::ostringstream os;
    os << "{\n  \"flight_recorder\": {\"capacity\": " << capacity()
       << ", \"recorded\": " << total_ << ", \"dropped\": " << dropped()
       << ", \"records\": [";
    for (int i = 0; i < size(); ++i) {
        const FlightRecord &rec = record(i);
        os << (i ? ",\n    " : "\n    ") << "{\"period\": " << rec.period
           << ", \"robot\": " << rec.robot << ", \"status\": \""
           << toString(rec.status) << "\", \"rung\": " << rec.rung
           << ", \"sensor_verdict\": " << rec.sensorVerdict
           << ", \"link_service\": " << rec.linkService
           << ", \"degraded\": " << (rec.degraded ? "true" : "false")
           << ", \"state\": ";
        appendVector(os, rec.state);
        os << ", \"command\": ";
        appendVector(os, rec.command);
        os << "}";
    }
    os << (empty() ? "]}" : "\n  ]}") << "\n}";
    return os.str();
}

template <class Io, class Self>
bool
FlightRecorder::transfer(Io &io, Self &self)
{
    const std::uint64_t capacity = self.ring_.size();
    if (!support::expectField(io, capacity) || !field(io, self.total_) ||
        !field(io, self.count_) || self.count_ > capacity ||
        self.count_ > self.total_)
        return false;
    for (std::size_t i = 0; i < self.count_; ++i) {
        auto &rec = self.ring_[self.slot(i)];
        if (!field(io, rec.period) || !field(io, rec.robot) ||
            !support::enumField<std::uint32_t>(io, rec.status,
                                               SolveStatus::Shed) ||
            !field(io, rec.rung) || !field(io, rec.sensorVerdict) ||
            !field(io, rec.linkService) || !field(io, rec.degraded) ||
            !field(io, rec.state) || !field(io, rec.command))
            return false;
    }
    return true;
}

void
FlightRecorder::checkpoint(support::CheckpointWriter &w) const
{
    transfer(w, *this);
}

bool
FlightRecorder::restore(support::CheckpointReader &r)
{
    // With head_ at 0, slot() puts the records oldest first just
    // behind the write head, so the ring resumes in push() order.
    clear();
    if (transfer(r, *this))
        return true;
    clear();
    return false;
}

} // namespace robox::mpc
