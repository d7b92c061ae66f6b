/**
 * @file
 * Execution tracing for the cycle-level simulator.
 *
 * When a Trace is passed to accel::simulate(), every M-DFG node's
 * placement and [start, finish) cycle window is recorded. The trace
 * exports through the shared Chrome trace-event writer
 * (support/trace.hh; load in chrome://tracing or Perfetto): clusters
 * appear as processes, CUs as threads, with CC-wide SIMD/GROUP work on
 * the reserved kCcWideLane thread lane. Lanes are labeled with
 * thread_name metadata records, so the CC-wide lane can never be
 * confused with a real CU of any index (the old export reused tid 99
 * as a sentinel, which collided with CU 99 on wide clusters).
 */

#ifndef ROBOX_ACCEL_TRACE_HH
#define ROBOX_ACCEL_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mdfg/mdfg.hh"

namespace robox::accel
{

/**
 * Reserved (negative) thread lane for CC-wide SIMD/GROUP execution in
 * the Chrome export. Real CUs are non-negative, so no configuration
 * can collide with it; the lane is additionally labeled via a
 * thread_name metadata record.
 */
constexpr int kCcWideLane = -1;

/** One executed node occurrence. */
struct TraceEvent
{
    std::uint32_t node = 0;
    mdfg::NodeKind kind = mdfg::NodeKind::Scalar;
    sym::Op op = sym::Op::Add;
    mdfg::Phase phase = mdfg::Phase::Dynamics;
    int stage = 0;
    int cc = 0;
    int cu = -1; //!< -1 for CC-wide execution.
    std::uint64_t start = 0;
    std::uint64_t finish = 0;
};

/**
 * A zero-duration self-check marker: a watchdog trip or the hard
 * cycle cap. Rendered as an "accel" category instant event on the
 * cluster's CC-wide lane so detections line up against the work that
 * was executing.
 */
struct TraceMarker
{
    std::string name;        //!< e.g. "watchdog:compute".
    std::uint64_t cycle = 0; //!< Cycle the detector fired.
    int cc = 0;              //!< Cluster lane to pin the marker to.
};

/** An append-only execution trace. */
class Trace
{
  public:
    void
    record(TraceEvent event)
    {
        events_.push_back(event);
    }

    /** Record one self-check marker. */
    void
    mark(std::string name, std::uint64_t cycle, int cc = 0)
    {
        markers_.push_back({std::move(name), cycle, cc});
    }

    const std::vector<TraceEvent> &events() const { return events_; }
    const std::vector<TraceMarker> &markers() const { return markers_; }
    std::size_t size() const { return events_.size(); }
    bool empty() const { return events_.empty() && markers_.empty(); }

    /**
     * Export as Chrome trace-event JSON ("traceEvents" array of "X"
     * complete events; 1 cycle = 1 us of trace time).
     */
    std::string toChromeJson() const;

    /** Write the JSON to a file; fatal() on I/O failure. */
    void writeChromeJson(const std::string &path) const;

  private:
    std::vector<TraceEvent> events_;
    std::vector<TraceMarker> markers_;
};

} // namespace robox::accel

#endif // ROBOX_ACCEL_TRACE_HH
