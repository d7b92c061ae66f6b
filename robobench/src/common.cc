/**
 * @file
 * Implementation of the shared benchmark pieces.
 */

#include "common.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "support/trace.hh"

namespace robobench
{

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::uint64_t
streamSeed(std::uint64_t seed, std::uint64_t a, std::uint64_t b)
{
    return mix64(mix64(mix64(seed) ^ a) ^ (b * 0x632be59bd9b4e019ull));
}

std::uint64_t
Rng::next()
{
    const std::uint64_t z = mix64(state_);
    state_ += 0x9e3779b97f4a7c15ull;
    return z;
}

double
Rng::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

void
Digest::add(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h_ ^= (v >> (8 * i)) & 0xffu;
        h_ *= 1099511628211ull;
    }
}

void
Digest::add(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double rank = std::ceil(p / 100.0 * values.size());
    std::size_t idx = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(values.size())));
    return values[idx - 1];
}

double
tailPercentile(std::size_t n)
{
    for (double p : {99.9, 99.0, 98.0, 95.0, 90.0, 75.0}) {
        // Samples strictly beyond the nearest-rank position.
        double beyond = n - std::ceil(p / 100.0 * n);
        if (beyond >= 10.0)
            return p;
    }
    return 50.0;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / values.size());
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss / 1024.0; // Linux reports kilobytes.
}

Tracer::Tracer(bool available) : available_(available), origin_(nowNs())
{
    if (available_)
        spans_.reserve(1 << 16);
}

int
Tracer::begin(const char *name, std::int64_t request)
{
    if (!recording_)
        return -1;
    int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, nowNs() - origin_, 0, parent, request});
    int id = static_cast<int>(spans_.size()) - 1;
    open_.push_back(id);
    return id;
}

void
Tracer::end(int id)
{
    if (id < 0)
        return;
    spans_[id].end = nowNs() - origin_;
    // Spans close in LIFO order; tolerate a span left open by an
    // exception by unwinding to it.
    while (!open_.empty()) {
        int top = open_.back();
        open_.pop_back();
        if (top == id)
            break;
    }
}

void
Tracer::addChild(const char *name, std::int64_t start_ns,
                 std::int64_t end_ns, std::int64_t request)
{
    if (!recording_)
        return;
    int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, start_ns - origin_, end_ns - origin_,
                          parent, request});
}

std::map<std::string, Tracer::Layer>
Tracer::layers() const
{
    std::vector<double> child_ns(spans_.size(), 0.0);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            child_ns[s.parent] += static_cast<double>(s.end - s.start);
    std::map<std::string, Layer> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        double dur = static_cast<double>(s.end - s.start);
        Layer &l = out[s.name];
        ++l.count;
        l.totalNs += dur;
        l.selfNs += std::max(0.0, dur - child_ns[i]);
    }
    return out;
}

double
meanSpan(const SpanTable &spans, const char *name, double unit_ns)
{
    auto it = spans.find(name);
    if (it == spans.end() || it->second.count == 0)
        return 0.0;
    return it->second.totalNs / it->second.count / unit_ns;
}

double
totalSpan(const SpanTable &spans, const char *name, double unit_ns)
{
    auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.totalNs / unit_ns;
}

void
Tracer::writeChromeTrace(const std::string &path) const
{
    robox::trace::ChromeTraceWriter w;
    w.setProcessName(1, "robobench");
    w.setThreadName(1, 1, "benchmark thread");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        char args[128];
        std::snprintf(args, sizeof args,
                      "{\"span\":%zu,\"parent\":%d,\"request\":%lld}", i,
                      s.parent, static_cast<long long>(s.request));
        w.completeEvent(s.name, "robobench", 1, 1, s.start / 1000.0,
                        (s.end - s.start) / 1000.0, args);
    }
    w.writeJson(path);
}

std::string
exact(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
recordTraceOverhead(Result &r, double traced, double untraced)
{
    r.layer("trace.overhead_pct",
            untraced > 0.0 ? 100.0 * (traced / untraced - 1.0) : 0.0);
}

const std::vector<std::string> &
robotNames()
{
    static const std::vector<std::string> names = {
        "MobileRobot", "Manipulator", "AutoVehicle",
        "MicroSat",    "Quadrotor",   "Hexacopter"};
    return names;
}

} // namespace robobench
