/**
 * @file
 * Implementation of the statistics framework.
 */

#include "support/stats.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "support/logging.hh"
#include "support/strings.hh"

namespace robox::stats
{

Histogram::Histogram(std::string name, std::string desc, double lo,
                     double hi, int buckets)
    : name_(std::move(name)), desc_(std::move(desc)), lo_(lo), hi_(hi)
{
    if (buckets < 1)
        fatal("histogram '{}' needs at least one bucket", name_);
    if (!(hi > lo))
        fatal("histogram '{}' has empty range [{}, {}]", name_, lo, hi);
    counts_.assign(static_cast<std::size_t>(buckets), 0);
}

void
Histogram::sample(double v, std::uint64_t count)
{
    if (samples_ == 0) {
        min_ = v;
        max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    samples_ += count;
    sum_ += v * static_cast<double>(count);
    if (v < lo_) {
        underflow_ += count;
    } else if (v >= hi_ || counts_.empty()) {
        // A default-constructed histogram has no buckets; count
        // in-range samples as overflow instead of indexing nothing.
        overflow_ += count;
    } else {
        double width = (hi_ - lo_) / static_cast<double>(counts_.size());
        auto idx = static_cast<std::size_t>((v - lo_) / width);
        idx = std::min(idx, counts_.size() - 1);
        counts_[idx] += count;
    }
}

void
Histogram::merge(const Histogram &other)
{
    // Self-merge is a no-op: there is nothing new to fold, and the
    // natural way to hit it (a merge loop that includes its own
    // destination) wants idempotence, not silent doubling.
    if (&other == this)
        return;
    // An empty source carries no bucket information, so it merges
    // cleanly regardless of configuration.
    if (other.samples_ == 0)
        return;
    // An empty default-constructed destination adopts the source's
    // bucket configuration instead of rejecting every merge.
    if (counts_.empty() && samples_ == 0) {
        lo_ = other.lo_;
        hi_ = other.hi_;
        counts_.assign(other.counts_.size(), 0);
    }
    if (other.lo_ != lo_ || other.hi_ != hi_ ||
        other.counts_.size() != counts_.size())
        fatal("histogram '{}' cannot merge '{}': bucket configuration "
              "differs ([{}, {}] x {} vs [{}, {}] x {})",
              name_, other.name_, lo_, hi_, counts_.size(), other.lo_,
              other.hi_, other.counts_.size());
    if (samples_ == 0) {
        min_ = other.min_;
        max_ = other.max_;
    } else {
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }
    for (std::size_t i = 0; i < counts_.size(); ++i)
        counts_[i] += other.counts_[i];
    underflow_ += other.underflow_;
    overflow_ += other.overflow_;
    samples_ += other.samples_;
    sum_ += other.sum_;
}

double
Histogram::mean() const
{
    return samples_ ? sum_ / static_cast<double>(samples_) : 0.0;
}

double
Histogram::percentile(double p) const
{
    if (samples_ == 0)
        return 0.0;
    p = std::clamp(p, 0.0, 1.0);
    // Target rank in [1, samples]: the k-th smallest sample.
    auto target = static_cast<std::uint64_t>(
        p * static_cast<double>(samples_ - 1)) + 1;
    std::uint64_t seen = underflow_;
    if (target <= seen)
        return min_;
    double width = (hi_ - lo_) / static_cast<double>(counts_.size());
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        if (counts_[i] == 0)
            continue;
        if (target <= seen + counts_[i]) {
            double frac = static_cast<double>(target - seen) /
                          static_cast<double>(counts_[i]);
            // The linear interpolation only knows the bucket's edges,
            // not where its samples actually sit: a sparsely filled
            // bucket can interpolate past every recorded value (a
            // single sample resolves to the bucket's upper edge).
            // Clamp to the observed range so percentile(p) is always
            // within [min(), max()] for a non-empty histogram.
            double v = lo_ + (static_cast<double>(i) + frac) * width;
            return std::clamp(v, min_, max_);
        }
        seen += counts_[i];
    }
    return max_;
}

std::uint64_t
Histogram::bucketCount(int i) const
{
    robox_assert(i >= 0 && i < numBuckets());
    return counts_[static_cast<std::size_t>(i)];
}

template <class Io, class Self>
bool
Histogram::transfer(Io &io, Self &self)
{
    using support::expectField;
    return expectField(io, self.lo_) && expectField(io, self.hi_) &&
           expectField(io, std::uint64_t{self.counts_.size()}) &&
           support::eachField(io, self.counts_) &&
           field(io, self.underflow_) && field(io, self.overflow_) &&
           field(io, self.samples_) && field(io, self.sum_) &&
           field(io, self.min_) && field(io, self.max_);
}

void
Histogram::checkpoint(support::CheckpointWriter &w) const
{
    transfer(w, *this);
}

bool
Histogram::restore(support::CheckpointReader &r)
{
    return transfer(r, *this);
}

void
Histogram::reset()
{
    std::fill(counts_.begin(), counts_.end(), 0);
    underflow_ = 0;
    overflow_ = 0;
    samples_ = 0;
    sum_ = 0.0;
    min_ = 0.0;
    max_ = 0.0;
}

namespace
{

void
dumpLine(std::ostringstream &os, const std::string &group,
         const std::string &name, const std::string &value,
         const std::string &desc)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%-44s %16s  # %s\n",
                  (group + "." + name).c_str(), value.c_str(),
                  desc.c_str());
    os << buf;
}

} // namespace

std::string
StatGroup::dump() const
{
    std::ostringstream os;
    os << "---------- Begin Simulation Statistics (" << name_
       << ") ----------\n";
    for (const Scalar *s : scalars_)
        dumpLine(os, name_, s->name(), formatDouble(s->value()),
                 s->description());
    for (const Formula *f : formulas_)
        dumpLine(os, name_, f->name(), formatDouble(f->value()),
                 f->description());
    for (const Histogram *h : histograms_) {
        dumpLine(os, name_, h->name() + "::samples",
                 std::to_string(h->totalSamples()), h->description());
        dumpLine(os, name_, h->name() + "::mean",
                 formatDouble(h->mean()), h->description());
        dumpLine(os, name_, h->name() + "::min",
                 formatDouble(h->min()), h->description());
        dumpLine(os, name_, h->name() + "::max",
                 formatDouble(h->max()), h->description());
        dumpLine(os, name_, h->name() + "::underflows",
                 std::to_string(h->underflow()), h->description());
        dumpLine(os, name_, h->name() + "::overflows",
                 std::to_string(h->overflow()), h->description());
    }
    os << "---------- End Simulation Statistics   (" << name_
       << ") ----------\n";
    return os.str();
}

std::string
StatGroup::csv() const
{
    std::ostringstream os;
    os << "stat,value\n";
    for (const Scalar *s : scalars_)
        os << name_ << "." << s->name() << ","
           << formatDouble(s->value()) << "\n";
    for (const Formula *f : formulas_)
        os << name_ << "." << f->name() << ","
           << formatDouble(f->value()) << "\n";
    return os.str();
}

std::string
StatGroup::toJson() const
{
    std::ostringstream os;
    os << "{\n  \"group\": \"" << jsonEscape(name_) << "\",\n";

    os << "  \"scalars\": {";
    for (std::size_t i = 0; i < scalars_.size(); ++i)
        os << (i ? ", " : "") << "\"" << jsonEscape(scalars_[i]->name())
           << "\": " << jsonNumber(scalars_[i]->value());
    os << "},\n";

    os << "  \"formulas\": {";
    for (std::size_t i = 0; i < formulas_.size(); ++i)
        os << (i ? ", " : "") << "\""
           << jsonEscape(formulas_[i]->name())
           << "\": " << jsonNumber(formulas_[i]->value());
    os << "},\n";

    os << "  \"histograms\": {";
    for (std::size_t i = 0; i < histograms_.size(); ++i) {
        const Histogram *h = histograms_[i];
        os << (i ? ",\n    " : "\n    ") << "\""
           << jsonEscape(h->name()) << "\": {\"samples\": "
           << h->totalSamples() << ", \"mean\": "
           << jsonNumber(h->mean()) << ", \"min\": "
           << jsonNumber(h->min()) << ", \"max\": "
           << jsonNumber(h->max()) << ", \"underflow\": "
           << h->underflow() << ", \"overflow\": " << h->overflow()
           << ", \"lo\": " << jsonNumber(h->lo()) << ", \"hi\": "
           << jsonNumber(h->hi()) << ", \"buckets\": [";
        for (int b = 0; b < h->numBuckets(); ++b)
            os << (b ? "," : "") << h->bucketCount(b);
        os << "], \"p50\": " << jsonNumber(h->percentile(0.5))
           << ", \"p90\": " << jsonNumber(h->percentile(0.9))
           << ", \"p99\": " << jsonNumber(h->percentile(0.99)) << "}";
    }
    os << (histograms_.empty() ? "}" : "\n  }") << "\n}";
    return os.str();
}

void
StatGroup::resetAll()
{
    for (Scalar *s : scalars_)
        s->reset();
    for (Histogram *h : histograms_)
        h->reset();
}

} // namespace robox::stats
