/**
 * @file
 * Fixed-capacity ring of the most recent records.
 *
 * configure() allocates the storage once; clear() and push() never
 * touch the heap, so a ring can record on an allocation-free hot path.
 * When full, push() overwrites the oldest record, and the ring counts
 * what it dropped so a truncated view is never mistaken for the whole
 * history. The per-solve iteration trace (mpc/solve_trace.hh) and the
 * serving layer's flight recorder (mpc/flight_recorder.hh) are rings.
 */

#ifndef ROBOX_SUPPORT_RING_HH
#define ROBOX_SUPPORT_RING_HH

#include <cstdint>
#include <vector>

#include "support/logging.hh"

namespace robox::support
{

template <class T>
class Ring
{
  public:
    /** Size (or resize) the ring; capacity 0 disables recording
     *  (push() then only counts). */
    void configure(int capacity)
    {
        ring_.assign(capacity > 0 ? static_cast<std::size_t>(capacity)
                                  : 0,
                     T());
        clear();
    }

    /** Forget all records but keep the storage. */
    void clear()
    {
        head_ = 0;
        count_ = 0;
        total_ = 0;
    }

    /** Append a record, overwriting the oldest when full. */
    void push(const T &rec)
    {
        ++total_;
        if (ring_.empty())
            return;
        ring_[head_] = rec;
        head_ = (head_ + 1) % ring_.size();
        if (count_ < ring_.size())
            ++count_;
    }

    bool enabled() const { return !ring_.empty(); }
    int capacity() const { return static_cast<int>(ring_.size()); }
    /** Records currently retained (<= capacity). */
    int size() const { return static_cast<int>(count_); }
    bool empty() const { return count_ == 0; }
    /** Records pushed since the last clear (>= size when wrapped). */
    std::uint64_t totalRecorded() const { return total_; }
    /** Records lost to ring wrap-around. */
    std::uint64_t dropped() const { return total_ - count_; }

    /** i-th retained record, oldest first (i in [0, size())). */
    const T &record(int i) const
    {
        robox_assert(i >= 0 && i < size());
        return ring_[slot(static_cast<std::size_t>(i))];
    }

  protected:
    /** Ring slot of the i-th retained record, oldest first. */
    std::size_t slot(std::size_t i) const
    {
        return (head_ + ring_.size() - count_ + i) % ring_.size();
    }

    std::vector<T> ring_;
    std::size_t head_ = 0;  //!< Next write slot.
    std::size_t count_ = 0; //!< Retained records.
    std::uint64_t total_ = 0;
};

} // namespace robox::support

#endif // ROBOX_SUPPORT_RING_HH
