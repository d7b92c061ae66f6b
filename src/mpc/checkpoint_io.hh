/**
 * @file
 * Checkpoint fields for linalg types (support/checkpoint.hh).
 *
 * support/checkpoint deliberately knows nothing about the linear
 * algebra layer; these field overloads bridge the gap and live in
 * Vector's namespace, so argument-dependent lookup finds them from any
 * transfer function. A vector is a u64 length followed by the bitwise
 * (u64 object representation) doubles, so a restored vector is exactly
 * — not approximately — the one checkpointed. A read refuses a length
 * the payload's remaining bytes cannot hold before it resizes.
 */

#ifndef ROBOX_MPC_CHECKPOINT_IO_HH
#define ROBOX_MPC_CHECKPOINT_IO_HH

#include <concepts>
#include <type_traits>
#include <vector>

#include "linalg/matrix.hh"
#include "support/checkpoint.hh"

namespace robox
{

inline bool
field(support::CheckpointWriter &w, const Vector &v)
{
    w.u64(v.size());
    w.f64Array(v.data(), v.size());
    return true;
}

inline bool
field(support::CheckpointReader &r, Vector &v)
{
    std::uint64_t n = 0;
    if (!r.u64(&n) || n > r.remaining() / sizeof(double))
        return false;
    if (v.size() != n)
        v.resize(static_cast<std::size_t>(n));
    return r.f64Array(v.data(), v.size());
}

/** A counted list of vectors, each in the encoding above. */
template <class Io, class List>
    requires std::same_as<std::remove_const_t<List>, std::vector<Vector>>
bool
field(Io &io, List &vs)
{
    return support::listField(
        io, vs, [](auto &io2, auto &v) { return field(io2, v); });
}

} // namespace robox

#endif // ROBOX_MPC_CHECKPOINT_IO_HH
