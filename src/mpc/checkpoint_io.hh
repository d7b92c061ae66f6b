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
 * the payload's remaining bytes cannot hold before it resizes, and a
 * sizedField read refuses any length the model cannot produce.
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

/** Write side of the length-checked fields below: the usual encoding;
 *  the expected shape matters only to a read. */
template <class T, class... Shape>
bool
sizedField(support::CheckpointWriter &w, const T &x, Shape...)
{
    return field(w, x);
}

/** A vector whose length the model fixes: the read fails unless the
 *  stored length is `n`, or 0 when `may_be_empty`. */
inline bool
sizedField(support::CheckpointReader &r, Vector &v, std::size_t n,
           bool may_be_empty = false)
{
    std::uint64_t stored = 0;
    if (!r.u64(&stored) || (stored != n && !(may_be_empty && stored == 0)))
        return false;
    if (v.size() != stored)
        v.resize(static_cast<std::size_t>(stored));
    return r.f64Array(v.data(), v.size());
}

/** A counted list of vectors that are each `dim` long, such as the
 *  input stages of a plan. */
inline bool
sizedField(support::CheckpointReader &r, std::vector<Vector> &vs,
           std::size_t dim)
{
    return support::listField(r, vs, [dim](auto &r2, Vector &v) {
        return sizedField(r2, v, dim);
    });
}

} // namespace robox

#endif // ROBOX_MPC_CHECKPOINT_IO_HH
