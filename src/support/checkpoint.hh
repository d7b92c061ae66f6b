/**
 * @file
 * Versioned, CRC-32-protected binary checkpoint format.
 *
 * The crash-safe serving layer serializes resumable controller state
 * (warm starts, admission-ladder history, link protocol state, the
 * flight recorder) into a single self-validating blob with the same
 * header discipline as the accelerator program image (compiler/binary):
 *
 *   bytes 0..3   magic "RBCP" (little-endian 0x50434252)
 *   bytes 4..7   format version (u32)
 *   bytes 8..15  payload length in bytes (u64)
 *   bytes 16..19 CRC-32 (IEEE 802.3) of the payload
 *   bytes 20..   payload
 *
 * The payload is a flat little-endian stream written by
 * CheckpointWriter and consumed in the same order by CheckpointReader.
 * Doubles are stored *bitwise* (the u64 object representation), never
 * through text formatting, so a restore reproduces the exact floating
 * point state and a resumed run continues bitwise-identically to an
 * uninterrupted one.
 *
 * Failure handling is status-returning, never fatal: a truncated,
 * corrupt, or version-skewed blob yields a CheckpointStatus the caller
 * maps to a clean cold start (plus a flight-recorder postmortem).
 * writeFileAtomic() gives checkpoint files the torn-write guarantee —
 * the bytes land in a temporary sibling that is renamed over the
 * destination, so a crash mid-write always leaves either the old valid
 * checkpoint or the new one, never a hybrid.
 */

#ifndef ROBOX_SUPPORT_CHECKPOINT_HH
#define ROBOX_SUPPORT_CHECKPOINT_HH

#include <concepts>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>

namespace robox::support
{

/** Outcome of validating or consuming a checkpoint blob. */
enum class CheckpointStatus
{
    Ok = 0,      //!< Header valid, payload intact.
    Truncated,   //!< Blob shorter than the header + declared payload.
    BadMagic,    //!< Leading bytes are not "RBCP".
    BadVersion,  //!< Format version this build does not understand.
    BadChecksum, //!< Payload CRC-32 mismatch (torn or corrupt write).
    BadLayout,   //!< Payload shape disagrees with the consumer.
};

/** Human-readable status name (stable, greppable). */
const char *toString(CheckpointStatus status);

/** Current checkpoint format version. Version 2 dropped
 *  BatchController's timeline-enablement flag from the payload. */
inline constexpr std::uint32_t kCheckpointVersion = 2;

/** Checkpoint magic, "RBCP" little-endian. */
inline constexpr std::uint32_t kCheckpointMagic = 0x50434252u;

/** Append-only little-endian payload builder; finish() prepends the
 *  validated header. */
class CheckpointWriter
{
  public:
    void u8(std::uint8_t v) { payload_.push_back(static_cast<char>(v)); }
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void boolean(bool v) { u8(v ? 1 : 0); }

    /** Store a double bitwise (object representation, not text). */
    void f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }

    /** Store n doubles bitwise, back to back. */
    void f64Array(const double *p, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i)
            f64(p[i]);
    }

    /** Store a length-prefixed string. */
    void str(const std::string &s);

    /** Render header + payload as the final blob. */
    std::string finish() const;

  private:
    std::string payload_;
};

/**
 * Header-validating payload consumer. Construction checks the magic,
 * version, declared length, and CRC; status() reports the verdict.
 * Typed reads return false once the payload is exhausted (and latch
 * failed()), so a structurally short payload surfaces as BadLayout in
 * the consumer rather than undefined behavior.
 */
class CheckpointReader
{
  public:
    explicit CheckpointReader(const std::string &blob);

    /** Header validation verdict; reads only succeed when Ok. */
    CheckpointStatus status() const { return status_; }

    bool u8(std::uint8_t *out);
    bool u32(std::uint32_t *out);
    bool u64(std::uint64_t *out);
    bool i32(std::int32_t *out);
    bool i64(std::int64_t *out);
    bool boolean(bool *out);
    bool f64(double *out);
    bool f64Array(double *p, std::size_t n);
    bool str(std::string *out);

    /** True once any read ran past the payload end. */
    bool failed() const { return failed_; }

    /** True when every payload byte has been consumed. */
    bool atEnd() const { return pos_ == payload_.size(); }

    /** Payload bytes not yet consumed: a stored count that needs more
     *  is corrupt, whatever the CRC says. */
    std::size_t remaining() const { return payload_.size() - pos_; }

  private:
    bool take(void *out, std::size_t n);

    std::string payload_;
    std::size_t pos_ = 0;
    CheckpointStatus status_ = CheckpointStatus::Truncated;
    bool failed_ = false;
};

/**
 * Symmetric field transfer. A checkpointed type lists its state once,
 * in a private `template <class Io, class Self> static bool
 * transfer(Io &io, Self &self)`: its checkpoint() calls it with a
 * CheckpointWriter and `*this` (Self const), its restore() with a
 * CheckpointReader. field(w, x) appends x and returns true; field(r, x)
 * reads x back and returns false on a short payload. Write order and
 * read order therefore cannot drift apart, and each reader overload
 * binds only its exact type, so both sides agree on every width.
 */
inline bool
field(CheckpointWriter &w, std::uint8_t v) { w.u8(v); return true; }
inline bool
field(CheckpointWriter &w, std::uint32_t v) { w.u32(v); return true; }
inline bool
field(CheckpointWriter &w, std::uint64_t v) { w.u64(v); return true; }
inline bool
field(CheckpointWriter &w, std::int32_t v) { w.i32(v); return true; }
inline bool
field(CheckpointWriter &w, std::int64_t v) { w.i64(v); return true; }
inline bool
field(CheckpointWriter &w, bool v) { w.boolean(v); return true; }
inline bool
field(CheckpointWriter &w, double v) { w.f64(v); return true; }
inline bool
field(CheckpointWriter &w, const std::string &v) { w.str(v); return true; }
inline bool
field(CheckpointReader &r, std::uint8_t &v) { return r.u8(&v); }
inline bool
field(CheckpointReader &r, std::uint32_t &v) { return r.u32(&v); }
inline bool
field(CheckpointReader &r, std::uint64_t &v) { return r.u64(&v); }
inline bool
field(CheckpointReader &r, std::int32_t &v) { return r.i32(&v); }
inline bool
field(CheckpointReader &r, std::int64_t &v) { return r.i64(&v); }
inline bool
field(CheckpointReader &r, bool &v) { return r.boolean(&v); }
inline bool
field(CheckpointReader &r, double &v) { return r.f64(&v); }
inline bool
field(CheckpointReader &r, std::string &v) { return r.str(&v); }

/** A type with its own checkpoint()/restore() nests as one field. */
template <class T>
concept Checkpointable =
    requires(const T &c, T &m, CheckpointWriter &w, CheckpointReader &r) {
        c.checkpoint(w);
        { m.restore(r) } -> std::same_as<bool>;
    };

template <Checkpointable T>
bool
field(CheckpointWriter &w, const T &x)
{
    x.checkpoint(w);
    return true;
}

template <Checkpointable T>
bool
field(CheckpointReader &r, T &x)
{
    return x.restore(r);
}

/** Write `v`; a read succeeds only when the stored value equals `v`
 *  (a shape the restoring object already has, e.g. its robot count). */
template <class Io, class T>
bool
expectField(Io &io, const T &v)
{
    T stored = v;
    return field(io, stored) && stored == v;
}

/** Store an enum as its `Wire` integer; a read of a value above `max`
 *  fails and leaves `e` untouched. */
template <class Wire, class E>
bool
enumField(CheckpointWriter &w, E e, E)
{
    return field(w, static_cast<Wire>(e));
}

template <class Wire, class E>
bool
enumField(CheckpointReader &r, E &e, E max)
{
    Wire v{};
    if (!field(r, v) || v > static_cast<Wire>(max))
        return false;
    e = static_cast<E>(v);
    return true;
}

/** Transfer every element of a fixed-length range; no count is stored,
 *  the restoring object already has the length. */
template <class Io, class Range>
bool
eachField(Io &io, Range &range)
{
    for (auto &x : range)
        if (!field(io, x))
            return false;
    return true;
}

/** A counted list: a u64 length, then `each(io, element)` per element.
 *  A read checks the length against `max`, and against the bytes left
 *  (every element takes at least one), before it resizes `list`. */
template <class Io, class List, class Each>
bool
listField(Io &io, List &list, Each each, std::uint64_t max = UINT64_MAX)
{
    std::uint64_t n = list.size();
    if (!field(io, n) || n > max)
        return false;
    if constexpr (std::is_same_v<Io, CheckpointReader>) {
        if (n > io.remaining())
            return false;
        list.resize(static_cast<std::size_t>(n));
    }
    for (auto &x : list)
        if (!each(io, x))
            return false;
    return true;
}

/**
 * Write a blob to path via a temporary sibling + rename, so a crash
 * mid-write never leaves a torn file at path. Returns false (with the
 * temporary cleaned up) on any I/O failure; never throws.
 */
bool writeFileAtomic(const std::string &path, const std::string &data);

/**
 * Read an entire file into *out. Returns false when the file does not
 * exist or cannot be read; never throws.
 */
bool readFile(const std::string &path, std::string *out);

} // namespace robox::support

#endif // ROBOX_SUPPORT_CHECKPOINT_HH
