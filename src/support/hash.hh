/**
 * @file
 * The splitmix64 finalizer: the one 64-bit mix behind every seeded,
 * replayable decision (fault injection, chaos channels, crash
 * schedules). Pure and portable, so equal inputs give equal decisions
 * on every platform.
 */

#ifndef ROBOX_SUPPORT_HASH_HH
#define ROBOX_SUPPORT_HASH_HH

#include <cstdint>

namespace robox::support
{

/** splitmix64 finalizer: a fast, well-mixed 64-bit permutation. */
inline std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace robox::support

#endif // ROBOX_SUPPORT_HASH_HH
