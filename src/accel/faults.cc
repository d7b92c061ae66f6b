/**
 * @file
 * Implementation of deterministic seeded fault injection.
 */

#include "accel/faults.hh"

#include "support/hash.hh"
#include "support/logging.hh"

namespace robox::accel
{

namespace
{

using support::splitmix64;

/** Hash of one access identity under one seed. Chained mixes keep the
 *  site/cycle/word contributions from cancelling each other. */
std::uint64_t
accessHash(std::uint64_t seed, FaultSite site, std::uint64_t cycle,
           std::uint64_t word)
{
    std::uint64_t h = splitmix64(seed ^ 0x5bf03635f0a5a8d5ull);
    h = splitmix64(h ^ static_cast<std::uint64_t>(site));
    h = splitmix64(h ^ cycle);
    h = splitmix64(h ^ word);
    return h;
}

} // namespace

int
FaultInjector::faultBitAt(FaultSite site, std::uint64_t cycle,
                          std::uint64_t word) const
{
    if (campaign_.upsetRate <= 0.0)
        return -1;
    if (!(campaign_.siteMask & static_cast<std::uint32_t>(site)))
        return -1;
    if (cycle < campaign_.cycleBegin || cycle >= campaign_.cycleEnd)
        return -1;
    if (campaign_.targetWord >= 0 &&
        word != static_cast<std::uint64_t>(campaign_.targetWord)) {
        return -1;
    }

    std::uint64_t h = accessHash(campaign_.seed, site, cycle, word);
    // Top 53 bits -> uniform double in [0, 1); exact and portable.
    double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    if (u >= campaign_.upsetRate)
        return -1;

    if (campaign_.targetBit >= 0)
        return campaign_.targetBit & 31;
    // Derive the bit from an independent mix so it is not correlated
    // with the strike decision.
    return static_cast<int>(splitmix64(h) & 31);
}

Fixed
FaultInjector::access(Fixed value, FaultSite site, std::uint64_t cycle,
                      std::uint64_t word)
{
    if (campaign_.maxFaults && log_.size() >= campaign_.maxFaults)
        return value;
    int bit = faultBitAt(site, cycle, word);
    if (bit < 0)
        return value;

    std::int32_t before = value.raw();
    std::int32_t after = static_cast<std::int32_t>(
        static_cast<std::uint32_t>(before) ^ (1u << bit));
    log_.push_back({cycle, site, word, bit, before, after});
    return Fixed::fromRaw(after);
}

std::function<std::uint64_t(std::vector<Fixed> &, std::uint64_t)>
FaultInjector::tapeHook()
{
    return [this](std::vector<Fixed> &env,
                  std::uint64_t cycle) -> std::uint64_t {
        std::uint64_t injected = 0;
        for (std::size_t w = 0; w < env.size(); ++w) {
            Fixed upset = access(env[w], FaultSite::Scratchpad, cycle,
                                 static_cast<std::uint64_t>(w));
            if (upset.raw() != env[w].raw()) {
                env[w] = upset;
                ++injected;
            }
        }
        return injected;
    };
}

} // namespace robox::accel
