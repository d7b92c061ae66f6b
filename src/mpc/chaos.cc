/**
 * @file
 * Implementation of deterministic chaos injection.
 */

#include "mpc/chaos.hh"

#include <chrono>
#include <cmath>
#include <limits>

#include "support/hash.hh"

namespace robox::mpc
{

namespace
{

using support::splitmix64;

/** Chained hash of one (channel, batch, robot) identity under one
 *  seed. Distinct per-channel salts keep the stall/burst/poison
 *  streams independent. */
std::uint64_t
chaosHash(std::uint64_t seed, std::uint64_t salt, std::uint64_t batch,
          std::uint64_t robot)
{
    std::uint64_t h = splitmix64(seed ^ salt);
    h = splitmix64(h ^ batch);
    h = splitmix64(h ^ robot);
    return h;
}

/** Top 53 bits -> uniform double in [0, 1); exact and portable. */
double
uniform(std::uint64_t h)
{
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

constexpr std::uint64_t kStallSalt = 0x7c1592a6b3d84e0full;
constexpr std::uint64_t kBurstSalt = 0x2f8d3a915c6e47b1ull;
constexpr std::uint64_t kPoisonSalt = 0xa64b8e2d19f7c353ull;
constexpr std::uint64_t kLinkDropSalt = 0x5e93d7b02a48c16dull;
constexpr std::uint64_t kLinkDelaySalt = 0xc2a17f3e86b5d409ull;
constexpr std::uint64_t kLinkDupSalt = 0x39f6c48b5d12e7a0ull;
constexpr std::uint64_t kLinkBlackoutSalt = 0x84d2a90f6e3c51b7ull;

/** Link-channel decision hash: one (dir, batch, robot, nonce)
 *  transmission identity under one per-class salt. */
std::uint64_t
linkHash(std::uint64_t seed, std::uint64_t salt, robox::mpc::LinkDirection dir,
         std::uint64_t batch, std::uint64_t robot, std::uint64_t nonce)
{
    std::uint64_t h = chaosHash(seed, salt, batch, robot);
    h = splitmix64(h ^ static_cast<std::uint64_t>(dir));
    return splitmix64(h ^ nonce);
}

} // namespace

const char *
toString(PoisonKind kind)
{
    switch (kind) {
      case PoisonKind::None: return "none";
      case PoisonKind::NonFinite: return "non-finite";
      case PoisonKind::OutOfRange: return "out-of-range";
      case PoisonKind::Jump: return "jump";
      case PoisonKind::Frozen: return "frozen";
    }
    return "unknown";
}

const char *
toString(LinkDirection dir)
{
    switch (dir) {
      case LinkDirection::Uplink: return "uplink";
      case LinkDirection::Downlink: return "downlink";
    }
    return "unknown";
}

bool
ChaosEngine::linkBlackoutAt(std::uint64_t batch, std::size_t robot) const
{
    if (spec_.linkBlackoutRate <= 0.0)
        return false;
    // Same pure episode-window scan as poisonAt(): an episode started
    // at batch s covers [s, s + length), so scanning the candidate
    // starts keeps this a function of (spec, batch, robot) only.
    const std::uint64_t len = static_cast<std::uint64_t>(
        spec_.linkBlackoutBatches > 0 ? spec_.linkBlackoutBatches : 1);
    for (std::uint64_t d = 0; d < len && d <= batch; ++d) {
        std::uint64_t h = chaosHash(spec_.seed, kLinkBlackoutSalt,
                                    batch - d,
                                    static_cast<std::uint64_t>(robot));
        if (uniform(h) < spec_.linkBlackoutRate)
            return true;
    }
    return false;
}

bool
ChaosEngine::linkDropAt(LinkDirection dir, std::uint64_t batch,
                        std::size_t robot, std::uint64_t nonce) const
{
    if (linkBlackoutAt(batch, robot))
        return true;
    const double rate = dir == LinkDirection::Uplink
                            ? spec_.uplinkDropRate
                            : spec_.downlinkDropRate;
    if (rate <= 0.0)
        return false;
    return uniform(linkHash(spec_.seed, kLinkDropSalt, dir, batch,
                            static_cast<std::uint64_t>(robot), nonce)) <
           rate;
}

int
ChaosEngine::linkDelayAt(LinkDirection dir, std::uint64_t batch,
                         std::size_t robot, std::uint64_t nonce) const
{
    const double rate = dir == LinkDirection::Uplink
                            ? spec_.uplinkDelayRate
                            : spec_.downlinkDelayRate;
    if (rate <= 0.0 || spec_.linkDelayPeriodsMax < 1)
        return 0;
    std::uint64_t h = linkHash(spec_.seed, kLinkDelaySalt, dir, batch,
                               static_cast<std::uint64_t>(robot), nonce);
    if (uniform(h) >= rate)
        return 0;
    // Magnitude from an independent mix so it is uncorrelated with
    // the fire decision; uniform over 1..max.
    const auto max = static_cast<std::uint64_t>(spec_.linkDelayPeriodsMax);
    return static_cast<int>(1 + splitmix64(h) % max);
}

bool
ChaosEngine::linkDupAt(LinkDirection dir, std::uint64_t batch,
                       std::size_t robot, std::uint64_t nonce) const
{
    const double rate = dir == LinkDirection::Uplink
                            ? spec_.uplinkDupRate
                            : spec_.downlinkDupRate;
    if (rate <= 0.0)
        return false;
    return uniform(linkHash(spec_.seed, kLinkDupSalt, dir, batch,
                            static_cast<std::uint64_t>(robot), nonce)) <
           rate;
}

bool
ChaosEngine::linkImpaired() const
{
    return spec_.uplinkDropRate > 0.0 || spec_.downlinkDropRate > 0.0 ||
           spec_.uplinkDelayRate > 0.0 || spec_.downlinkDelayRate > 0.0 ||
           spec_.uplinkDupRate > 0.0 || spec_.downlinkDupRate > 0.0 ||
           spec_.linkBlackoutRate > 0.0;
}

bool
ChaosEngine::stallAt(std::uint64_t batch, std::size_t robot) const
{
    if (spec_.stallRate <= 0.0)
        return false;
    std::uint64_t h = chaosHash(spec_.seed, kStallSalt, batch,
                                static_cast<std::uint64_t>(robot));
    return uniform(h) < spec_.stallRate;
}

bool
ChaosEngine::burstAt(std::uint64_t batch) const
{
    if (spec_.burstRate <= 0.0)
        return false;
    std::uint64_t h = chaosHash(spec_.seed, kBurstSalt, batch, 0);
    return uniform(h) < spec_.burstRate;
}

PoisonKind
ChaosEngine::poisonAt(std::uint64_t batch, std::size_t robot) const
{
    if (spec_.poisonRate <= 0.0)
        return PoisonKind::None;
    // An episode started at batch s covers [s, s + episode). Scanning
    // the episode-length window of candidate starts keeps the check a
    // pure function of (spec, batch, robot) — no mutable episode
    // state to race on or to drift between replays. The most recent
    // start wins so overlapping episodes restart cleanly.
    const std::uint64_t len = static_cast<std::uint64_t>(
        spec_.poisonEpisodeBatches > 0 ? spec_.poisonEpisodeBatches : 1);
    for (std::uint64_t d = 0; d < len && d <= batch; ++d) {
        std::uint64_t start = batch - d;
        std::uint64_t h = chaosHash(spec_.seed, kPoisonSalt, start,
                                    static_cast<std::uint64_t>(robot));
        if (uniform(h) >= spec_.poisonRate)
            continue;
        // Kind from an independent mix so it is not correlated with
        // the start decision; constant across the episode.
        switch (splitmix64(h) & 3) {
          case 0: return PoisonKind::NonFinite;
          case 1: return PoisonKind::OutOfRange;
          case 2: return PoisonKind::Jump;
          default: return PoisonKind::Frozen;
        }
    }
    return PoisonKind::None;
}

double
ChaosEngine::virtualCost(std::uint64_t batch, std::size_t robot,
                         double measured) const
{
    double cost = spec_.virtualSolveCostSeconds > 0.0
                      ? spec_.virtualSolveCostSeconds
                      : measured;
    if (burstAt(batch) && spec_.burstFactor > 0.0)
        cost *= spec_.burstFactor;
    if (stallAt(batch, robot))
        cost += spec_.stallCostSeconds;
    return cost;
}

void
ChaosEngine::poisonState(std::uint64_t batch, std::size_t robot,
                         const Vector &prev, Vector &x) const
{
    PoisonKind kind = poisonAt(batch, robot);
    if (kind == PoisonKind::None || x.size() == 0)
        return;
    if (kind == PoisonKind::Frozen) {
        if (prev.size() == x.size())
            x.copyFrom(prev);
        return;
    }
    // Component and sign from an independent mix of the identity hash
    // (component constant across an episode would also be fine, but
    // keying on the current batch exercises more of the gate).
    std::uint64_t h =
        splitmix64(chaosHash(spec_.seed, kPoisonSalt ^ 0x11ull, batch,
                             static_cast<std::uint64_t>(robot)));
    std::size_t j = static_cast<std::size_t>(h % x.size());
    double sign = (splitmix64(h) & 1) ? 1.0 : -1.0;
    switch (kind) {
      case PoisonKind::NonFinite:
        x[j] = std::numeric_limits<double>::quiet_NaN();
        break;
      case PoisonKind::OutOfRange:
        x[j] = sign * spec_.poisonMagnitude;
        break;
      case PoisonKind::Jump:
        x[j] += sign * spec_.poisonMagnitude;
        break;
      default:
        break;
    }
}

std::function<double(std::size_t, double)>
ChaosEngine::costHook()
{
    return [this](std::size_t robot, double measured) {
        return virtualCost(batch_, robot, measured);
    };
}

std::function<void(std::size_t)>
ChaosEngine::stallHook()
{
    return [this](std::size_t robot) {
        if (spec_.stallSpinSeconds <= 0.0 || !stallAt(batch_, robot))
            return;
        // Real busy-wait: perturbs thread interleavings (tsan fodder)
        // without ever touching solver state or outputs.
        auto until = std::chrono::steady_clock::now() +
                     std::chrono::duration<double>(spec_.stallSpinSeconds);
        while (std::chrono::steady_clock::now() < until) {
        }
    };
}

} // namespace robox::mpc
