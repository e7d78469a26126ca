/**
 * @file
 * Stateless per-index seed derivation shared by every parallel
 * fan-out in the repo.
 *
 * exec::Campaign derives one seed per sweep repetition and
 * fault::DefectSampler derives one per Monte-Carlo sample; both must
 * obey the same determinism contract (any thread can derive any
 * index's seed independently, in any order), so they share this one
 * implementation instead of keeping private copies.
 */

#ifndef WSS_UTIL_SEED_HPP
#define WSS_UTIL_SEED_HPP

#include <cstdint>

namespace wss {

/**
 * Stateless per-index substream derivation: index 0 returns @p base
 * unchanged; index i > 0 maps (base, i) through the splitmix64
 * finalizer — the same mixer Rng's constructor uses to expand seeds,
 * applied statelessly per index. Unlike Rng::split() it does not
 * depend on call order, so any thread can derive any index's seed
 * independently.
 */
inline std::uint64_t
deriveSeed(std::uint64_t base, std::uint64_t index)
{
    if (index == 0)
        return base;
    std::uint64_t z = base + index * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace wss

#endif // WSS_UTIL_SEED_HPP
