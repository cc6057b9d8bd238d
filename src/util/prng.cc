/**
 * @file
 * Implementation of SplitMix64 seed expansion and Xoshiro256**.
 */

#include "util/prng.hh"

#include <algorithm>
#include <numeric>

#include "util/hash.hh"
#include "util/logging.hh"

namespace fsp {

namespace {

inline std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

std::uint64_t
splitMix64(std::uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
deriveSeed(std::uint64_t parent, std::string_view label)
{
    // FNV-1a over the label, folded into the parent, then mixed.
    std::uint64_t state = parent ^ fnv1a64(label);
    return splitMix64(state);
}

Prng::Prng(std::uint64_t seed) : seed_(seed)
{
    std::uint64_t sm = seed;
    for (auto &word : state_)
        word = splitMix64(sm);
}

Prng::result_type
Prng::operator()()
{
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;

    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);

    return result;
}

std::uint64_t
Prng::below(std::uint64_t bound)
{
    FSP_ASSERT(bound > 0, "Prng::below requires a positive bound");
    // Lemire's nearly-divisionless unbiased bounded generation.
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    std::uint64_t l = static_cast<std::uint64_t>(m);
    if (l < bound) {
        std::uint64_t threshold = -bound % bound;
        while (l < threshold) {
            x = (*this)();
            m = static_cast<__uint128_t>(x) * bound;
            l = static_cast<std::uint64_t>(m);
        }
    }
    return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t
Prng::range(std::int64_t lo, std::int64_t hi)
{
    FSP_ASSERT(lo <= hi, "Prng::range requires lo <= hi");
    std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(below(span));
}

double
Prng::uniform()
{
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double
Prng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

bool
Prng::chance(double p)
{
    return uniform() < p;
}

Prng
Prng::fork(std::string_view label) const
{
    return Prng(deriveSeed(seed_, label));
}

std::vector<std::size_t>
Prng::sampleWithoutReplacement(std::size_t population, std::size_t count)
{
    if (count >= population) {
        std::vector<std::size_t> all(population);
        std::iota(all.begin(), all.end(), std::size_t{0});
        return all;
    }

    // Floyd's algorithm: O(count) expected draws, no O(population) storage
    // beyond the result set.
    std::vector<std::size_t> chosen;
    chosen.reserve(count);
    for (std::size_t j = population - count; j < population; ++j) {
        std::size_t t = static_cast<std::size_t>(below(j + 1));
        if (std::find(chosen.begin(), chosen.end(), t) == chosen.end())
            chosen.push_back(t);
        else
            chosen.push_back(j);
    }
    std::sort(chosen.begin(), chosen.end());
    return chosen;
}

} // namespace fsp
