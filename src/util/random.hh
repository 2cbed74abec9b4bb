/**
 * @file
 * Deterministic pseudo-random number generation for Sparsepipe.
 *
 * All stochastic pieces of the code base (matrix generators, workload
 * sampling) draw from this generator so that runs are reproducible
 * from a single seed.  The implementation is xoshiro256** which is
 * fast, has a 256-bit state, and passes BigCrush.
 */

#ifndef SPARSEPIPE_UTIL_RANDOM_HH
#define SPARSEPIPE_UTIL_RANDOM_HH

#include <cstdint>

namespace sparsepipe {

/**
 * Deterministic 64-bit PRNG (xoshiro256**) seeded via splitmix64.
 */
class Rng
{
  public:
    /** Construct a generator from a 64-bit seed. */
    explicit Rng(std::uint64_t seed = 0x5eed5eedULL) { reseed(seed); }

    /** Re-initialise the state from a seed. */
    void reseed(std::uint64_t seed);

    /** @return the next raw 64-bit output. */
    std::uint64_t next64()
    {
        const std::uint64_t result = rotl(state[1] * 5, 7) * 9;
        const std::uint64_t t = state[1] << 17;

        state[2] ^= state[0];
        state[3] ^= state[1];
        state[1] ^= state[2];
        state[0] ^= state[3];
        state[2] ^= t;
        state[3] = rotl(state[3], 45);

        return result;
    }

    /** @return a uniformly distributed integer in [0, bound). */
    std::uint64_t nextBelow(std::uint64_t bound);

    /** @return a uniformly distributed double in [0, 1). */
    double nextDouble() { return (next64() >> 11) * 0x1.0p-53; }

    /** @return a double in [lo, hi). */
    double nextRange(double lo, double hi)
    {
        return lo + (hi - lo) * nextDouble();
    }

    /** @return true with probability p. */
    bool nextBool(double p) { return nextDouble() < p; }

  private:
    static std::uint64_t rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state[4];
};

/**
 * Mix a base seed with a stream index into a statistically
 * independent seed (splitmix64 finalizer).  Batch workloads seed
 * job k with mixSeed(seed, k) so every job is reproducible from the
 * single base seed regardless of worker count or completion order.
 */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t stream);

} // namespace sparsepipe

#endif // SPARSEPIPE_UTIL_RANDOM_HH
