#include "util/random.hh"

namespace sparsepipe {

namespace {

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // anonymous namespace

void
Rng::reseed(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &s : state)
        s = splitmix64(sm);
}

std::uint64_t
Rng::nextBelow(std::uint64_t bound)
{
    if (bound == 0)
        return 0;
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t limit = bound * (UINT64_MAX / bound);
    std::uint64_t x;
    do {
        x = next64();
    } while (x >= limit);
    return x % bound;
}

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t x = seed ^ (stream * 0x9e3779b97f4a7c15ULL);
    // Two finalizer rounds so adjacent streams decorrelate fully.
    splitmix64(x);
    return splitmix64(x);
}

} // namespace sparsepipe
