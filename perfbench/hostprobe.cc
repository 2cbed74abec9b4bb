/**
 * @file
 * perfbench_hostprobe: a fixed measure of the host's own speed, run by
 * steadiness.py before and after every benchmark run.
 *
 * On a shared VM the machine's speed drifts by tens of percent over
 * minutes, and every timing metric drifts with it.  The probe does the
 * same work on every run: a random pointer chase of 3 M steps through
 * a 128 MiB array (memory latency), then filling and sorting 2 Mi
 * random ints (mostly in cache).  It prints the two times in ms on
 * one line, so a set-to-set difference in a timing metric can be set
 * against the host's own difference over the same runs.
 */

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <random>
#include <vector>

#include "trace.hh"

int
main()
{
    using perfbench::Clock;
    using perfbench::msSince;

    // Sattolo's shuffle: one cycle through every slot, so the chase
    // never settles into a short, cached loop.
    std::vector<unsigned> next(std::size_t{1} << 25);
    std::iota(next.begin(), next.end(), 0u);
    std::mt19937 rng(1);
    for (std::size_t i = next.size() - 1; i > 0; --i)
        std::swap(next[i], next[rng() % i]);

    auto t0 = Clock::now();
    unsigned at = 0;
    for (int step = 0; step < 3000000; ++step)
        at = next[at];
    const double chase_ms = msSince(t0);

    t0 = Clock::now();
    std::vector<int> values(std::size_t{1} << 21);
    std::mt19937 fill(at);
    for (int &v : values)
        v = static_cast<int>(fill());
    std::sort(values.begin(), values.end());
    const double sort_ms = msSince(t0);

    std::printf("%.3f %.3f\n", chase_ms, sort_ms);
    return 0;
}
