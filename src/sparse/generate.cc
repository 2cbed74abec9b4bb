#include "sparse/generate.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace sparsepipe {

namespace {

/** Random edge weight in a range that keeps all semirings happy. */
Value
randomWeight(Rng &rng)
{
    return rng.nextRange(0.1, 1.0);
}

} // anonymous namespace

CooMatrix
generateUniform(Idx n, Idx nnz, Rng &rng)
{
    if (n <= 0)
        sp_panic("generateUniform: n must be positive");
    CooMatrix out(n, n);
    out.reserve(static_cast<std::size_t>(nnz));
    for (Idx i = 0; i < nnz; ++i) {
        Idx r = static_cast<Idx>(rng.nextBelow(n));
        Idx c = static_cast<Idx>(rng.nextBelow(n));
        out.add(r, c, randomWeight(rng));
    }
    out.canonicalize();
    return out;
}

CooMatrix
generateRmat(Idx n, Idx nnz, Rng &rng, double a, double b, double c)
{
    if (n <= 0)
        sp_panic("generateRmat: n must be positive");
    if (a + b + c >= 1.0)
        sp_panic("generateRmat: quadrant probabilities exceed 1");

    // Round n up to a power of two for the recursion, then reject
    // coordinates that land outside the requested extent.
    Idx size = 1;
    while (size < n)
        size <<= 1;

    // Quadrant per level from one draw p: top-left if p < a, else
    // top-right if p < a + b, else bottom-left if p < a + b + c,
    // else bottom-right.  The descent is computed branch-free from
    // the same comparisons, since p is unpredictable by design.
    const double ab = a + b;
    const double abc = ab + c;
    CooMatrix out(n, n);
    out.reserve(static_cast<std::size_t>(nnz));
    Idx placed = 0;
    while (placed < nnz) {
        Idx r = 0, col = 0;
        for (Idx half = size >> 1; half > 0; half >>= 1) {
            const double p = rng.nextDouble();
            const Idx past_a = p >= a;
            const Idx past_ab = past_a & (p >= ab);
            const Idx past_abc = past_ab & (p >= abc);
            r += half & -past_ab;
            col += half & -((past_a & ~past_ab) | past_abc);
        }
        if (r >= n || col >= n)
            continue;
        out.add(r, col, randomWeight(rng));
        ++placed;
    }
    out.canonicalize();
    return out;
}

CooMatrix
generateBanded(Idx n, Idx band, double per_row, Rng &rng)
{
    if (n <= 0 || band <= 0)
        sp_panic("generateBanded: invalid parameters");
    CooMatrix out(n, n);
    for (Idx r = 0; r < n; ++r) {
        Idx lo = std::max<Idx>(0, r - band);
        Idx hi = std::min<Idx>(n - 1, r + band);
        Idx span = hi - lo + 1;
        Idx want = static_cast<Idx>(per_row);
        if (rng.nextDouble() < per_row - std::floor(per_row))
            ++want;
        want = std::min(want, span);
        for (Idx k = 0; k < want; ++k) {
            Idx c = lo + static_cast<Idx>(rng.nextBelow(span));
            out.add(r, c, randomWeight(rng));
        }
    }
    out.canonicalize();
    return out;
}

CooMatrix
generateClustered(Idx n, Idx nnz, Idx clusters, double within, Rng &rng)
{
    if (n <= 0 || clusters <= 0 || clusters > n)
        sp_panic("generateClustered: invalid parameters");
    CooMatrix out(n, n);
    out.reserve(static_cast<std::size_t>(nnz));
    const Idx block = (n + clusters - 1) / clusters;
    for (Idx i = 0; i < nnz; ++i) {
        if (rng.nextDouble() < within) {
            Idx cluster = static_cast<Idx>(rng.nextBelow(clusters));
            Idx base = cluster * block;
            Idx extent = std::min(block, n - base);
            if (extent <= 0)
                continue;
            Idx r = base + static_cast<Idx>(rng.nextBelow(extent));
            Idx c = base + static_cast<Idx>(rng.nextBelow(extent));
            out.add(r, c, randomWeight(rng));
        } else {
            Idx r = static_cast<Idx>(rng.nextBelow(n));
            Idx c = static_cast<Idx>(rng.nextBelow(n));
            out.add(r, c, randomWeight(rng));
        }
    }
    out.canonicalize();
    return out;
}

CooMatrix
generateLowerSkew(Idx n, Idx nnz, double low_frac, Rng &rng)
{
    if (n <= 0)
        sp_panic("generateLowerSkew: n must be positive");
    CooMatrix out(n, n);
    out.reserve(static_cast<std::size_t>(nnz));
    for (Idx i = 0; i < nnz; ++i) {
        Idx r = static_cast<Idx>(rng.nextBelow(n));
        Idx c = static_cast<Idx>(rng.nextBelow(n));
        if (r != c && rng.nextDouble() < low_frac && r < c)
            std::swap(r, c);
        out.add(r, c, randomWeight(rng));
    }
    out.canonicalize();
    return out;
}

CooMatrix
generatePoisson2D(Idx grid)
{
    if (grid <= 0)
        sp_panic("generatePoisson2D: grid must be positive");
    const Idx n = grid * grid;
    CooMatrix out(n, n);
    out.reserve(static_cast<std::size_t>(n) * 5);
    auto id = [grid](Idx x, Idx y) { return x * grid + y; };
    for (Idx x = 0; x < grid; ++x) {
        for (Idx y = 0; y < grid; ++y) {
            Idx center = id(x, y);
            out.add(center, center, 4.0);
            if (x > 0)
                out.add(center, id(x - 1, y), -1.0);
            if (x + 1 < grid)
                out.add(center, id(x + 1, y), -1.0);
            if (y > 0)
                out.add(center, id(x, y - 1), -1.0);
            if (y + 1 < grid)
                out.add(center, id(x, y + 1), -1.0);
        }
    }
    out.canonicalize();
    return out;
}

CooMatrix
rowStochastic(CooMatrix m)
{
    m.canonicalize();
    std::vector<Idx> outdeg(static_cast<std::size_t>(m.rows()), 0);
    for (const Triplet &t : m.entries())
        ++outdeg[static_cast<std::size_t>(t.row)];
    for (Triplet &t : m.entries())
        t.val = 1.0 / static_cast<Value>(outdeg[
            static_cast<std::size_t>(t.row)]);
    return m;
}

} // namespace sparsepipe
