/**
 * @file
 * Bitwise equivalence of the preprocessing fast paths against short
 * reference copies of the straightforward algorithms they replace:
 *
 *  - vanillaReorder (indexed 4-ary heap) vs a lazy binary heap;
 *  - applySymmetricPermutation (row-direct) vs add-then-canonicalize;
 *  - prepareSpd (row merge with the CSC twin) vs triplet-wise
 *    symmetrise-then-canonicalize;
 *  - buildBlockedLayout (stamp array) vs a hash set of block ids.
 *
 * Inputs are the differential fuzzer's case-generator operands plus
 * hand-built edge cases (ties, self-loops, empty rows, n = 0 / 1,
 * cancelling pairs, duplicate and unsorted triplets).
 */

#include <algorithm>
#include <cstring>
#include <queue>
#include <unordered_set>

#include <gtest/gtest.h>

#include "apps/apps.hh"
#include "check/case_gen.hh"
#include "prep/blocked.hh"
#include "prep/reorder.hh"
#include "util/random.hh"

namespace sparsepipe {
namespace {

std::vector<Idx>
referenceVanilla(const CsrMatrix &matrix)
{
    const Idx n = matrix.rows();
    std::vector<Idx> indeg(static_cast<std::size_t>(n), 0);
    for (Idx c : matrix.colIdx())
        ++indeg[static_cast<std::size_t>(c)];
    using Entry = std::pair<Idx, Idx>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>>
        heap;
    for (Idx v = 0; v < n; ++v)
        heap.push({indeg[static_cast<std::size_t>(v)], v});
    std::vector<char> placed(static_cast<std::size_t>(n), 0);
    std::vector<Idx> perm(static_cast<std::size_t>(n), -1);
    Idx next_label = 0;
    while (!heap.empty()) {
        auto [deg, v] = heap.top();
        heap.pop();
        auto vi = static_cast<std::size_t>(v);
        if (placed[vi] || deg != indeg[vi])
            continue;
        placed[vi] = 1;
        perm[vi] = next_label++;
        for (Idx c : matrix.rowCols(v)) {
            auto ci = static_cast<std::size_t>(c);
            if (!placed[ci])
                heap.push({--indeg[ci], c});
        }
    }
    return perm;
}

CooMatrix
referencePermute(const CooMatrix &matrix, const std::vector<Idx> &perm)
{
    CooMatrix out(matrix.rows(), matrix.cols());
    for (const Triplet &t : matrix.entries())
        out.add(perm[static_cast<std::size_t>(t.row)],
                perm[static_cast<std::size_t>(t.col)], t.val);
    out.canonicalize();
    return out;
}

CsrMatrix
referenceSpd(const CooMatrix &m)
{
    CooMatrix sym(m.rows(), m.cols());
    for (const Triplet &t : m.entries()) {
        if (t.row == t.col)
            continue;
        sym.add(t.row, t.col, 0.5 * t.val);
        sym.add(t.col, t.row, 0.5 * t.val);
    }
    sym.canonicalize();
    std::vector<Value> row_abs(static_cast<std::size_t>(m.rows()), 0.0);
    for (const Triplet &t : sym.entries())
        row_abs[static_cast<std::size_t>(t.row)] += std::abs(t.val);
    for (Idx r = 0; r < m.rows(); ++r)
        sym.add(r, r, 1.0 + row_abs[static_cast<std::size_t>(r)]);
    sym.canonicalize();
    return CsrMatrix::fromCoo(std::move(sym));
}

Idx
referenceBlocks(const CsrMatrix &matrix, Idx block)
{
    std::unordered_set<std::uint64_t> blocks;
    for (Idx r = 0; r < matrix.rows(); ++r)
        for (Idx c : matrix.rowCols(r))
            blocks.insert(static_cast<std::uint64_t>(r / block) << 32 |
                          static_cast<std::uint64_t>(c / block));
    return static_cast<Idx>(blocks.size());
}

template <typename T>
bool
sameBits(const std::vector<T> &a, const std::vector<T> &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

void
expectSameCoo(const CooMatrix &a, const CooMatrix &b)
{
    EXPECT_EQ(a.rows(), b.rows());
    EXPECT_EQ(a.cols(), b.cols());
    EXPECT_TRUE(sameBits(a.entries(), b.entries()));
}

void
expectSameCsr(const CsrMatrix &a, const CsrMatrix &b)
{
    EXPECT_EQ(a.rows(), b.rows());
    EXPECT_EQ(a.cols(), b.cols());
    EXPECT_EQ(a.rowPtr(), b.rowPtr());
    EXPECT_EQ(a.colIdx(), b.colIdx());
    EXPECT_TRUE(sameBits(a.vals(), b.vals()));
}

/** Every fast path against its reference on one square COO. */
void
checkAll(const CooMatrix &raw, std::uint64_t seed)
{
    CooMatrix canon = raw;
    canon.canonicalize();
    const CsrMatrix csr = CsrMatrix::fromCoo(canon);

    const std::vector<Idx> vanilla = vanillaReorder(csr);
    EXPECT_EQ(vanilla, referenceVanilla(csr));

    Rng rng(seed);
    std::vector<Idx> shuffled = identityOrder(raw.rows());
    for (std::size_t i = shuffled.size(); i > 1; --i)
        std::swap(shuffled[i - 1], shuffled[rng.nextBelow(i)]);
    for (const std::vector<Idx> &perm :
         {vanilla, localityReorder(csr), shuffled}) {
        expectSameCoo(applySymmetricPermutation(raw, perm).value(),
                      referencePermute(raw, perm));
        expectSameCoo(applySymmetricPermutation(canon, perm).value(),
                      referencePermute(canon, perm));
    }

    expectSameCsr(prepareSpd(canon), referenceSpd(canon));

    for (Idx block : {1, 3, 16, 256})
        EXPECT_EQ(buildBlockedLayout(csr, block).value().nonzero_blocks,
                  referenceBlocks(csr, block));
}

CooMatrix
fromTriplets(Idx n, std::initializer_list<Triplet> ts)
{
    CooMatrix m(n, n);
    for (const Triplet &t : ts)
        m.add(t.row, t.col, t.val);
    return m;
}

TEST(PrepFastPath, MatchesReferenceOnGeneratedCases)
{
    for (std::uint64_t seed = 1; seed <= 150; ++seed) {
        SCOPED_TRACE(seed);
        checkAll(generateCase(seed).operand, seed);
    }
}

TEST(PrepFastPath, MatchesReferenceOnEdgeShapes)
{
    // n = 0 and n = 1 (with and without a self-loop).
    checkAll(CooMatrix(0, 0), 1);
    checkAll(CooMatrix(1, 1), 2);
    checkAll(fromTriplets(1, {{0, 0, 2.0}}), 3);
    // Every vertex ties on in-degree: a directed cycle, and a
    // complete graph with self-loops.
    checkAll(fromTriplets(4, {{0, 1, 1.0}, {1, 2, 1.0}, {2, 3, 1.0},
                              {3, 0, 1.0}}), 4);
    CooMatrix full(5, 5);
    for (Idx r = 0; r < 5; ++r)
        for (Idx c = 0; c < 5; ++c)
            full.add(r, c, 1.0 + static_cast<Value>(r * 5 + c));
    checkAll(full, 5);
    // Empty rows and columns around a few self-loops.
    checkAll(fromTriplets(6, {{1, 1, 3.0}, {1, 4, 0.5}, {4, 1, 0.25},
                              {4, 4, -2.0}}), 6);
    // a_ij = -a_ji pairs cancel in B and must be dropped; a lone
    // denormal halves to zero and must be dropped too.
    checkAll(fromTriplets(4, {{0, 2, 0.75}, {2, 0, -0.75}, {1, 3, 1.0},
                              {3, 1, -1.0}, {0, 1, 4.9e-324},
                              {3, 2, 0.5}}), 7);
}

TEST(PrepFastPath, PermuteMergesDuplicateUnsortedTriplets)
{
    // Duplicates (merged in insertion order), unsorted order, an
    // explicit zero, and a duplicate pair that cancels.
    const CooMatrix raw = fromTriplets(
        5, {{3, 1, 0.1}, {0, 4, 1.0}, {3, 1, 0.2}, {2, 2, 0.0},
            {4, 0, 5.0}, {0, 4, -1.0}, {1, 3, 0.3}, {3, 1, 0.7},
            {1, 1, 1e-17}, {1, 1, 1.0}});
    ASSERT_FALSE(raw.isClean());
    checkAll(raw, 8);
    for (const std::vector<Idx> &perm :
         {std::vector<Idx>{4, 3, 2, 1, 0}, std::vector<Idx>{2, 0, 4, 1, 3}})
        expectSameCoo(applySymmetricPermutation(raw, perm).value(),
                      referencePermute(raw, perm));
}

} // namespace
} // namespace sparsepipe
