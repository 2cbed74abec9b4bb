/**
 * @file
 * Tests of the sub-tensor bucket decomposition and the Table I
 * residency sweep, checked against brute-force recomputation over
 * generated matrices.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "core/buckets.hh"
#include "test_helpers.hh"

namespace sparsepipe {
namespace {

/**
 * Dense (column step, row band) counts computed from the matrix
 * itself: the oracle grid the compact slabs must reproduce.  With
 * `transposed` the roles swap (steps over rows, bands over columns),
 * as in StepBuckets::buildTransposed.
 */
std::vector<std::vector<Idx>>
denseCounts(const CooMatrix &m, Idx t, bool transposed = false)
{
    CooMatrix canon = m;
    canon.canonicalize();
    const Idx majors = transposed ? m.rows() : m.cols();
    const Idx minors = transposed ? m.cols() : m.rows();
    std::vector<std::vector<Idx>> grid(
        static_cast<std::size_t>((majors + t - 1) / t),
        std::vector<Idx>(static_cast<std::size_t>((minors + t - 1) / t),
                         0));
    for (const Triplet &e : canon.entries()) {
        const Idx major = transposed ? e.row : e.col;
        const Idx minor = transposed ? e.col : e.row;
        ++grid[static_cast<std::size_t>(major / t)]
              [static_cast<std::size_t>(minor / t)];
    }
    return grid;
}

/** The dense grid a bucketing's column slab describes. */
std::vector<std::vector<Idx>>
gridOf(const StepBuckets &b)
{
    std::vector<std::vector<Idx>> grid(
        static_cast<std::size_t>(b.steps()),
        std::vector<Idx>(static_cast<std::size_t>(b.bands()), 0));
    for (Idx cs = 0; cs < b.steps(); ++cs)
        for (const BucketSpan &sp : b.colSpans(cs))
            grid[static_cast<std::size_t>(cs)]
                [static_cast<std::size_t>(sp.at)] = sp.cnt;
    return grid;
}

TEST(StepBuckets, CountsMatchBruteForce)
{
    CooMatrix raw = testing::smallGraph(100, 900, 3);
    CscMatrix csc = CscMatrix::fromCoo(raw);
    const Idx t = 16;
    StepBuckets b = StepBuckets::build(csc, t);

    EXPECT_EQ(b.steps(), (100 + t - 1) / t);
    EXPECT_EQ(b.bands(), (100 + t - 1) / t);
    EXPECT_EQ(b.nnz(), csc.nnz());

    const auto dense = denseCounts(raw, t);
    EXPECT_EQ(gridOf(b), dense);
    for (Idx cs = 0; cs < b.steps(); ++cs) {
        Idx col_expect = 0;
        for (const Idx cnt : dense[static_cast<std::size_t>(cs)])
            col_expect += cnt;
        EXPECT_EQ(b.colStepNnz(cs), col_expect);
    }
}

TEST(StepBuckets, TransposedSwapsRoles)
{
    CooMatrix raw = testing::smallGraph(64, 400, 9);
    CsrMatrix csr = CsrMatrix::fromCoo(raw);
    CscMatrix csc = CscMatrix::fromCoo(raw);
    const Idx t = 8;
    const auto fwd = gridOf(StepBuckets::build(csc, t));
    const auto swp = gridOf(StepBuckets::buildTransposed(csr, t));
    EXPECT_EQ(swp, denseCounts(raw, t, true));
    for (std::size_t cs = 0; cs < fwd.size(); ++cs)
        for (std::size_t rs = 0; rs < fwd[cs].size(); ++rs)
            EXPECT_EQ(fwd[cs][rs], swp[rs][cs]);
}

TEST(StepBuckets, BandLoadedThroughIsPrefix)
{
    // What is on chip for band rs once the OS frontier reaches cs is
    // the prefix of its band slab through cs.
    CooMatrix raw = testing::smallRmat(80, 700, 5);
    const Idx t = 16;
    StepBuckets b = StepBuckets::build(CscMatrix::fromCoo(raw), t);
    CooMatrix canon = raw;
    canon.canonicalize();
    for (Idx rs = 0; rs < b.bands(); ++rs) {
        const auto spans = b.bandSpans(rs);
        Idx acc = 0;
        std::size_t next = 0;
        for (Idx cs = 0; cs < b.steps(); ++cs) {
            if (next < spans.size() && spans[next].at == cs)
                acc += spans[next++].cnt;
            Idx brute = 0;
            for (const Triplet &e : canon.entries())
                if (e.row / t == rs && e.col / t <= cs)
                    ++brute;
            EXPECT_EQ(acc, brute) << "rs=" << rs << " cs=" << cs;
        }
        EXPECT_EQ(next, spans.size());
        EXPECT_EQ(b.bandNnz(rs), acc);
    }
}

/** (index, count) pairs, comparable with EXPECT_EQ. */
std::vector<std::pair<Idx, Idx>>
pairsOf(std::span<const BucketSpan> spans)
{
    std::vector<std::pair<Idx, Idx>> out;
    for (const BucketSpan &sp : spans)
        out.emplace_back(sp.at, sp.cnt);
    return out;
}

/**
 * Dense-scan oracle for what the pass engine reads.  Its Load stage
 * splits column step cs at the unlock frontier: the colSpans()
 * suffix past the frontier holds the locked bands, and the step's
 * total minus that suffix is the unlocked arrivals.  Its IS stage
 * walks bandSpans().  Both must agree with scanning the dense grid
 * computed from the matrix.
 */
void
expectSpansMatchDenseScan(const StepBuckets &b,
                          const std::vector<std::vector<Idx>> &grid)
{
    ASSERT_EQ(static_cast<Idx>(grid.size()), b.steps());
    for (Idx cs = 0; cs < b.steps(); ++cs) {
        const auto &row = grid[static_cast<std::size_t>(cs)];
        ASSERT_EQ(static_cast<Idx>(row.size()), b.bands());
        for (Idx unlocked = -2; unlocked <= b.bands() + 1; ++unlocked) {
            Idx dense_unlocked = 0;
            std::vector<std::pair<Idx, Idx>> dense_locked;
            for (Idx rs = 0; rs < b.bands(); ++rs) {
                const Idx cnt = row[static_cast<std::size_t>(rs)];
                if (cnt == 0)
                    continue;
                if (rs <= unlocked)
                    dense_unlocked += cnt;
                else
                    dense_locked.emplace_back(rs, cnt);
            }
            const auto spans = b.colSpans(cs);
            const auto suffix = std::upper_bound(
                spans.begin(), spans.end(), unlocked,
                [](Idx v, const BucketSpan &sp) { return v < sp.at; });
            Idx locked = 0;
            for (auto it = suffix; it != spans.end(); ++it)
                locked += it->cnt;
            EXPECT_EQ(b.colStepNnz(cs) - locked, dense_unlocked)
                << "cs=" << cs << " unlocked=" << unlocked;
            EXPECT_EQ(pairsOf({suffix, spans.end()}), dense_locked)
                << "cs=" << cs << " unlocked=" << unlocked;
        }
    }
    for (Idx rs = 0; rs < b.bands(); ++rs) {
        std::vector<std::pair<Idx, Idx>> dense;
        for (Idx cs = 0; cs < b.steps(); ++cs) {
            const Idx cnt = grid[static_cast<std::size_t>(cs)]
                                [static_cast<std::size_t>(rs)];
            if (cnt != 0)
                dense.emplace_back(cs, cnt);
        }
        EXPECT_EQ(pairsOf(b.bandSpans(rs)), dense) << "rs=" << rs;
    }
}

/** Runs the oracle on both bucketings of `m`; returns the forward
 *  one for shape checks. */
StepBuckets
checkedBuckets(const char *label, const CooMatrix &m, Idx t)
{
    SCOPED_TRACE(label);
    StepBuckets fwd = StepBuckets::build(CscMatrix::fromCoo(m), t);
    expectSpansMatchDenseScan(fwd, denseCounts(m, t));
    expectSpansMatchDenseScan(
        StepBuckets::buildTransposed(CsrMatrix::fromCoo(m), t),
        denseCounts(m, t, true));
    return fwd;
}

/** A rows x cols matrix of `n` random unit triplets. */
CooMatrix
randomShape(Idx rows, Idx cols, int n, Rng &rng)
{
    CooMatrix m(rows, cols);
    for (int k = 0; k < n; ++k)
        m.add(static_cast<Idx>(rng.nextBelow(
                  static_cast<std::uint64_t>(rows))),
              static_cast<Idx>(rng.nextBelow(
                  static_cast<std::uint64_t>(cols))),
              1.0);
    return m;
}

/** Rows and columns 16..47 of a 64 x 64 matrix hold nothing: whole
 *  bands and column steps are empty at t = 8. */
CooMatrix
holeyShape(Rng &rng)
{
    CooMatrix holes(64, 64);
    for (int k = 0; k < 300; ++k) {
        const Idx r = static_cast<Idx>(rng.nextBelow(32));
        const Idx c = static_cast<Idx>(rng.nextBelow(32));
        holes.add(r < 16 ? r : r + 32, c < 16 ? c : c + 32, 1.0);
    }
    return holes;
}

TEST(StepBuckets, SpansMatchDenseScanOracle)
{
    checkedBuckets("square", testing::smallRmat(100, 900, 7), 16);

    // Rows != cols, both ways round.
    Rng rng(21);
    checkedBuckets("tall", randomShape(90, 35, 400, rng), 8);
    checkedBuckets("wide", randomShape(35, 90, 400, rng), 8);

    const StepBuckets holey =
        checkedBuckets("empty bands", holeyShape(rng), 8);
    EXPECT_EQ(holey.bandNnz(3), 0);
    EXPECT_EQ(holey.colStepNnz(3), 0);

    // One sub-tensor covers every column: a single step.  And t = 1:
    // every element is its own bucket.
    EXPECT_EQ(checkedBuckets("single step",
                             testing::smallGraph(50, 300, 5), 64)
                  .steps(),
              1);
    checkedBuckets("unit t", testing::smallGraph(40, 200, 6), 1);
}

/** Brute-force residency: elements loaded (cs <= j) in bands not
 *  yet unlocked (rs > j - lag). */
Idx
bruteResident(const CooMatrix &m, Idx t, Idx lag, Idx j)
{
    Idx resident = 0;
    for (const Triplet &e : m.entries())
        if (e.col / t <= j && e.row / t > j - lag)
            ++resident;
    return resident;
}

class ResidencyProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(ResidencyProperty, SweepMatchesBruteForce)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    CooMatrix raw = GetParam() % 2 == 0
        ? generateUniform(90, 700, rng)
        : generateRmat(90, 700, rng);
    raw.canonicalize();
    const Idx t = 8, lag = 2;
    StepBuckets b = StepBuckets::build(CscMatrix::fromCoo(raw), t);
    ResidencyStats stats = residencySweep(b, lag);

    Idx brute_max = 0;
    double brute_sum = 0.0;
    for (Idx j = 0; j < b.steps(); ++j) {
        Idx r = bruteResident(raw, t, lag, j);
        brute_max = std::max(brute_max, r);
        brute_sum += static_cast<double>(r);
    }
    EXPECT_EQ(stats.max_resident, brute_max);
    EXPECT_NEAR(stats.avg_resident,
                brute_sum / static_cast<double>(b.steps()), 1e-9);
    EXPECT_NEAR(stats.maxPercent(raw.nnz()),
                100.0 * static_cast<double>(brute_max) /
                    static_cast<double>(raw.nnz()), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResidencyProperty,
                         ::testing::Range(1, 9));

TEST(Residency, SweepMatchesBruteForceAcrossLagsAndShapes)
{
    // The sweep is derived from the band slabs; the brute force
    // counts straight from the matrix, at lags that unlock nothing,
    // everything at once, and in between.
    Rng rng(31);
    const std::vector<std::pair<const char *, CooMatrix>> shapes = {
        {"rmat", testing::smallRmat(100, 900, 4)},
        {"tall", randomShape(90, 35, 400, rng)},
        {"wide", randomShape(35, 90, 400, rng)},
        {"empty bands", holeyShape(rng)},
    };
    for (const auto &[label, m] : shapes) {
        CooMatrix canon = m;
        canon.canonicalize();
        for (const Idx t : {1, 8, 64}) {
            const StepBuckets b =
                StepBuckets::build(CscMatrix::fromCoo(canon), t);
            for (const Idx lag : {-1, 0, 1, 2, 5, 1000}) {
                SCOPED_TRACE(::testing::Message()
                             << label << " t=" << t << " lag=" << lag);
                const ResidencyStats stats = residencySweep(b, lag);
                Idx brute_max = 0;
                double brute_sum = 0.0;
                for (Idx j = 0; j < b.steps(); ++j) {
                    const Idx r = bruteResident(canon, t, lag, j);
                    brute_max = std::max(brute_max, r);
                    brute_sum += static_cast<double>(r);
                }
                EXPECT_EQ(stats.max_resident, brute_max);
                // Same integers summed in the same order: exact.
                EXPECT_EQ(stats.avg_resident,
                          b.steps() > 0
                              ? brute_sum /
                                    static_cast<double>(b.steps())
                              : 0.0);
            }
        }
    }
}

TEST(Residency, LowerTriangleDominatesUpperTriangle)
{
    // The OEI window holds elements below the diagonal much longer,
    // so a lower-triangular matrix needs far more on-chip space
    // than its transpose — the motivation for the vanilla reorder.
    Rng rng(77);
    CooMatrix lower = generateLowerSkew(200, 3000, 0.95, rng);
    CooMatrix upper = lower.transposed();

    const Idx t = 8, lag = 2;
    auto max_pct = [&](const CooMatrix &m) {
        StepBuckets b = StepBuckets::build(CscMatrix::fromCoo(m), t);
        return residencySweep(b, lag).maxPercent(m.nnz());
    };
    EXPECT_GT(max_pct(lower), 2.0 * max_pct(upper));
}

TEST(Residency, BandedNeedsLessThanUniform)
{
    Rng rng(88);
    CooMatrix banded = generateBanded(400, 10, 4.0, rng);
    CooMatrix uniform = generateUniform(400, banded.nnz(), rng);
    const Idx t = 16, lag = 2;
    auto avg_pct = [&](const CooMatrix &m) {
        StepBuckets b = StepBuckets::build(CscMatrix::fromCoo(m), t);
        return residencySweep(b, lag).avgPercent(m.nnz());
    };
    EXPECT_LT(avg_pct(banded), avg_pct(uniform));
}

TEST(StepBuckets, BadSubTensorIsFatal)
{
    CooMatrix raw = testing::smallGraph(16, 50);
    CscMatrix csc = CscMatrix::fromCoo(raw);
    EXPECT_DEATH(StepBuckets::build(csc, 0), "positive");
}

} // namespace
} // namespace sparsepipe
