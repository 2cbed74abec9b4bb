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

TEST(StepBuckets, CountsMatchBruteForce)
{
    CooMatrix raw = testing::smallGraph(100, 900, 3);
    CscMatrix csc = CscMatrix::fromCoo(raw);
    const Idx t = 16;
    StepBuckets b = StepBuckets::build(csc, t);

    EXPECT_EQ(b.steps(), (100 + t - 1) / t);
    EXPECT_EQ(b.bands(), (100 + t - 1) / t);
    EXPECT_EQ(b.nnz(), csc.nnz());

    CooMatrix canon = raw;
    canon.canonicalize();
    for (Idx cs = 0; cs < b.steps(); ++cs) {
        for (Idx rs = 0; rs < b.bands(); ++rs) {
            Idx expect = 0;
            for (const Triplet &e : canon.entries())
                if (e.col / t == cs && e.row / t == rs)
                    ++expect;
            EXPECT_EQ(b.count(cs, rs), expect);
        }
        Idx col_expect = 0;
        for (const Triplet &e : canon.entries())
            if (e.col / t == cs)
                ++col_expect;
        EXPECT_EQ(b.colStepNnz(cs), col_expect);
    }
}

TEST(StepBuckets, TransposedSwapsRoles)
{
    CooMatrix raw = testing::smallGraph(64, 400, 9);
    CsrMatrix csr = CsrMatrix::fromCoo(raw);
    CscMatrix csc = CscMatrix::fromCoo(raw);
    const Idx t = 8;
    StepBuckets fwd = StepBuckets::build(csc, t);
    StepBuckets swp = StepBuckets::buildTransposed(csr, t);
    for (Idx cs = 0; cs < fwd.steps(); ++cs)
        for (Idx rs = 0; rs < fwd.bands(); ++rs)
            EXPECT_EQ(fwd.count(cs, rs), swp.count(rs, cs));
}

TEST(StepBuckets, BandLoadedThroughIsPrefix)
{
    CooMatrix raw = testing::smallRmat(80, 700, 5);
    StepBuckets b = StepBuckets::build(CscMatrix::fromCoo(raw), 16);
    for (Idx rs = 0; rs < b.bands(); ++rs) {
        Idx acc = 0;
        for (Idx cs = 0; cs < b.steps(); ++cs) {
            acc += b.count(cs, rs);
            EXPECT_EQ(b.bandLoadedThrough(cs, rs), acc);
        }
        EXPECT_EQ(b.bandLoadedThrough(b.steps() + 5, rs), acc);
        EXPECT_EQ(b.bandLoadedThrough(-1, rs), 0);
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
 * splits column step cs at the unlock frontier: colLoadedThrough()
 * for the unlocked bands, then the colSpans() suffix past the
 * frontier for the locked ones.  Its IS stage walks bandSpans().
 * Both must agree with scanning count() over the whole grid.
 */
void
expectSpansMatchDenseScan(const StepBuckets &b)
{
    for (Idx cs = 0; cs < b.steps(); ++cs) {
        for (Idx unlocked = -2; unlocked <= b.bands() + 1; ++unlocked) {
            Idx dense_unlocked = 0;
            std::vector<std::pair<Idx, Idx>> dense_locked;
            for (Idx rs = 0; rs < b.bands(); ++rs) {
                const Idx cnt = b.count(cs, rs);
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
            EXPECT_EQ(b.colLoadedThrough(cs, unlocked), dense_unlocked)
                << "cs=" << cs << " unlocked=" << unlocked;
            EXPECT_EQ(pairsOf({suffix, spans.end()}), dense_locked)
                << "cs=" << cs << " unlocked=" << unlocked;
        }
    }
    for (Idx rs = 0; rs < b.bands(); ++rs) {
        std::vector<std::pair<Idx, Idx>> dense;
        for (Idx cs = 0; cs < b.steps(); ++cs)
            if (b.count(cs, rs) != 0)
                dense.emplace_back(cs, b.count(cs, rs));
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
    expectSpansMatchDenseScan(fwd);
    expectSpansMatchDenseScan(
        StepBuckets::buildTransposed(CsrMatrix::fromCoo(m), t));
    return fwd;
}

TEST(StepBuckets, SpansMatchDenseScanOracle)
{
    checkedBuckets("square", testing::smallRmat(100, 900, 7), 16);

    // Rows != cols, both ways round.
    Rng rng(21);
    CooMatrix tall(90, 35);
    CooMatrix wide(35, 90);
    for (int k = 0; k < 400; ++k) {
        const Idx r = static_cast<Idx>(rng.nextBelow(90));
        const Idx c = static_cast<Idx>(rng.nextBelow(35));
        tall.add(r, c, 1.0);
        wide.add(c, r, 1.0);
    }
    checkedBuckets("tall", tall, 8);
    checkedBuckets("wide", wide, 8);

    // Rows and columns 16..47 hold nothing: whole bands and column
    // steps are empty.
    CooMatrix holes(64, 64);
    for (int k = 0; k < 300; ++k) {
        const Idx r = static_cast<Idx>(rng.nextBelow(32));
        const Idx c = static_cast<Idx>(rng.nextBelow(32));
        holes.add(r < 16 ? r : r + 32, c < 16 ? c : c + 32, 1.0);
    }
    const StepBuckets holey = checkedBuckets("empty bands", holes, 8);
    EXPECT_EQ(holey.bandNnz(3), 0);
    EXPECT_EQ(holey.colStepNnz(3), 0);

    // One sub-tensor covers every column: a single step.
    EXPECT_EQ(checkedBuckets("single step",
                             testing::smallGraph(50, 300, 5), 64)
                  .steps(),
              1);
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
