/**
 * @file
 * Round-trip tests of the api::Session facade: cache stability,
 * bitwise transparency of the cached pipeline against a hand-rolled
 * one, and the external prepared-case entry point.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "api/session.hh"
#include "obs/metrics.hh"
#include "prep/blocked.hh"
#include "sparse/datasets.hh"

namespace sparsepipe {
namespace {

obs::MetricsRegistry
exportStats(const SimStats &stats)
{
    obs::MetricsRegistry reg;
    recordSimMetrics(reg, "sim", stats);
    return reg;
}

TEST(Session, CachedArtifactsAreStableReferences)
{
    api::Session session;
    const CooMatrix &raw_a = session.raw("ca");
    const CooMatrix &raw_b = session.raw("ca");
    EXPECT_EQ(&raw_a, &raw_b);

    const api::PreparedCase &pc_a =
        session.prepared("pr", "ca", ReorderKind::Locality);
    const api::PreparedCase &pc_b =
        session.prepared("pr", "ca", ReorderKind::Locality);
    EXPECT_EQ(&pc_a, &pc_b);

    // A different key is a different entry.
    const api::PreparedCase &pc_c =
        session.prepared("pr", "ca", ReorderKind::Vanilla);
    EXPECT_NE(&pc_a, &pc_c);
    EXPECT_EQ(pc_a.nnz, pc_c.nnz);
}

TEST(Session, RunRoundTripMatchesManualPipeline)
{
    api::RunRequest req;
    req.app = "sssp";
    req.dataset = "ca";
    req.reorder = ReorderKind::Locality;
    req.iters = 8;

    api::Session session;
    const api::RunReport cached = session.run(req).value();
    EXPECT_EQ(cached.app, "sssp");
    EXPECT_EQ(cached.dataset, "ca");
    EXPECT_GT(cached.nnz, 0);
    EXPECT_GT(cached.stats.cycles, 0);

    // Hand-rolled pipeline: generate, reorder, prepare, run via the
    // external prepared-case entry point.
    CooMatrix raw = generateDataset(datasetSpec("ca"),
                                    api::kDefaultSeed);
    const api::PreparedCase pc = api::prepareCase(
        req.app, api::reorderMatrix(std::move(raw), req.reorder));
    EXPECT_EQ(pc.nnz, cached.nnz);

    api::Session scratch;
    const api::RunReport manual = scratch.run(req, pc).value();
    EXPECT_EQ(exportStats(cached.stats).entries(),
              exportStats(manual.stats).entries());

    // Re-running through the cache stays deterministic.
    const api::RunReport again = session.run(req).value();
    EXPECT_EQ(exportStats(cached.stats).entries(),
              exportStats(again.stats).entries());
}

TEST(Session, BlockedFlagControlsFootprint)
{
    api::Session session;
    api::RunRequest req;
    req.app = "pr";
    req.dataset = "ca";
    req.iters = 4;

    const api::PreparedCase &pc =
        session.prepared(req.app, req.dataset, req.reorder, req.seed);
    // The blocked layout exists to beat the naive 12 B/nz storage.
    EXPECT_LT(pc.blocked_bytes_per_nz, 12.0);

    req.blocked = false;
    const api::RunReport naive = session.run(req).value();
    req.blocked = true;
    const api::RunReport blocked = session.run(req).value();
    // Smaller footprint => same or fewer demand-reload stalls, and
    // the two must not silently share a config.
    EXPECT_LE(blocked.stats.counters.demand_reload_events,
              naive.stats.counters.demand_reload_events);
}

TEST(Session, RunReturnsStatusInsteadOfDying)
{
    api::Session session;
    api::RunRequest req;
    req.app = "no-such-app";
    req.dataset = "ca";
    StatusOr<api::RunReport> bad_app = session.run(req);
    ASSERT_FALSE(bad_app.ok());
    EXPECT_EQ(bad_app.status().code(), StatusCode::InvalidInput);
    EXPECT_NE(bad_app.status().toString().find("no-such-app"),
              std::string::npos);

    req.app = "pr";
    req.dataset = "no-such-dataset";
    StatusOr<api::RunReport> bad_data = session.run(req);
    ASSERT_FALSE(bad_data.ok());
    EXPECT_EQ(bad_data.status().code(), StatusCode::InvalidInput);

    // A failed request must not poison the session for later runs.
    req.dataset = "ca";
    req.iters = 2;
    EXPECT_TRUE(session.run(req).ok());
}

TEST(Session, PreFiredTokenCancelsRun)
{
    api::Session session;
    api::RunRequest req;
    req.app = "pr";
    req.dataset = "ca";
    req.iters = 4;
    CancelToken token;
    token.cancel();
    req.cancel = &token;
    StatusOr<api::RunReport> run = session.run(req);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), StatusCode::Cancelled);
}

TEST(Session, ExpiredDeadlineRejectsBeforeAnythingRuns)
{
    api::Session session;
    api::RunRequest req;
    req.app = "pr";
    req.dataset = "ca";
    req.iters = 4;
    CancelToken token;
    token.setDeadlineAfterMs(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    req.cancel = &token;
    StatusOr<api::RunReport> run = session.run(req);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), StatusCode::DeadlineExceeded);
    // Rejected at the boundary: not even preprocessing ran.
    const api::Session::CacheStatsSnapshot stats =
        session.cacheStats();
    EXPECT_EQ(stats.prepared.misses + stats.prepared.hits, 0u);
}

// The bounded-latency contract of deadline propagation, per backend:
// with a token attached, the engine polls it at least once every
// cancel_poll_cycles of simulated time, so a deadline expiring
// mid-sim unwinds within a fixed cycle budget.
class SessionCancelPropagation
    : public ::testing::TestWithParam<backend::BackendKind>
{
};

TEST_P(SessionCancelPropagation, PollCadenceBoundsAbortLatency)
{
    api::Session session;
    api::RunRequest req;
    req.app = "pr";
    req.dataset = "ca";
    req.iters = 8;
    req.backend = GetParam();
    req.sp.cancel_poll_cycles = 512;

    // Baseline without a token: zero polls, and the stats below pin
    // that attaching a never-firing token is free.
    const api::RunReport plain = session.run(req).value();
    EXPECT_EQ(plain.stats.counters.cancel_polls, 0);

    CancelToken token; // never fired, no deadline
    req.cancel = &token;
    const api::RunReport polled = session.run(req).value();
    EXPECT_EQ(polled.stats.cycles, plain.stats.cycles);
    EXPECT_EQ(polled.stats.counters.demand_reload_events,
              plain.stats.counters.demand_reload_events);

    // The budget polls alone guarantee one poll per
    // cancel_poll_cycles window; launch/iteration-site polls only
    // add to that.  Halve the bound to stay robust against the final
    // partial window and event-time jumps.
    const Idx windows =
        polled.stats.cycles / req.sp.cancel_poll_cycles;
    EXPECT_GE(polled.stats.counters.cancel_polls,
              std::max<Idx>(1, windows / 2))
        << "cycles=" << polled.stats.cycles;
}

TEST_P(SessionCancelPropagation, MidSimDeadlineReturnsDeadlineExceeded)
{
    api::Session session;
    api::RunRequest req;
    req.app = "pr";
    req.dataset = "co";
    req.iters = 400; // long enough to be mid-flight when it expires
    req.backend = GetParam();
    req.sp.cancel_poll_cycles = 512;

    CancelToken token;
    req.cancel = &token;
    token.setDeadlineAfterMs(20);
    StatusOr<api::RunReport> run = session.run(req);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), StatusCode::DeadlineExceeded);

    // The session is not poisoned: the same request without the
    // token completes.
    req.cancel = nullptr;
    req.iters = 2;
    EXPECT_TRUE(session.run(req).ok());
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, SessionCancelPropagation,
    ::testing::Values(backend::BackendKind::Sparsepipe,
                      backend::BackendKind::Gamma),
    [](const ::testing::TestParamInfo<backend::BackendKind> &info) {
        return std::string(backend::backendName(info.param));
    });

TEST(Session, BindWorkspaceBindsBothCompressedForms)
{
    api::Session session;
    const api::PreparedCase &pc =
        session.prepared("pr", "ca", ReorderKind::Vanilla);
    Workspace ws = api::Session::bindWorkspace(pc);
    const CsrMatrix &csr = ws.csr(pc.app.matrix);
    const CscMatrix &csc = ws.csc(pc.app.matrix);
    EXPECT_EQ(csr.nnz(), pc.nnz);
    EXPECT_EQ(csc.nnz(), pc.nnz);
    EXPECT_EQ(csr.rows(), csc.rows());
    EXPECT_EQ(csr.cols(), csc.cols());
}

TEST(Session, WarmRunsShareTheOperandStorage)
{
    // Zero-copy: every run's workspace aliases the PreparedCase's
    // CSR/CSC arrays and its bucket memo, run after run.
    api::Session session;
    const api::PreparedCase &pc =
        session.prepared("pr", "ca", ReorderKind::Vanilla);
    api::RunRequest req;
    req.app = "pr";
    req.dataset = "ca";
    req.iters = 2;
    for (int run = 0; run < 2; ++run) {
        ASSERT_TRUE(session.run(req, pc).ok());
        const Workspace ws = api::Session::bindWorkspace(pc);
        const CsrMatrix &csr = ws.csr(pc.app.matrix);
        const CscMatrix &csc = ws.csc(pc.app.matrix);
        EXPECT_EQ(csr.rowPtr().data(), pc.csr.rowPtr().data());
        EXPECT_EQ(csr.colIdx().data(), pc.csr.colIdx().data());
        EXPECT_EQ(csr.vals().data(), pc.csr.vals().data());
        EXPECT_EQ(csc.colPtr().data(), pc.csc.colPtr().data());
        EXPECT_EQ(csc.rowIdx().data(), pc.csc.rowIdx().data());
        EXPECT_EQ(csc.vals().data(), pc.csc.vals().data());
        EXPECT_EQ(ws.bucketMemo(), pc.buckets);
    }
}

TEST(Session, BucketMemoBuildsOncePerOperandAndSubTensor)
{
    api::Session session;
    const api::PreparedCase &pc =
        session.prepared("pr", "ca", ReorderKind::Vanilla);
    api::RunRequest req;
    req.app = "pr";
    req.dataset = "ca";
    req.iters = 4;
    EXPECT_EQ(pc.buckets->current(), nullptr);

    const SimStats first = session.run(req, pc).value().stats;
    const std::shared_ptr<const StepBuckets> built =
        pc.buckets->current();
    ASSERT_NE(built, nullptr);
    const SimStats second = session.run(req, pc).value().stats;
    EXPECT_EQ(pc.buckets->current(), built) << "second run rebuilt";
    EXPECT_EQ(exportStats(first).entries(),
              exportStats(second).entries());

    // Another sub-tensor size is another key: the slot is rebuilt.
    api::RunRequest other = req;
    other.sp.sub_tensor_cols = built->t() * 2;
    ASSERT_TRUE(session.run(other, pc).ok());
    const std::shared_ptr<const StepBuckets> rebuilt =
        pc.buckets->current();
    ASSERT_NE(rebuilt, built);
    EXPECT_EQ(rebuilt->t(), built->t() * 2);

    // Back on the default key, the rebuilt slot gives the same run.
    const SimStats again = session.run(req, pc).value().stats;
    EXPECT_EQ(pc.buckets->current()->t(), built->t());
    EXPECT_EQ(exportStats(first).entries(),
              exportStats(again).entries());

    // Copies of the case share the memo.
    const api::PreparedCase copy = pc;
    EXPECT_EQ(copy.buckets, pc.buckets);
}

TEST(Session, ConcurrentRunsOfOnePreparedCaseAgree)
{
    // Four threads race the first bucket build and then reuse it
    // through the shared memo.  Runs under the TSan CI job.
    api::Session session;
    const api::PreparedCase &pc =
        session.prepared("sssp", "ca", ReorderKind::Vanilla);
    constexpr int kThreads = 4;
    std::vector<std::thread> threads;
    std::vector<StatusOr<api::RunReport>> reports(
        kThreads, Status(StatusCode::Internal, "unset"));
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&session, &pc, &reports, i] {
            api::RunRequest req;
            req.app = "sssp";
            req.dataset = "ca";
            req.iters = 4;
            reports[static_cast<std::size_t>(i)] = session.run(req, pc);
        });
    }
    for (std::thread &t : threads)
        t.join();

    ASSERT_TRUE(reports[0].ok()) << reports[0].status().toString();
    for (int i = 1; i < kThreads; ++i) {
        const auto &report = reports[static_cast<std::size_t>(i)];
        ASSERT_TRUE(report.ok()) << report.status().toString();
        EXPECT_EQ(exportStats(report->stats).entries(),
                  exportStats(reports[0]->stats).entries());
    }
}

TEST(Session, ConcurrentRunsShareOnePreparedDataset)
{
    // The serve daemon funnels every tenant through one Session, so
    // concurrent run() calls on the same key must be safe and must
    // prepare the operand exactly once.  Runs under the TSan CI job.
    api::Session session;
    constexpr int kThreads = 8;
    std::vector<std::thread> threads;
    std::vector<StatusOr<api::RunReport>> reports(
        kThreads, Status(StatusCode::Internal, "unset"));
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&session, &reports, i] {
            api::RunRequest req;
            req.app = "pr";
            req.dataset = "ca";
            req.iters = 4;
            reports[i] = session.run(req);
        });
    }
    for (std::thread &t : threads)
        t.join();

    ASSERT_TRUE(reports[0].ok()) << reports[0].status().toString();
    for (int i = 1; i < kThreads; ++i) {
        ASSERT_TRUE(reports[i].ok())
            << reports[i].status().toString();
        // Identical requests through the shared caches are bitwise
        // deterministic.
        EXPECT_EQ(reports[i]->stats.cycles,
                  reports[0]->stats.cycles);
        EXPECT_EQ(reports[i]->nnz, reports[0]->nnz);
    }
    const api::Session::CacheStatsSnapshot stats =
        session.cacheStats();
    EXPECT_EQ(stats.prepared.misses, 1u);
    EXPECT_EQ(stats.prepared.hits,
              static_cast<std::uint64_t>(kThreads - 1));
}

TEST(Session, ConcurrentMixedKeysWithEvictingPreparedCache)
{
    // Bound the prepared layer below the working set so eviction
    // happens *during* concurrent runs; preparedShared pinning must
    // keep every in-flight operand alive.
    api::Session session;
    session.setCacheCapacities(2, 2, 2);
    const struct
    {
        const char *app;
        const char *dataset;
    } kCases[] = {{"pr", "ca"}, {"bfs", "gy"}, {"sssp", "ca"},
                  {"pr", "g2"}};
    constexpr int kRounds = 3;

    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    for (const auto &c : kCases) {
        threads.emplace_back([&session, &failures, c] {
            for (int round = 0; round < kRounds; ++round) {
                api::RunRequest req;
                req.app = c.app;
                req.dataset = c.dataset;
                req.iters = 4;
                StatusOr<api::RunReport> run = session.run(req);
                if (!run.ok() || run->stats.cycles <= 0)
                    failures.fetch_add(1);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(failures.load(), 0);
    // Four distinct keys through a 2-entry bound: eviction must have
    // fired, and every lookup still resolved.
    const api::Session::CacheStatsSnapshot stats =
        session.cacheStats();
    EXPECT_GT(stats.prepared.evictions, 0u);
    EXPECT_GE(stats.prepared.misses, 4u);
}

} // anonymous namespace
} // namespace sparsepipe
