#include "api/session.hh"

#include <chrono>
#include <utility>

#include "prep/blocked.hh"
#include "sparse/datasets.hh"

namespace sparsepipe::api {

PreparedCase
prepareCase(const std::string &app_name, const CooMatrix &reordered)
{
    PreparedCase pc;
    pc.app = makeApp(app_name, reordered.rows());
    pc.csr = pc.app.prepare(reordered);
    pc.csc = CscMatrix::fromCsr(pc.csr);
    // The default block size is always legal, so value() cannot trip.
    pc.blocked_bytes_per_nz =
        buildBlockedLayout(pc.csr).value().bytesPerNonzero();
    pc.nnz = pc.csr.nnz();
    return pc;
}

CooMatrix
reorderMatrix(const CooMatrix &raw, ReorderKind kind)
{
    if (kind == ReorderKind::None)
        return raw;
    const CsrMatrix csr = CsrMatrix::fromCoo(raw);
    // makeReorder emits a bijection over a square matrix by
    // construction, so value() cannot trip.
    return applySymmetricPermutation(raw, makeReorder(kind, csr))
        .value();
}

Session &
Session::process()
{
    static Session session;
    return session;
}

std::shared_ptr<const CooMatrix>
Session::rawShared(const std::string &dataset, std::uint64_t seed)
{
    return raw_.getShared(std::make_pair(dataset, seed), [&] {
        return generateDataset(datasetSpec(dataset), seed);
    });
}

std::shared_ptr<const CooMatrix>
Session::reorderedShared(const std::string &dataset,
                         ReorderKind kind, std::uint64_t seed)
{
    if (kind == ReorderKind::None)
        return rawShared(dataset, seed);
    return reordered_.getShared(
        std::make_tuple(dataset, kind, seed), [&] {
            // The pin keeps LRU eviction of the raw layer from
            // freeing the matrix mid-permutation.
            auto pinned = rawShared(dataset, seed);
            return reorderMatrix(*pinned, kind);
        });
}

const CooMatrix &
Session::raw(const std::string &dataset, std::uint64_t seed)
{
    return *rawShared(dataset, seed);
}

const CooMatrix &
Session::reordered(const std::string &dataset, ReorderKind kind,
                   std::uint64_t seed)
{
    return *reorderedShared(dataset, kind, seed);
}

const PreparedCase &
Session::prepared(const std::string &app, const std::string &dataset,
                  ReorderKind kind, std::uint64_t seed)
{
    return *preparedShared(app, dataset, kind, seed);
}

std::shared_ptr<const PreparedCase>
Session::preparedShared(const std::string &app,
                        const std::string &dataset, ReorderKind kind,
                        std::uint64_t seed)
{
    return prepared_.getShared(
        std::make_tuple(app, dataset, kind, seed), [&] {
            auto pinned = reorderedShared(dataset, kind, seed);
            return prepareCase(app, *pinned);
        });
}

void
Session::setCacheCapacities(std::size_t raw, std::size_t reordered,
                            std::size_t prepared)
{
    raw_.setCapacity(raw);
    reordered_.setCapacity(reordered);
    prepared_.setCapacity(prepared);
}

Session::CacheStatsSnapshot
Session::cacheStats() const
{
    return CacheStatsSnapshot{raw_.stats(), reordered_.stats(),
                              prepared_.stats()};
}

Workspace
Session::bindWorkspace(const PreparedCase &pc)
{
    Workspace ws(pc.app.program);
    ws.bindMatrix(pc.app.matrix, pc.csr, pc.csc);
    ws.setBucketMemo(pc.buckets);
    pc.app.init(ws);
    return ws;
}

StatusOr<RunReport>
Session::run(const RunRequest &req)
{
    // Pre-validate the request's names so a typo comes back as
    // InvalidInput instead of tripping the fatal registry lookups
    // inside the cache builders.
    if (req.dataset.empty())
        return invalidInput(
            "Session::run: request names no dataset (use the "
            "PreparedCase overload for external matrices)");
    if (!findAppInfo(req.app))
        return invalidInput("Session::run: unknown application '%s'",
                            req.app.c_str());
    if (!findDatasetSpec(req.dataset))
        return invalidInput("Session::run: unknown dataset '%s'",
                            req.dataset.c_str());
    if (req.cancel) {
        // A dead request must not pay preprocessing either: reject
        // before the prepared-operand build, not just before the sim.
        if (Status status = req.cancel->pollNow(); !status.ok())
            return status;
    }
    try {
        // Hold the pin for the whole run: the workspace references
        // the prepared program while the simulator executes, and the
        // entry may be LRU-evicted concurrently under a bounded
        // cache.
        auto pinned = preparedShared(req.app, req.dataset,
                                     req.reorder, req.seed);
        return run(req, *pinned);
    } catch (...) {
        return statusFromCurrentException();
    }
}

StatusOr<RunReport>
Session::run(const RunRequest &req, const PreparedCase &pc)
{
    if (req.cancel) {
        // Don't bother binding a workspace for an already-dead job.
        // pollNow(), not check(): the boundary must see an
        // already-expired deadline immediately, not a latch stride
        // of engine polls later.
        if (Status status = req.cancel->pollNow(); !status.ok())
            return status;
    }
    try {
        SparsepipeConfig cfg = req.sp;
        cfg.bytes_per_nz =
            req.blocked ? pc.blocked_bytes_per_nz : 12.0;
        if (req.lanes >= 0)
            cfg.lanes = req.lanes;
        if (req.band_threads >= 0)
            cfg.band_threads = req.band_threads;

        Workspace ws = bindWorkspace(pc);
        const std::unique_ptr<backend::CycleEngine> engine =
            backend::makeEngine(req.backend, cfg);
        if (req.trace)
            engine->attachTrace(req.trace);
        engine->setCancelToken(req.cancel);

        RunReport report;
        report.app = req.app;
        report.dataset = req.dataset;
        report.backend = backend::backendName(req.backend);
        report.nnz = pc.nnz;
        const auto t0 = std::chrono::steady_clock::now();
        report.stats = engine->run(
            ws, req.iters > 0 ? req.iters : pc.app.default_iters);
        report.host_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - t0)
                .count();
        return report;
    } catch (...) {
        // SpError (cancellation, deadline) keeps its status;
        // bad_alloc maps to ResourceExhausted; anything else is
        // Internal.
        return statusFromCurrentException();
    }
}

} // namespace sparsepipe::api
