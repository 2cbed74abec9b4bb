/**
 * @file
 * The Session API: one front door for the dataset -> reorder ->
 * prepare -> configure -> run pipeline.
 *
 * Before this facade every entry point (the bench harness, the CLI,
 * the fuzzer, the autotuner) re-assembled the pipeline by hand, and
 * each run paid the preprocessing twice: once to size the blocked
 * layout and once more inside simulateApp's bind.  A Session owns
 * thread-safe keyed caches for the three expensive artifacts —
 *
 *   raw        generated stand-in matrix       (dataset, seed)
 *   reordered  symmetric row permutation       (dataset, kind, seed)
 *   prepared   app operand: CSR + CSC twin +   (app, dataset, kind,
 *              blocked bytes/nz + AppInstance             seed)
 *
 * — so a sweep touching the same (app, dataset) under many hardware
 * configurations prepares exactly once, and a single run prepares
 * exactly once instead of twice.  Caching is bitwise-transparent:
 * every simulated counter is identical to the uncached pipeline.
 *
 * By default entries live for the Session's lifetime, so the
 * references handed out stay valid while the Session exists.
 * Session::process() is the shared process-wide instance the benches
 * and CLI use.
 *
 * Long-running daemons (src/serve) instead call setCacheCapacities()
 * to bound each layer with LRU eviction; the run path pins its
 * operands through shared_ptr (preparedShared) for the duration of a
 * simulation, so eviction can never dangle an in-flight run.  The
 * plain reference accessors remain valid only while the entry is
 * resident once a bound is set.
 *
 * Thread safety: a Session may be shared by concurrent callers.  The
 * caches serialize construction per key (KeyedCache), every run gets
 * its own Workspace + SparsepipeSim, and a PreparedCase is read-only
 * after construction: bindWorkspace shares its immutable operand
 * storage with the run's workspace, and its bucket memo is
 * mutex-guarded.
 */

#ifndef SPARSEPIPE_API_SESSION_HH
#define SPARSEPIPE_API_SESSION_HH

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>

#include "apps/apps.hh"
#include "backend/backend.hh"
#include "core/buckets.hh"
#include "core/sparsepipe_sim.hh"
#include "prep/reorder.hh"
#include "runner/keyed_cache.hh"
#include "sparse/coo.hh"
#include "util/status.hh"

namespace sparsepipe {
namespace obs {
class TraceSink;
} // namespace obs
} // namespace sparsepipe

namespace sparsepipe::api {

/** Seed every request uses unless it overrides it. */
inline constexpr std::uint64_t kDefaultSeed = 0x5eed5eedULL;

/** Everything that defines one simulator run. */
struct RunRequest
{
    /** Application (Table III key). */
    std::string app = "pr";
    /** Built-in dataset stand-in (Table I key). */
    std::string dataset;
    /** Hardware configuration; bytes_per_nz is overwritten from the
     *  blocked layout when `blocked` is set. */
    SparsepipeConfig sp = SparsepipeConfig::isoGpu();
    /**
     * Cycle-level engine that runs the request (backend registry,
     * src/backend).  Entry points that accept a backend *name*
     * validate it through backend::backendFromName before building
     * a request, so an unknown spelling surfaces as InvalidInput at
     * the boundary instead of here.
     */
    backend::BackendKind backend = backend::BackendKind::Sparsepipe;
    /** Loop iterations; 0 uses the app's default. */
    Idx iters = 0;
    ReorderKind reorder = ReorderKind::Vanilla;
    /** Derive bytes_per_nz from the blocked build (else 12.0). */
    bool blocked = true;
    /**
     * Packed-lane width override: -1 inherits sp.lanes, 0 picks the
     * widest backend, 1 forces the element path, 2..8 explicit.
     * Bit-identical for every value (see SparsepipeConfig::lanes).
     */
    Idx lanes = -1;
    /** Band-thread override: -1 inherits sp.band_threads. */
    int band_threads = -1;
    std::uint64_t seed = kDefaultSeed;
    /** Optional trace sink attached for the run. */
    obs::TraceSink *trace = nullptr;
    /**
     * Optional cancellation / deadline token.  Checked before the
     * run starts and per pass-engine stage launch during it; a fired
     * token makes run() return Cancelled / DeadlineExceeded.
     */
    const CancelToken *cancel = nullptr;
};

/**
 * A fully preprocessed (app, matrix) pair: everything downstream of
 * the raw COO that does not depend on the hardware configuration.
 */
struct PreparedCase
{
    /** Program + operand handles + init (shared, stateless). */
    AppInstance app;
    /** App-prepared operand in both compressed forms (shared,
     *  immutable storage: copies and binds alias these arrays). */
    CsrMatrix csr;
    CscMatrix csc;
    /** Per-nonzero footprint of the blocked dual storage. */
    double blocked_bytes_per_nz = 12.0;
    Idx nnz = 0;
    /**
     * The operand's bucket decomposition, built by the first run
     * and reused by later ones (one slot; see BucketMemo).  Copies
     * of the case share it.
     */
    std::shared_ptr<BucketMemo> buckets =
        std::make_shared<BucketMemo>();
};

/** Result of Session::run. */
struct RunReport
{
    std::string app;
    std::string dataset;
    /** Registry name of the backend that produced `stats`. */
    std::string backend;
    Idx nnz = 0;
    SimStats stats;
    /**
     * Host wall-clock spent inside the simulator (binding and
     * preprocessing excluded).  Machine-dependent — never part of a
     * byte-compared artifact; the explore dataset records it so the
     * cost of producing each row is queryable.
     */
    double host_ms = 0.0;
};

/**
 * Preprocess an app operand from an already-reordered matrix:
 * makeApp + prepare + CSC twin + blocked layout sizing.  The
 * uncached core of Session::prepared(), exposed for external
 * matrices (MatrixMarket / synthetic inputs).
 */
PreparedCase prepareCase(const std::string &app_name,
                         const CooMatrix &reordered);

/** Apply a symmetric row reorder (None returns a copy of the input). */
CooMatrix reorderMatrix(const CooMatrix &raw, ReorderKind kind);

class Session
{
  public:
    Session() = default;
    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /** Shared process-wide session (benches, CLI). */
    static Session &process();

    /** Generated stand-in matrix, cached per (dataset, seed). */
    const CooMatrix &raw(const std::string &dataset,
                         std::uint64_t seed = kDefaultSeed);

    /** Reordered matrix, cached per (dataset, kind, seed). */
    const CooMatrix &reordered(const std::string &dataset,
                               ReorderKind kind,
                               std::uint64_t seed = kDefaultSeed);

    /** Preprocessed operand, cached per (app, dataset, kind, seed). */
    const PreparedCase &prepared(const std::string &app,
                                 const std::string &dataset,
                                 ReorderKind kind,
                                 std::uint64_t seed = kDefaultSeed);

    /**
     * prepared(), but pinned: the returned shared_ptr keeps the
     * operand alive across LRU eviction.  The serve layer holds one
     * per in-flight run.
     */
    std::shared_ptr<const PreparedCase>
    preparedShared(const std::string &app, const std::string &dataset,
                   ReorderKind kind,
                   std::uint64_t seed = kDefaultSeed);

    /**
     * Bound the three cache layers with LRU eviction (0 = unbounded,
     * the default).  Entry counts, not bytes: a daemon serving k
     * distinct datasets hot keeps `prepared` at a small multiple of
     * k.  See the file comment for the reference-validity contract
     * once a bound is set.
     */
    void setCacheCapacities(std::size_t raw, std::size_t reordered,
                            std::size_t prepared);

    /** Per-layer hit / miss / eviction counters. */
    struct CacheStatsSnapshot
    {
        runner::CacheStats raw;
        runner::CacheStats reordered;
        runner::CacheStats prepared;
    };
    CacheStatsSnapshot cacheStats() const;

    /**
     * Build a workspace for a prepared case: allocate, bind the
     * cached CSR/CSC pair (shared storage: no copy, no transpose)
     * and the case's bucket memo, run the app's init.
     */
    static Workspace bindWorkspace(const PreparedCase &pc);

    /**
     * Run one request end to end through the caches.
     *
     * Recoverable failures come back as a Status instead of killing
     * the process: InvalidInput for unknown app / dataset names or a
     * missing dataset, Cancelled / DeadlineExceeded when req.cancel
     * fires, ResourceExhausted on allocation failure, Internal for
     * anything unexpected escaping the simulator.
     */
    StatusOr<RunReport> run(const RunRequest &req);

    /**
     * Run a request against an externally supplied prepared case
     * (MatrixMarket / synthetic operands).  req.app must match the
     * app `pc` was prepared for; req.dataset labels the report.
     * Same error contract as the cached overload.
     */
    StatusOr<RunReport> run(const RunRequest &req,
                            const PreparedCase &pc);

  private:
    /** Pinned layers of the accessor chain: each builder holds its
     *  upstream artifact through a shared_ptr so a bounded upstream
     *  cache cannot evict it mid-build. */
    std::shared_ptr<const CooMatrix>
    rawShared(const std::string &dataset, std::uint64_t seed);
    std::shared_ptr<const CooMatrix>
    reorderedShared(const std::string &dataset, ReorderKind kind,
                    std::uint64_t seed);

    runner::KeyedCache<std::pair<std::string, std::uint64_t>,
                       CooMatrix>
        raw_;
    runner::KeyedCache<
        std::tuple<std::string, ReorderKind, std::uint64_t>,
        CooMatrix>
        reordered_;
    runner::KeyedCache<std::tuple<std::string, std::string,
                                  ReorderKind, std::uint64_t>,
                       PreparedCase>
        prepared_;
};

} // namespace sparsepipe::api

#endif // SPARSEPIPE_API_SESSION_HH
