/**
 * @file
 * Host-side wall-clock microbenchmarks for the pass engine and the
 * Session pipeline, emitting a BENCH_4.json document.
 *
 * Unlike the figure/table benches (which report *modelled*
 * accelerator cycles), this bench times the simulator itself: fused
 * passes over one bucketing, bucket slab construction, and
 * cold-vs-cached Session preprocessing.  Every number in the JSON is
 * measured by this run (best of --reps).  Nightly CI uploads the
 * file as an artifact.
 */

#include <chrono>
#include <cstdio>
#include <string>

#include "api/session.hh"
#include "buffer/dual_buffer.hh"
#include "core/buckets.hh"
#include "core/pass_engine.hh"
#include "sparse/generate.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace sparsepipe {
namespace {

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               Clock::now() - t0)
        .count();
}

/** Best-of-reps wall-clock of `body` in milliseconds. */
template <typename Fn>
double
bestMs(int reps, Fn &&body)
{
    double best = 0.0;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = Clock::now();
        body();
        const double ms = msSince(t0);
        if (r == 0 || ms < best)
            best = ms;
    }
    return best;
}

/** Best-of-reps wall-clock of `passes` fused passes over one
 *  bucketing. */
double
timeFusedPasses(int reps, Idx passes)
{
    Rng rng(0x4e6);
    const Idx n = 16384;
    CooMatrix raw = generateRmat(n, n * 8, rng);
    const CscMatrix csc = CscMatrix::fromCoo(raw);

    const SparsepipeConfig cfg;
    const StepBuckets b = StepBuckets::build(
        csc, cfg.resolveSubTensor(csc.cols(), csc.nnz()));
    PassCosts costs;
    costs.vector_read_bytes = static_cast<double>(n) * 8.0;
    costs.vector_write_bytes = static_cast<double>(n) * 8.0;
    costs.ewise_work = static_cast<double>(n);

    return bestMs(reps, [&] {
        EventQueue eq;
        DramModel dram(cfg.dram);
        PassEngine engine(cfg, dram, eq);
        Tick t = 0;
        for (Idx p = 0; p < passes; ++p) {
            DualBufferModel buffer(cfg.buffer_bytes, 12, b.bands());
            t = engine.runFused(b, buffer, costs, t).end;
        }
    });
}

} // anonymous namespace
} // namespace sparsepipe

int
main(int argc, char **argv)
{
    using namespace sparsepipe;

    std::string json_path = "BENCH_4.json";
    int reps = 3;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else if (arg == "--reps" && i + 1 < argc) {
            reps = std::atoi(argv[++i]);
        } else {
            sp_fatal("usage: bench_micro_engine [--json PATH] "
                     "[--reps N]");
        }
    }

    // ---- pass engine: fused passes over one bucketing -------------
    const double engine_ms = timeFusedPasses(reps, 24);

    // ---- bucket slab construction ---------------------------------
    Rng rng(0x517);
    const CscMatrix csc =
        CscMatrix::fromCoo(generateUniform(16384, 16384 * 8, rng));
    const double buckets_ms = bestMs(reps, [&] {
        StepBuckets b = StepBuckets::build(csc, 32);
        if (b.nnz() != csc.nnz())
            sp_fatal("bucket build dropped elements");
    });

    // ---- Session: cold prepare vs cached re-run -------------------
    api::RunRequest req;
    req.app = "pr";
    req.dataset = "ca";
    req.iters = 8;

    api::Session session;
    const auto t_cold = Clock::now();
    session.prepared(req.app, req.dataset, req.reorder, req.seed);
    const double prepare_cold_ms = msSince(t_cold);
    session.run(req).value(); // warm every cache level
    const double run_cached_ms =
        bestMs(reps, [&] { session.run(req).value(); });

    std::printf("engine fused x24   : %.2f ms\n", engine_ms);
    std::printf("bucket slab build  : %.2f ms\n", buckets_ms);
    std::printf("session prepare    : cold %.2f ms, cached run "
                "%.2f ms\n",
                prepare_cold_ms, run_cached_ms);

    FILE *f = std::fopen(json_path.c_str(), "w");
    if (!f)
        sp_fatal("cannot write %s", json_path.c_str());
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"bench_micro_engine\",\n");
    std::fprintf(f, "  \"schema\": \"bench-trajectory-v1\",\n");
    std::fprintf(f, "  \"measured\": {\n");
    std::fprintf(f,
                 "    \"engine.fused_pass24.span_ms\": %.3f,\n"
                 "    \"buckets.build_ms\": %.3f,\n"
                 "    \"session.prepare_cold_ms\": %.3f,\n"
                 "    \"session.run_cached_ms\": %.3f\n",
                 engine_ms, buckets_ms,
                 prepare_cold_ms, run_cached_ms);
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
    return 0;
}
