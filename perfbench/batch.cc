/**
 * @file
 * The two batch workloads, both driven from this one thread with
 * band_threads = 1 (no pool), so two operands are never prepared
 * concurrently and peak RSS repeats exactly.
 *
 *  warm_sweep    the paper-figure path: a grid of every sweep app on
 *                all nine datasets is prepared in one Session during
 *                set-up; the timed ops are Session::run plus the
 *                baseline models across three hardware configs, with
 *                gamma runs worth about 29% of its engine time.
 *  cold_prepare  the first result for a new matrix: each op builds a
 *                fresh Session and a fresh generator seed and runs
 *                one iteration, so preprocessing dominates and no
 *                cross-iteration reuse happens.
 *
 * Untraced, the timed ops call api::Session.  Traced, every op runs
 * twice, back to back: untraced as the reference (the base of
 * trace.overhead_pct) and stage by stage under spans (pipeline.cc),
 * which must reproduce the reference op's simulated cycles exactly.
 */

#include <cstdio>
#include <memory>
#include <tuple>
#include <utility>

#include "sparse/datasets.hh"
#include "util/random.hh"
#include "workloads.hh"

using namespace sparsepipe;

namespace perfbench {

namespace {

const std::vector<std::string> &
allDatasets()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const DatasetSpec &spec : datasetSpecs())
            out.push_back(spec.name);
        return out;
    }();
    return names;
}

template <typename T>
void
shuffle(std::vector<T> &items, std::uint64_t seed)
{
    Rng rng(seed);
    for (std::size_t i = items.size(); i > 1; --i)
        std::swap(items[i - 1], items[rng.nextBelow(i)]);
}

/** One timed op's outcome, kept for the determinism checks. */
struct OpOutcome
{
    bool ok = false;
    Tick cycles = 0;
};

/** Op latencies and wall time of one run over the whole op list. */
struct Timed
{
    std::vector<double> op_ms;
    double wall_s = 0.0;
    std::vector<OpOutcome> outcomes;
};

template <typename RunOp>
void
timeOp(Timed &timed, RunOp &run_op, std::size_t i, std::size_t op_id)
{
    const auto t0 = Clock::now();
    timed.outcomes.push_back(run_op(i, op_id));
    timed.op_ms.push_back(msSince(t0));
}

/**
 * Every op must succeed, and every pass repeats the same `ops` ops,
 * so each op's cycles must match pass 0 exactly.
 */
void
checkOutcomes(Result &result, const Timed &timed, std::size_t ops)
{
    for (std::size_t k = 0; k < timed.outcomes.size(); ++k) {
        const OpOutcome &out = timed.outcomes[k];
        const OpOutcome &first = timed.outcomes[k % ops];
        if (!out.ok)
            result.fail("op returned an error status");
        else if (first.ok && out.cycles != first.cycles)
            result.fail("op " + std::to_string(k % ops) +
                        " cycles differ between passes");
    }
}

/** Run `passes` passes of an `ops`-long list. */
template <typename RunOp>
Timed
timedPasses(Result &result, std::size_t ops, int passes, RunOp run_op)
{
    Timed timed;
    const auto start = Clock::now();
    for (int pass = 0; pass < passes; ++pass)
        for (std::size_t i = 0; i < ops; ++i)
            timeOp(timed, run_op, i, pass * ops + i);
    timed.wall_s = msSince(start) / 1e3;
    checkOutcomes(result, timed, ops);
    return timed;
}

/**
 * The traced run: every op runs untraced (the reference) and traced
 * back to back, the order alternating from op to op, so host drift
 * and cache warmth fall on both alike.
 */
template <typename RefOp, typename TracedOp>
std::pair<Timed, Timed>
interleavedPasses(Result &result, std::size_t ops, int passes, RefOp ref_op,
                  TracedOp traced_op)
{
    Timed reference, traced;
    for (int pass = 0; pass < passes; ++pass) {
        for (std::size_t i = 0; i < ops; ++i) {
            const std::size_t op_id = pass * ops + i;
            if (op_id % 2 == 0) {
                timeOp(reference, ref_op, i, op_id);
                timeOp(traced, traced_op, i, op_id);
            } else {
                timeOp(traced, traced_op, i, op_id);
                timeOp(reference, ref_op, i, op_id);
            }
        }
    }
    checkOutcomes(result, reference, ops);
    checkOutcomes(result, traced, ops);
    return {std::move(reference), std::move(traced)};
}

/** The traced replay must match the reference op for op. */
void
checkReplay(Result &result, const Timed &reference, const Timed &traced)
{
    for (std::size_t i = 0; i < traced.outcomes.size(); ++i)
        if (traced.outcomes[i].cycles != reference.outcomes[i].cycles)
            result.fail("stage-by-stage replay of op " + std::to_string(i) +
                        " gave " + std::to_string(traced.outcomes[i].cycles) +
                        " cycles, Session gave " +
                        std::to_string(reference.outcomes[i].cycles));
}

double
sumCycles(const Timed &timed)
{
    double total = 0.0;
    for (const OpOutcome &out : timed.outcomes)
        total += static_cast<double>(out.cycles);
    return total;
}

/**
 * Span metrics, plus trace.overhead_pct: one minus the median over
 * ops of the traced/untraced rate ratio of each back-to-back pair.
 */
void
addTracedMetrics(Result &result, const Timed &reference, const Timed &traced,
                 const std::vector<const Tracer *> &op_tracers,
                 const std::vector<const Tracer *> &all_tracers)
{
    addSpanMetrics(result, op_tracers, all_tracers);
    std::vector<double> rate_ratio;
    for (std::size_t k = 0; k < traced.op_ms.size(); ++k)
        rate_ratio.push_back(reference.op_ms[k] / traced.op_ms[k]);
    result.add("trace.overhead_pct", 100.0 * (1.0 - median(rate_ratio)), "%");
}

// ---- warm_sweep -------------------------------------------------------

const std::vector<std::string> kSweepApps = {"pr",    "bfs", "sssp",
                                             "kcore", "gcn", "cg"};

/**
 * Gamma pairs: about 29% of the timed engine time (seed-777
 * traced run).  Gamma costs 5-20x a sparsepipe run of the same case,
 * so running it on every case would hide the sparsepipe engine.  One
 * per app, plus bfs on ca (small and cheap, so peak RSS stays put),
 * so a pass is 61 ops: with an odd pass count the sample count is odd
 * and op_p50_ms is one sample, never the mean of two from different
 * cases.
 */
const std::vector<std::pair<std::string, std::string>> kGammaCases = {
    {"pr", "co"},    {"bfs", "wi"}, {"sssp", "co"}, {"kcore", "ad"},
    {"gcn", "gy"},   {"cg", "gy"},  {"bfs", "ca"}};

/** Nominal length of one warm_sweep pass on a 4-core x86 host. */
constexpr double kWarmPassSeconds = 3.7;
constexpr int kWarmSetups = 3;

/** iso-GPU, iso-CPU, and iso-GPU with a third of the buffer. */
SparsepipeConfig
sweepConfig(int index)
{
    if (index == 1)
        return SparsepipeConfig::isoCpu();
    SparsepipeConfig cfg = SparsepipeConfig::isoGpu();
    if (index == 2)
        cfg.buffer_bytes = 512 << 10;
    return cfg;
}

struct SweepOp
{
    std::string app;
    std::string dataset;
    int config = 0;
    backend::BackendKind backend = backend::BackendKind::Sparsepipe;
};

/** Each grid case once under one of the configs, plus the gamma pairs. */
std::vector<SweepOp>
sweepOps(std::uint64_t seed)
{
    std::vector<SweepOp> ops;
    const std::vector<std::string> &datasets = allDatasets();
    for (std::size_t a = 0; a < kSweepApps.size(); ++a)
        for (std::size_t d = 0; d < datasets.size(); ++d)
            ops.push_back({kSweepApps[a], datasets[d],
                           static_cast<int>((a + d) % 3),
                           backend::BackendKind::Sparsepipe});
    for (const auto &[app, dataset] : kGammaCases)
        for (const SweepOp &op : std::vector<SweepOp>(ops))
            if (op.app == app && op.dataset == dataset)
                ops.push_back({app, dataset, op.config,
                               backend::BackendKind::Gamma});
    shuffle(ops, mixSeed(seed, 1));
    return ops;
}

api::RunRequest
sweepRequest(const SweepOp &op)
{
    api::RunRequest req;
    req.app = op.app;
    req.dataset = op.dataset;
    req.sp = sweepConfig(op.config);
    req.backend = op.backend;
    // The paper figures' inputs: the canonical generator seed.
    req.seed = api::kDefaultSeed;
    req.band_threads = 1;
    return req;
}

/** Prepare the whole grid through the Session's caches. */
std::unique_ptr<api::Session>
prepareGrid()
{
    auto session = std::make_unique<api::Session>();
    for (const std::string &app : kSweepApps)
        for (const std::string &dataset : allDatasets())
            session->prepared(app, dataset, ReorderKind::Vanilla,
                              api::kDefaultSeed);
    return session;
}

} // anonymous namespace

Result
runWarmSweep(const Options &opt)
{
    Result result;
    std::vector<double> setup_s;
    std::unique_ptr<api::Session> session;
    for (int rep = 0; rep < (opt.trace ? 1 : kWarmSetups); ++rep) {
        session.reset();
        const auto t0 = rep == 0 ? opt.started : Clock::now();
        session = prepareGrid();
        setup_s.push_back(msSince(t0) / 1e3);
    }
    const std::vector<SweepOp> ops = sweepOps(opt.seed);
    const int passes = passesFor(opt.seconds, kWarmPassSeconds);

    // The paper-figure op: cached prepared lookup, Session::run, then
    // the baseline models (what the fig14-23 benches do per case).
    const auto session_op = [&](std::size_t i, std::size_t) {
        const api::RunRequest req = sweepRequest(ops[i]);
        const api::PreparedCase &pc = session->prepared(
            req.app, req.dataset, req.reorder, req.seed);
        StatusOr<api::RunReport> report = session->run(req, pc);
        if (!report.ok())
            return OpOutcome{};
        const double modelled =
            baselineStage(nullptr, pc, req.sp, report->stats.iterations);
        return OpOutcome{modelled > 0.0, report->stats.cycles};
    };
    // Traced runs replay every op stage by stage under spans.
    const auto origin = Clock::now();
    Tracer setup_tracer(origin), op_tracer(origin), check_tracer(origin);
    Timed timed;
    if (!opt.trace) {
        timed = timedPasses(result, ops.size(), passes, session_op);
    } else {
        for (const std::string &dataset : allDatasets()) {
            const CooMatrix raw =
                generateStage(&setup_tracer, dataset, api::kDefaultSeed);
            const CooMatrix reordered =
                reorderStage(&setup_tracer, raw, ReorderKind::Vanilla);
            for (const std::string &app : kSweepApps) {
                const api::PreparedCase pc =
                    prepareStage(&setup_tracer, app, reordered);
                if (pc.csr != session->prepared(app, dataset,
                                                ReorderKind::Vanilla,
                                                api::kDefaultSeed)
                                  .csr)
                    result.fail("stage-by-stage prepare of " + app + " on " +
                                dataset + " differs from the Session's");
            }
        }
        const auto traced_op = [&](std::size_t i, std::size_t op_id) {
            op_tracer.setOp(static_cast<long long>(op_id));
            Span op_span(&op_tracer, "op");
            const api::RunRequest req = sweepRequest(ops[i]);
            const api::PreparedCase *pc = nullptr;
            const EngineRun run = [&] {
                Span run_span(&op_tracer, "api.run");
                pc = &session->prepared(req.app, req.dataset, req.reorder,
                                        req.seed);
                return engineStage(&op_tracer, req, *pc);
            }();
            const double modelled = baselineStage(&op_tracer, *pc, req.sp,
                                                  run.stats.iterations);
            return OpOutcome{modelled > 0.0, run.stats.cycles};
        };
        Timed traced;
        std::tie(timed, traced) = interleavedPasses(
            result, ops.size(), passes, session_op, traced_op);
        checkReplay(result, timed, traced);
        result.attempted += static_cast<long long>(traced.op_ms.size());
        addTracedMetrics(result, timed, traced, {&op_tracer},
                         {&setup_tracer, &op_tracer, &check_tracer});
    }
    const double peak_rss = peakRssMb();

    // Output check: every sparsepipe/gamma pair gives bit-identical
    // workspace outputs, and the stage-by-stage engine run reproduces
    // the timed Session op's cycles.
    for (std::size_t i = 0; i < ops.size(); ++i) {
        if (ops[i].backend != backend::BackendKind::Gamma)
            continue;
        api::RunRequest req = sweepRequest(ops[i]);
        const api::PreparedCase &pc = session->prepared(
            req.app, req.dataset, req.reorder, req.seed);
        const EngineRun gamma = engineStage(
            opt.trace ? &check_tracer : nullptr, req, pc);
        req.backend = backend::BackendKind::Sparsepipe;
        const EngineRun sparsepipe = engineStage(
            opt.trace ? &check_tracer : nullptr, req, pc);
        const std::string label = ops[i].app + " on " + ops[i].dataset;
        if (!sameOutputs(gamma.ws, sparsepipe.ws))
            result.fail("gamma and sparsepipe outputs differ for " + label);
        if (gamma.stats.cycles != timed.outcomes[i].cycles)
            result.fail("gamma replay cycles differ for " + label);
    }
    if (opt.trace)
        writeTrace(opt, {&setup_tracer, &op_tracer, &check_tracer});

    result.attempted += static_cast<long long>(timed.op_ms.size());
    addCacheMetrics(result, session->cacheStats());
    result.add("setup_s", median(setup_s), "s");
    addLatencyMetrics(result, timed.op_ms, timed.wall_s, [&](std::size_t k) {
        const SweepOp &op = ops[k % ops.size()];
        return op.app + " on " + op.dataset + ", config " +
               std::to_string(op.config) +
               (op.backend == backend::BackendKind::Gamma ? ", gamma" : "");
    });
    result.add("peak_rss_mb", peak_rss, "MB");
    result.add("sim_cycles", sumCycles(timed), "cycles");
    return result;
}

// ---- cold_prepare -----------------------------------------------------

namespace {

const std::vector<std::string> kColdApps = {"pr", "sssp", "gcn", "cg"};

/** Nominal length of one cold_prepare pass on a 4-core x86 host. */
constexpr double kColdPassSeconds = 8.5;
constexpr int kColdSetups = 5;

api::RunRequest
coldRequest(std::size_t app, std::size_t dataset, std::uint64_t seed)
{
    api::RunRequest req;
    req.app = kColdApps[app];
    req.dataset = allDatasets()[dataset];
    req.iters = 1;
    // A fixed third of the cases use the locality reorder, so the
    // mix's cost profile does not depend on the seed.
    req.reorder =
        (app + dataset) % 3 == 0 ? ReorderKind::Locality : ReorderKind::Vanilla;
    req.seed = mixSeed(seed, app * 100 + dataset);
    req.band_threads = 1;
    return req;
}

std::vector<api::RunRequest>
coldOps(std::uint64_t seed)
{
    std::vector<api::RunRequest> ops;
    for (std::size_t a = 0; a < kColdApps.size(); ++a)
        for (std::size_t d = 0; d < allDatasets().size(); ++d)
            ops.push_back(coldRequest(a, d, seed));
    shuffle(ops, mixSeed(seed, 2));
    return ops;
}

/** One cold op through a fresh Session, baselines included. */
OpOutcome
coldSessionOp(const api::RunRequest &req,
              api::Session::CacheStatsSnapshot *cache_totals)
{
    api::Session session;
    StatusOr<api::RunReport> report = session.run(req);
    if (!report.ok())
        return OpOutcome{};
    const api::PreparedCase &pc =
        session.prepared(req.app, req.dataset, req.reorder, req.seed);
    const double modelled =
        baselineStage(nullptr, pc, req.sp, report->stats.iterations);
    if (cache_totals) {
        const api::Session::CacheStatsSnapshot s = session.cacheStats();
        for (auto [acc, c] :
             {std::pair{&cache_totals->raw, &s.raw},
              std::pair{&cache_totals->reordered, &s.reordered},
              std::pair{&cache_totals->prepared, &s.prepared}}) {
            acc->hits += c->hits;
            acc->misses += c->misses;
            acc->evictions += c->evictions;
        }
    }
    return OpOutcome{modelled > 0.0, report->stats.cycles};
}

} // anonymous namespace

Result
runColdPrepare(const Options &opt)
{
    Result result;
    std::vector<double> setup_s;
    std::vector<api::RunRequest> ops;
    for (int rep = 0; rep < (opt.trace ? 1 : kColdSetups); ++rep) {
        const auto t0 = rep == 0 ? opt.started : Clock::now();
        ops = coldOps(opt.seed);
        // The warm-up op: one fixed mid-size case, untimed.
        if (!coldSessionOp(coldRequest(0, 3, mixSeed(opt.seed, 3)), nullptr)
                 .ok) {
            result.fail("warm-up op failed");
        }
        setup_s.push_back(msSince(t0) / 1e3);
    }
    const int passes = passesFor(opt.seconds, kColdPassSeconds);

    api::Session::CacheStatsSnapshot cache_totals;
    const auto session_op = [&](std::size_t i, std::size_t) {
        return coldSessionOp(ops[i], &cache_totals);
    };
    Timed timed;
    if (!opt.trace) {
        timed = timedPasses(result, ops.size(), passes, session_op);
    } else {
        Tracer op_tracer(Clock::now());
        const auto traced_op = [&](std::size_t i, std::size_t op_id) {
            op_tracer.setOp(static_cast<long long>(op_id));
            Span op_span(&op_tracer, "op");
            const api::RunRequest &req = ops[i];
            api::PreparedCase pc;
            EngineRun run = [&] {
                Span run_span(&op_tracer, "api.run");
                const CooMatrix raw =
                    generateStage(&op_tracer, req.dataset, req.seed);
                const CooMatrix reordered =
                    reorderStage(&op_tracer, raw, req.reorder);
                pc = prepareStage(&op_tracer, req.app, reordered);
                return engineStage(&op_tracer, req, pc);
            }();
            const double modelled = baselineStage(&op_tracer, pc, req.sp,
                                                  run.stats.iterations);
            return OpOutcome{modelled > 0.0, run.stats.cycles};
        };
        Timed traced;
        std::tie(timed, traced) = interleavedPasses(
            result, ops.size(), passes, session_op, traced_op);
        checkReplay(result, timed, traced);
        result.attempted += static_cast<long long>(traced.op_ms.size());
        addTracedMetrics(result, timed, traced, {&op_tracer}, {&op_tracer});
        writeTrace(opt, {&op_tracer});
    }
    const double peak_rss = peakRssMb();

    result.attempted += static_cast<long long>(timed.op_ms.size());
    addCacheMetrics(result, cache_totals);
    result.add("setup_s", median(setup_s), "s");
    addLatencyMetrics(result, timed.op_ms, timed.wall_s, [&](std::size_t k) {
        const api::RunRequest &req = ops[k % ops.size()];
        return req.app + " on " + req.dataset +
               (req.reorder == ReorderKind::Locality ? ", locality" : "");
    });
    result.add("peak_rss_mb", peak_rss, "MB");
    result.add("sim_cycles", sumCycles(timed), "cycles");
    return result;
}

} // namespace perfbench
