/**
 * @file
 * The benchmark's workloads and the pieces they share: the result
 * record, latency summaries, and the stage-by-stage pipeline the
 * traced run uses in place of the api::Session black box.
 *
 * Every workload runs a fixed op list built from the workload seed
 * (never a time budget), repeated in whole passes; the pass count is
 * derived from --seconds and the list's nominal pass length, so two
 * runs with the same arguments do identical work on any host.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "api/session.hh"
#include "trace.hh"

namespace perfbench {

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    int seconds = 10;
    bool trace = false;
    /** sparsepipe_serve binary (serve_mix only). */
    std::string serve_bin;
    /** Scratch directory for traces, port files and daemon logs. */
    std::string out_dir;
    /** Driver start: the first set-up repetition counts from here. */
    Clock::time_point started = Clock::now();
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct Result
{
    bool correct = true;
    long long attempted = 0;
    long long failed = 0;
    std::vector<Metric> metrics;

    void add(const std::string &name, double value,
             const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
    /** Record a failed output check; `what` goes to stderr. */
    void fail(const std::string &what);
};

Result runWarmSweep(const Options &opt);
Result runColdPrepare(const Options &opt);
Result runServeMix(const Options &opt);

// ---- shared helpers -------------------------------------------------

/** splitmix64 of (a, b): per-op generator seeds from the run seed. */
std::uint64_t mixSeed(std::uint64_t a, std::uint64_t b);

/** Whole passes of a list whose nominal length is pass_seconds. */
int passesFor(int seconds, double pass_seconds);

/** Median of a sample (mean of the two middle values when even). */
double median(std::vector<double> values);

/**
 * ops_per_s, op_p50_ms and op_tail_ms (the highest percentile with
 * at least ten samples beyond it).  The ranks of both, the sample
 * count and the op each falls on (`label` of the sample's index) are
 * printed on stdout.
 */
void addLatencyMetrics(Result &result, const std::vector<double> &op_ms,
                       double wall_s,
                       const std::function<std::string(std::size_t)> &label);

/** Peak resident set (VmHWM) of a process, in MiB; self when 0. */
double peakRssMb(int pid = 0);

/**
 * Per-layer metrics from the traced run's spans and counts.
 * `op_tracers` recorded the timed traced ops (root span "op"),
 * `all_tracers` every span of the run (setup and output checks
 * included).  Per-call stage times come from all of them; layer
 * shares and the unattributed share from the timed ops only.
 */
void addSpanMetrics(Result &result,
                    const std::vector<const Tracer *> &op_tracers,
                    const std::vector<const Tracer *> &all_tracers);

/** Write the run's spans to <out_dir>/trace-<workload>-seed<N>.json. */
void writeTrace(const Options &opt, const std::vector<const Tracer *> &tracers);

/** Session cache counters as api.cache.<layer>.<counter>. */
void addCacheMetrics(Result &result,
                     const sparsepipe::api::Session::CacheStatsSnapshot &s);

/** Every per-layer metric the traced run reports, in output order. */
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();

// ---- stage-by-stage pipeline (mirrors api::Session) ------------------

/** generateDataset under a sparse.generate span. */
sparsepipe::CooMatrix generateStage(Tracer *t, const std::string &dataset,
                                    std::uint64_t seed);

/** Session::reordered's work: CSR build, permutation, apply. */
sparsepipe::CooMatrix reorderStage(Tracer *t,
                                   const sparsepipe::CooMatrix &raw,
                                   sparsepipe::ReorderKind kind);

/** api::prepareCase's work: app prepare, CSC twin, blocked layout. */
sparsepipe::api::PreparedCase
prepareStage(Tracer *t, const std::string &app,
             const sparsepipe::CooMatrix &reordered);

/** Session::run(req, pc)'s work: bind a workspace, run the engine. */
struct EngineRun
{
    sparsepipe::Workspace ws;
    sparsepipe::SimStats stats;
};
EngineRun engineStage(Tracer *t, const sparsepipe::api::RunRequest &req,
                      const sparsepipe::api::PreparedCase &pc);

/**
 * The analytical baselines a paper-figure case reports (ideal,
 * strict ideal, oracle, CPU, GPU), charged for `iters` iterations.
 * @return the sum of their modelled seconds (positive when sane).
 */
double baselineStage(Tracer *t, const sparsepipe::api::PreparedCase &pc,
                     const sparsepipe::SparsepipeConfig &sp,
                     sparsepipe::Idx iters);

/** Bitwise equality of every vector, dense and scalar tensor. */
bool sameOutputs(const sparsepipe::Workspace &a,
                 const sparsepipe::Workspace &b);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
