/**
 * @file
 * Result helpers shared by the workloads: seeds, pass counts, the
 * latency summary, peak RSS, and the per-layer metrics derived from
 * the traced run's spans.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <string>

#include "workloads.hh"

namespace perfbench {

void
Result::fail(const std::string &what)
{
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    correct = false;
    ++failed;
}

std::uint64_t
mixSeed(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

int
passesFor(int seconds, double pass_seconds)
{
    return std::max(1, static_cast<int>(std::lround(seconds / pass_seconds)));
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void
addLatencyMetrics(Result &result, const std::vector<double> &op_ms,
                  double wall_s,
                  const std::function<std::string(std::size_t)> &label)
{
    std::vector<std::size_t> order(op_ms.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return op_ms[a] < op_ms[b];
                     });
    const std::size_t n = order.size();
    const auto show = [&](std::size_t rank) {
        return "rank " + std::to_string(rank + 1) + " " +
               label(order[rank]);
    };
    // An odd count puts the median on one sample; ranks are 1-based.
    const std::size_t mid = n / 2;
    const double p50 = n % 2 ? op_ms[order[mid]]
                             : 0.5 * (op_ms[order[mid - 1]] +
                                      op_ms[order[mid]]);
    std::printf("op_p50_ms: %.3f ms of %zu ops at %s%s\n", p50, n,
                n % 2 ? "" : (show(mid - 1) + " and ").c_str(),
                show(mid).c_str());
    // The highest percentile with at least ten samples beyond it:
    // rank n-11 (0-based) has exactly ten larger-ranked samples.
    const std::size_t rank = n > 10 ? n - 11 : n - 1;
    const double pct = 100.0 * (rank + 1) / n;
    std::printf("op_tail_ms: p%.1f of %zu ops (%zu beyond) = %.3f ms at "
                "%s\n",
                pct, n, n - 1 - rank, op_ms[order[rank]],
                show(rank).c_str());
    result.add("ops_per_s", n / wall_s, "1/s");
    result.add("op_p50_ms", p50, "ms");
    result.add("op_tail_ms", op_ms[order[rank]], "ms");
}

double
peakRssMb(int pid)
{
    std::ifstream in(pid ? "/proc/" + std::to_string(pid) + "/status"
                         : std::string("/proc/self/status"));
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB -> MiB
    return 0.0;
}

void
writeTrace(const Options &opt, const std::vector<const Tracer *> &tracers)
{
    const std::string path = opt.out_dir + "/trace-" + opt.workload +
                             "-seed" + std::to_string(opt.seed) + ".json";
    if (!writeChromeTrace(path, tracers))
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    else
        std::printf("trace: %s\n", path.c_str());
}

void
addCacheMetrics(Result &result,
                const sparsepipe::api::Session::CacheStatsSnapshot &s)
{
    const auto add = [&](const std::string &layer,
                         const sparsepipe::runner::CacheStats &c) {
        result.add("api.cache." + layer + ".hits",
                   static_cast<double>(c.hits), "count");
        result.add("api.cache." + layer + ".misses",
                   static_cast<double>(c.misses), "count");
        result.add("api.cache." + layer + ".evictions",
                   static_cast<double>(c.evictions), "count");
    };
    add("raw", s.raw);
    add("reordered", s.reordered);
    add("prepared", s.prepared);
}

namespace {

const char *const kLayers[] = {"sparse", "prep",    "apps", "api",
                               "backend", "baseline", "serve"};
const char *const kApps[] = {"pr", "bfs", "sssp", "kcore", "gcn", "cg"};

} // anonymous namespace

const std::vector<std::pair<std::string, std::string>> &
perLayerMetrics()
{
    static const auto list = [] {
        std::vector<std::pair<std::string, std::string>> m = {
            {"sparse.generate_ms", "ms"},
            {"sparse.generate_nnz", "count"},
            {"sparse.csc_twin_ms", "ms"},
            {"prep.csr_build_ms", "ms"},
            {"prep.reorder_ms.vanilla", "ms"},
            {"prep.reorder_ms.locality", "ms"},
            {"prep.permute_ms", "ms"},
            {"prep.blocked_ms", "ms"},
            {"apps.prepare_ms", "ms"},
        };
        for (const char *app : kApps)
            m.push_back({std::string("apps.prepare_ms.") + app, "ms"});
        m.insert(m.end(), {{"api.run_ms", "ms"},
                           {"api.bind_ms", "ms"},
                           {"api.bind_mb", "MB"}});
        for (const char *layer : {"raw", "reordered", "prepared"})
            for (const char *c : {"hits", "misses", "evictions"})
                m.push_back({std::string("api.cache.") + layer + "." + c,
                             "count"});
        m.insert(m.end(), {{"backend.sparsepipe_ms", "ms"},
                           {"backend.gamma_ms", "ms"},
                           {"backend.sparsepipe_ns_per_cycle", "ns"},
                           {"backend.gamma_ns_per_cycle", "ns"},
                           {"backend.runs", "count"},
                           {"baseline.models_ms", "ms"},
                           {"serve.client_ms", "ms"},
                           {"serve.server_ms", "ms"},
                           {"serve.outside_ms", "ms"},
                           {"serve.coalesced_ratio", "ratio"},
                           {"serve.sim_runs", "count"},
                           {"serve.shed_total", "count"},
                           {"serve.responses_error", "count"},
                           {"cache.prepared.hits", "count"},
                           {"cache.prepared.misses", "count"},
                           {"cache.prepared.evictions", "count"}});
        for (const char *layer : kLayers)
            m.push_back({std::string("trace.share.") + layer + "_pct",
                         "%"});
        m.insert(m.end(), {{"trace.unattributed_pct", "%"},
                           {"trace.overhead_pct", "%"}});
        return m;
    }();
    return list;
}

void
addSpanMetrics(Result &result, const std::vector<const Tracer *> &op_tracers,
               const std::vector<const Tracer *> &all_tracers)
{
    const std::map<std::string, SpanStat> all = mergeStats(all_tracers);
    const std::map<std::string, double> counts = mergeCounts(all_tracers);
    const auto stat = [&](const std::string &span) {
        const auto it = all.find(span);
        return it == all.end() ? SpanStat{} : it->second;
    };
    const auto count = [&](const std::string &key) {
        const auto it = counts.find(key);
        return it == counts.end() ? 0.0 : it->second;
    };
    // Mean inclusive time per call of one span name.
    const auto per_call = [&](const std::string &metric,
                              const std::string &span) {
        const SpanStat s = stat(span);
        result.add(metric, s.calls ? s.incl_ms / s.calls : 0.0, "ms");
    };

    per_call("sparse.generate_ms", "sparse.generate");
    const SpanStat gen = stat("sparse.generate");
    result.add("sparse.generate_nnz",
               gen.calls ? count("sparse.generate_nnz") / gen.calls : 0.0,
               "count");
    per_call("sparse.csc_twin_ms", "sparse.csc_twin");
    per_call("prep.csr_build_ms", "prep.csr_build");
    per_call("prep.reorder_ms.vanilla", "prep.reorder.vanilla");
    per_call("prep.reorder_ms.locality", "prep.reorder.locality");
    per_call("prep.permute_ms", "prep.permute");
    per_call("prep.blocked_ms", "prep.blocked");
    SpanStat prepare;
    for (const char *app : kApps) {
        const SpanStat s = stat(std::string("apps.prepare.") + app);
        prepare.calls += s.calls;
        prepare.incl_ms += s.incl_ms;
        per_call(std::string("apps.prepare_ms.") + app,
                 std::string("apps.prepare.") + app);
    }
    result.add("apps.prepare_ms",
               prepare.calls ? prepare.incl_ms / prepare.calls : 0.0, "ms");
    per_call("api.run_ms", "api.run");
    per_call("api.bind_ms", "api.bind");
    const SpanStat bind = stat("api.bind");
    result.add("api.bind_mb",
               bind.calls ? count("api.bind_bytes") / bind.calls / 1e6 : 0.0,
               "MB");
    long long runs = 0;
    for (const std::string name : {"sparsepipe", "gamma"}) {
        const SpanStat s = stat("backend." + name);
        runs += s.calls;
        per_call("backend." + name + "_ms", "backend." + name);
        const double cycles = count("backend." + name + "_cycles");
        result.add("backend." + name + "_ns_per_cycle",
                   cycles > 0 ? s.incl_ms * 1e6 / cycles : 0.0, "ns");
    }
    result.add("backend.runs", static_cast<double>(runs), "count");
    per_call("baseline.models_ms", "baseline.models");
    per_call("serve.client_ms", "serve.client");

    // Shares of timed op wall time, by layer self time.
    const std::map<std::string, SpanStat> ops = mergeStats(op_tracers);
    std::map<std::string, double> layer_self;
    for (const auto &[name, s] : ops)
        layer_self[layerOf(name)] += s.self_ms;
    const auto op_it = ops.find("op");
    const double op_ms = op_it == ops.end() ? 0.0 : op_it->second.incl_ms;
    for (const char *layer : kLayers)
        result.add(std::string("trace.share.") + layer + "_pct",
                   op_ms > 0 ? 100.0 * layer_self[layer] / op_ms : 0.0, "%");
    result.add("trace.unattributed_pct",
               op_ms > 0 ? 100.0 * layer_self["op"] / op_ms : 0.0, "%");
}

} // namespace perfbench
