/**
 * @file
 * serve_mix: the sparsepipe_serve daemon (--jobs 2, default cache
 * capacities) driven closed-loop by three persistent connections from
 * this one process; each connection sends its next request only
 * after the previous reply.
 *
 * About 90% of requests hit a warm hot set of (app, dataset) keys
 * that fits the prepared LRU; the rest miss with fresh generator
 * seeds on small datasets, so the daemon generates, reorders,
 * prepares and evicts.  Hits set op_p50_ms and misses op_tail_ms.
 * Three connections against two workers keep admission far below its
 * queue bound, so sheds are 0 by design.
 *
 * Set-up (spawn, port-file wait, warming the hot set, then enough
 * misses to fill every cache layer to capacity) runs on a single
 * connection and is repeated on fresh daemons; the last one serves
 * the timed phase and its peak RSS is the workload's.  Afterwards
 * every key is run once more through a local api::Session (stage by
 * stage under spans in the traced run) and must give the daemon's
 * cycles.
 */

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <latch>
#include <thread>

#include "obs/metrics.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "util/random.hh"
#include "workloads.hh"

extern char **environ;

using namespace sparsepipe;

namespace perfbench {

namespace {

constexpr int kConnections = 3;
constexpr int kJobs = 2;
constexpr int kServeSetups = 3;
/** Requests per connection per pass; every tenth one misses. */
constexpr int kRequestsPerConn = 60;
constexpr int kMissEvery = 10;
/** Set-up misses: hot set + these reach every layer's capacity. */
constexpr int kFillMisses = 20;
constexpr long long kIters = 4;
/** Nominal length of one serve_mix pass on a 4-core x86 host. */
constexpr double kServePassSeconds = 1.5;

const char *const kHotApps[] = {"pr", "sssp", "bfs"};
const char *const kHotDatasets[] = {"ca", "gy", "ad", "ro"};
const char *const kMissDatasets[] = {"ca", "gy", "g2", "ad", "ro", "eu"};

struct Key
{
    std::string app;
    std::string dataset;
    std::uint64_t seed = 0;
};

serve::Request
makeRequest(const Key &key, const std::string &id)
{
    serve::Request req;
    req.id = id;
    req.app = key.app;
    req.dataset = key.dataset;
    req.iters = kIters;
    req.seed = key.seed;
    return req;
}

/** The api::RunRequest the daemon builds for a protocol request. */
api::RunRequest
localRequest(const Key &key)
{
    api::RunRequest req;
    req.app = key.app;
    req.dataset = key.dataset;
    req.iters = kIters;
    req.seed = key.seed;
    req.sp = SparsepipeConfig::isoGpu();
    return req;
}

/**
 * The key table: hot keys first, then misses as they are minted.
 * Hot keys use the canonical generator seed (the daemon's default),
 * so the hot set costs the same for every workload seed; misses get
 * fresh seeds derived from it.
 */
class Keys
{
  public:
    explicit Keys(std::uint64_t seed) : seed_(seed)
    {
        for (const char *app : kHotApps)
            for (const char *dataset : kHotDatasets)
                keys_.push_back({app, dataset, api::kDefaultSeed});
        hot_ = keys_.size();
    }
    std::size_t hot() const { return hot_; }
    const Key &operator[](std::size_t i) const { return keys_[i]; }
    std::size_t size() const { return keys_.size(); }

    /** A fresh key: miss number `n` of stream `stream`. */
    std::size_t miss(std::uint64_t stream, std::uint64_t n)
    {
        keys_.push_back({kHotApps[n % 3], kMissDatasets[n % 6],
                         mixSeed(seed_, stream * 1000000 + n)});
        return keys_.size() - 1;
    }

  private:
    std::uint64_t seed_;
    std::size_t hot_ = 0;
    std::vector<Key> keys_;
};

/**
 * Per-connection request lists (key indices) for one pass.  Hits
 * walk a seed-shuffled cycle over the hot set, so every hot key is
 * hit equally often and the pass's simulated work does not depend on
 * the seed beyond the misses' matrices.
 */
std::vector<std::vector<std::size_t>>
passLists(Keys &keys, std::uint64_t seed, int pass)
{
    std::vector<std::size_t> cycle(keys.hot());
    for (std::size_t k = 0; k < cycle.size(); ++k)
        cycle[k] = k;
    Rng rng(mixSeed(seed, 20 + pass));
    for (std::size_t k = cycle.size(); k > 1; --k)
        std::swap(cycle[k - 1], cycle[rng.nextBelow(k)]);
    std::vector<std::vector<std::size_t>> lists(kConnections);
    std::uint64_t misses = 0, hits = 0;
    for (int i = 0; i < kRequestsPerConn; ++i) {
        for (int c = 0; c < kConnections; ++c) {
            lists[c].push_back(i % kMissEvery == kMissEvery / 2
                                   ? keys.miss(2 + pass, misses++)
                                   : cycle[hits++ % cycle.size()]);
        }
    }
    return lists;
}

/** One sparsepipe_serve child process; killed if still alive. */
class Daemon
{
  public:
    ~Daemon() { stop(); }

    bool start(const Options &opt)
    {
        const std::string port_file = opt.out_dir + "/serve.port";
        const std::string log_file = opt.out_dir + "/serve.log";
        std::remove(port_file.c_str());
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_addopen(&actions, 1, log_file.c_str(),
                                         O_WRONLY | O_CREAT | O_APPEND,
                                         0644);
        posix_spawn_file_actions_adddup2(&actions, 1, 2);
        const std::string jobs = std::to_string(kJobs);
        const char *argv[] = {opt.serve_bin.c_str(), "--listen",
                              "127.0.0.1:0",         "--port-file",
                              port_file.c_str(),     "--jobs",
                              jobs.c_str(),          nullptr};
        // One malloc arena: with one per thread, which worker's arena
        // an operand lands in decides how much freed memory stays
        // resident, and the peak RSS of identical runs spread 8%.
        std::vector<char *> envp;
        for (char **e = environ; *e; ++e)
            if (std::strncmp(*e, "MALLOC_ARENA_MAX=", 17) != 0)
                envp.push_back(*e);
        envp.push_back(const_cast<char *>("MALLOC_ARENA_MAX=1"));
        envp.push_back(nullptr);
        const int rc = posix_spawn(&pid_, opt.serve_bin.c_str(), &actions,
                                   nullptr, const_cast<char **>(argv),
                                   envp.data());
        posix_spawn_file_actions_destroy(&actions);
        if (rc != 0) {
            pid_ = -1;
            std::fprintf(stderr, "perfbench: cannot spawn %s\n",
                         opt.serve_bin.c_str());
            return false;
        }
        const auto t0 = Clock::now();
        while (msSince(t0) < 30000) {
            std::ifstream in(port_file);
            if (in >> port_ && port_ > 0)
                return true;
            int status = 0;
            if (waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                std::fprintf(stderr,
                             "perfbench: daemon exited early (see %s)\n",
                             log_file.c_str());
                return false;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        std::fprintf(stderr, "perfbench: no port file after 30 s\n");
        return false;
    }

    /** SIGINT drains; SIGKILL if it has not exited within 30 s. */
    void stop()
    {
        if (pid_ <= 0)
            return;
        kill(pid_, SIGINT);
        const auto t0 = Clock::now();
        int status = 0;
        while (waitpid(pid_, &status, WNOHANG) == 0) {
            if (msSince(t0) > 30000) {
                kill(pid_, SIGKILL);
                waitpid(pid_, &status, 0);
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        pid_ = -1;
    }

    int pid() const { return pid_; }
    ListenAddress address() const { return {"127.0.0.1", port_}; }

  private:
    pid_t pid_ = -1;
    int port_ = 0;
};

/** One reply as the load generator saw it. */
struct Reply
{
    std::size_t key = 0;
    bool transport_ok = false;
    serve::Response resp;
    double client_ms = 0.0;
};

/** Warm the hot set, then fill every cache layer, on one connection. */
bool
warmAndFill(const Daemon &daemon, Keys &keys)
{
    StatusOr<serve::Client> client = serve::Client::connect(daemon.address());
    if (!client.ok())
        return false;
    std::vector<std::size_t> warm;
    for (std::size_t k = 0; k < keys.hot(); ++k)
        warm.push_back(k);
    for (int n = 0; n < kFillMisses; ++n)
        warm.push_back(keys.miss(1, n));
    for (std::size_t k : warm) {
        StatusOr<serve::Response> resp =
            client->call(makeRequest(keys[k], "warm"));
        if (!resp.ok() || !resp->status.ok())
            return false;
    }
    return true;
}

/** The scrape's counters, for deltas across a phase. */
obs::MetricsRegistry
scrape(const Daemon &daemon, Tracer *t, Result &result)
{
    Span span(t, "serve.scrape");
    StatusOr<std::string> body = serve::scrapeMetrics(daemon.address());
    if (!body.ok()) {
        result.fail("metrics scrape failed: " + body.status().toString());
        return {};
    }
    return obs::MetricsRegistry::fromJson(*body);
}

/** Closed-loop passes over the three connections. */
struct Phase
{
    std::vector<Reply> replies;
    double wall_s = 0.0;
};

Phase
runPhase(const Daemon &daemon, Keys &keys, std::uint64_t seed,
         int first_pass, int passes, std::vector<Tracer> *tracers)
{
    // Lists are minted up front so key numbering is deterministic.
    std::vector<std::vector<std::size_t>> lists(kConnections);
    for (int p = first_pass; p < first_pass + passes; ++p) {
        std::vector<std::vector<std::size_t>> pass = passLists(keys, seed, p);
        for (int c = 0; c < kConnections; ++c)
            lists[c].insert(lists[c].end(), pass[c].begin(), pass[c].end());
    }
    std::vector<std::vector<Reply>> per_conn(kConnections);
    std::latch ready(kConnections + 1);
    std::vector<std::thread> threads;
    for (int c = 0; c < kConnections; ++c) {
        threads.emplace_back([&, c] {
            StatusOr<serve::Client> client =
                serve::Client::connect(daemon.address());
            Tracer *t = tracers ? &(*tracers)[c] : nullptr;
            ready.arrive_and_wait();
            for (std::size_t i = 0; i < lists[c].size(); ++i) {
                Reply reply;
                reply.key = lists[c][i];
                const std::size_t op_id =
                    c * 100000 + first_pass * kRequestsPerConn + i;
                if (t)
                    t->setOp(static_cast<long long>(op_id));
                const auto t0 = Clock::now();
                {
                    Span op_span(t, "op");
                    Span client_span(t, "serve.client");
                    if (client.ok()) {
                        StatusOr<serve::Response> resp = client->call(
                            makeRequest(keys[reply.key],
                                        std::to_string(op_id)));
                        reply.transport_ok = resp.ok();
                        if (resp.ok())
                            reply.resp = std::move(*resp);
                    }
                }
                reply.client_ms = msSince(t0);
                per_conn[c].push_back(std::move(reply));
            }
        });
    }
    ready.arrive_and_wait();
    const auto start = Clock::now();
    for (std::thread &th : threads)
        th.join();
    Phase phase;
    phase.wall_s = msSince(start) / 1e3;
    for (std::vector<Reply> &replies : per_conn)
        phase.replies.insert(phase.replies.end(), replies.begin(),
                             replies.end());
    return phase;
}

double
delta(const obs::MetricsRegistry &before, const obs::MetricsRegistry &after,
      const std::string &key)
{
    return (after.has(key) ? after.get(key) : 0.0) -
           (before.has(key) ? before.get(key) : 0.0);
}

} // anonymous namespace

Result
runServeMix(const Options &opt)
{
    Result result;
    Keys keys(opt.seed);
    std::vector<double> setup_s;
    Daemon daemon;
    for (int rep = 0; rep < (opt.trace ? 1 : kServeSetups); ++rep) {
        daemon.stop();
        const auto t0 = rep == 0 ? opt.started : Clock::now();
        Keys setup_keys(opt.seed);
        if (!daemon.start(opt) || !warmAndFill(daemon, setup_keys))
            throw std::runtime_error("serve_mix set-up failed");
        setup_s.push_back(msSince(t0) / 1e3);
    }
    const int passes = passesFor(opt.seconds, kServePassSeconds);

    const obs::MetricsRegistry before = scrape(daemon, nullptr, result);
    const auto origin = Clock::now();
    std::vector<Tracer> conn_tracers(kConnections, Tracer(origin));
    Tracer check_tracer(origin);
    Phase timed, traced;
    if (!opt.trace) {
        timed = runPhase(daemon, keys, opt.seed, 0, passes, nullptr);
    } else {
        // Untraced (reference) and traced passes alternate, the order
        // flipping each pass, so host drift falls on both alike.
        const char *const kDeltas[] = {
            "serve.sim_runs",      "serve.shed_total",
            "serve.responses_error", "cache.prepared.hits",
            "cache.prepared.misses", "cache.prepared.evictions"};
        std::map<std::string, double> deltas;
        std::vector<double> rate_ratio;
        for (int p = 0; p < passes; ++p) {
            Phase ref, tr;
            const auto run_traced = [&] {
                const obs::MetricsRegistry t_before =
                    scrape(daemon, &check_tracer, result);
                tr = runPhase(daemon, keys, opt.seed, passes + p, 1,
                              &conn_tracers);
                const obs::MetricsRegistry t_after =
                    scrape(daemon, &check_tracer, result);
                for (const char *key : kDeltas)
                    deltas[key] += delta(t_before, t_after, key);
            };
            if (p % 2 == 1)
                run_traced();
            ref = runPhase(daemon, keys, opt.seed, p, 1, nullptr);
            if (p % 2 == 0)
                run_traced();
            rate_ratio.push_back((tr.replies.size() / tr.wall_s) /
                                 (ref.replies.size() / ref.wall_s));
            for (auto [all, phase] : {std::pair{&timed, &ref},
                                      std::pair{&traced, &tr}}) {
                all->replies.insert(all->replies.end(),
                                    phase->replies.begin(),
                                    phase->replies.end());
                all->wall_s += phase->wall_s;
            }
        }
        double server_ms = 0.0, outside_ms = 0.0, coalesced = 0.0;
        for (const Reply &r : traced.replies) {
            server_ms += r.resp.elapsed_us / 1e3;
            outside_ms += r.client_ms - r.resp.elapsed_us / 1e3;
            coalesced += r.resp.coalesced ? 1.0 : 0.0;
        }
        const double n = static_cast<double>(traced.replies.size());
        result.add("serve.server_ms", server_ms / n, "ms");
        result.add("serve.outside_ms", outside_ms / n, "ms");
        result.add("serve.coalesced_ratio", coalesced / n, "ratio");
        for (const char *key : kDeltas)
            result.add(key, deltas[key], "count");
        result.add("trace.overhead_pct", 100.0 * (1.0 - median(rate_ratio)),
                   "%");
    }
    const obs::MetricsRegistry after = scrape(daemon, nullptr, result);
    const double peak_rss = peakRssMb(daemon.pid());
    daemon.stop();

    // Failure accounting: error responses (sheds, deadlines, bad
    // requests) and transport failures count as failed ops.
    for (const Phase *phase : {&timed, &traced})
        for (const Reply &r : phase->replies)
            if (!r.transport_ok || !r.resp.status.ok())
                result.fail("request " + r.resp.id + " failed: " +
                            r.resp.status.toString());
    if (delta(before, after, "serve.shed_total") != 0)
        result.fail("the daemon shed requests");

    // Output check: every reply's cycles equal a local Session run
    // of the same key (stage by stage under spans when traced).
    // Bounded like the daemon's caches: each key is computed once,
    // so eviction only caps the driver's memory.
    api::Session local;
    const serve::ServerConfig daemon_defaults;
    local.setCacheCapacities(daemon_defaults.raw_cache_capacity,
                             daemon_defaults.reordered_cache_capacity,
                             daemon_defaults.prepared_cache_capacity);
    std::vector<long long> expected(keys.size(), -1);
    for (const Phase *phase : {&timed, &traced}) {
        for (const Reply &r : phase->replies) {
            if (!r.transport_ok || !r.resp.status.ok())
                continue;
            if (expected[r.key] < 0) {
                const api::RunRequest req = localRequest(keys[r.key]);
                if (opt.trace) {
                    Span run_span(&check_tracer, "api.run");
                    const CooMatrix raw =
                        generateStage(&check_tracer, req.dataset, req.seed);
                    const CooMatrix reordered =
                        reorderStage(&check_tracer, raw, req.reorder);
                    const api::PreparedCase pc =
                        prepareStage(&check_tracer, req.app, reordered);
                    expected[r.key] = static_cast<long long>(
                        engineStage(&check_tracer, req, pc).stats.cycles);
                } else {
                    StatusOr<api::RunReport> report = local.run(req);
                    expected[r.key] =
                        report.ok()
                            ? static_cast<long long>(report->stats.cycles)
                            : 0;
                }
            }
            if (r.resp.cycles != expected[r.key])
                result.fail("request " + r.resp.id + " returned " +
                            std::to_string(r.resp.cycles) +
                            " cycles, local Session gave " +
                            std::to_string(expected[r.key]));
        }
    }

    if (opt.trace) {
        std::vector<const Tracer *> op_tracers;
        for (const Tracer &t : conn_tracers)
            op_tracers.push_back(&t);
        std::vector<const Tracer *> all = op_tracers;
        all.push_back(&check_tracer);
        addSpanMetrics(result, op_tracers, all);
        writeTrace(opt, all);
    }

    std::vector<double> op_ms;
    double cycles = 0.0;
    for (const Reply &r : timed.replies) {
        op_ms.push_back(r.client_ms);
        cycles += static_cast<double>(r.resp.cycles);
    }
    result.attempted =
        static_cast<long long>(timed.replies.size() + traced.replies.size());
    result.add("setup_s", median(setup_s), "s");
    addLatencyMetrics(result, op_ms, timed.wall_s, [&](std::size_t k) {
        const Key &key = keys[timed.replies[k].key];
        return (timed.replies[k].key < keys.hot() ? "hit " : "miss ") +
               key.app + " on " + key.dataset;
    });
    result.add("peak_rss_mb", peak_rss, "MB");
    result.add("sim_cycles", cycles, "cycles");
    return result;
}

} // namespace perfbench
