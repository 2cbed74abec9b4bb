/**
 * @file
 * The Sparsepipe simulation server: concurrent run requests over a
 * newline-delimited JSON protocol, one shared api::Session, and a
 * metrics scrape endpoint.
 *
 * Request path (one connection thread per client, simulations on
 * the runner's ThreadPool):
 *
 *   read line (idle/read timeouts + size cap) -> parse ->
 *   [drain? reject] [deadline already expired? reject] -> coalesce ->
 *     leader: admission (queue depth + memory budget, shed with
 *             Retry-After) -> ThreadPool -> api::Session::run
 *     follower: join the flight
 *   -> every waiter blocks with its OWN deadline; a waiter that
 *      times out detaches with DeadlineExceeded, and only when the
 *      last waiter detaches is the flight's CancelToken fired, so
 *      the simulation stops burning a pool slot within its
 *      cancellation poll budget
 *   -> encode response line
 *
 * The flight's CancelToken chains to the abort root and is polled by
 * the simulator every SparsepipeConfig::cancel_poll_cycles simulated
 * cycles, so both an abort and an abandoned flight unwind within a
 * bounded cycle budget (DESIGN.md section 9 has the state machine).
 *
 * The shared Session means every tenant hits the same
 * prepared-operand caches (LRU-bounded via setCacheCapacities), and
 * the Coalescer means identical in-flight requests run exactly one
 * simulation between them.
 *
 * Shutdown contract (the CI smoke job pins it):
 *
 *   requestDrain()  stop accepting, reject new requests with
 *                   Cancelled, let admitted runs finish, then
 *                   join() returns — SIGINT maps here, daemon
 *                   exits 0.
 *   requestAbort()  additionally fires the parent CancelToken
 *                   chained into every in-flight simulation, which
 *                   unwinds at the next column step — a second
 *                   SIGINT maps here.
 *
 * A connection whose first bytes are "GET " is served as an
 * HTTP/1.0 scrape of the metrics-v1 registry (serve.* counters,
 * cache.* Session cache counters) and closed, so
 * `curl http://127.0.0.1:PORT/metrics` works against a live daemon.
 */

#ifndef SPARSEPIPE_SERVE_SERVER_HH
#define SPARSEPIPE_SERVE_SERVER_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/session.hh"
#include "obs/metrics.hh"
#include "runner/thread_pool.hh"
#include "serve/admission.hh"
#include "serve/coalesce.hh"
#include "serve/protocol.hh"
#include "serve/socket.hh"
#include "util/parse.hh"
#include "util/status.hh"

namespace sparsepipe::serve {

/** Everything that configures one Server. */
struct ServerConfig
{
    /** Bind address; port 0 asks for an ephemeral port. */
    ListenAddress listen{"127.0.0.1", 0};
    /** Simulation worker threads; <= 0 picks defaultJobs(). */
    int jobs = 0;
    AdmissionController::Config admission;
    /** Deadline for requests that do not set one (0 = none). */
    long long default_deadline_ms = 0;
    /**
     * Connection hardening (all 0 = off, the pre-hardening
     * behavior).  idle_timeout_ms bounds the wait for the next
     * request on a keep-alive connection; line_timeout_ms bounds
     * first-byte-to-newline (slow-loris defense); max_request_bytes
     * caps one request line; max_requests_per_conn closes a
     * connection after that many served requests (keep-alive limit,
     * so one client cannot pin a connection thread forever).
     */
    int idle_timeout_ms = 0;
    int line_timeout_ms = 0;
    std::size_t max_request_bytes = 1 << 20;
    long long max_requests_per_conn = 0;
    /** LRU bounds for the Session cache layers (0 = unbounded). */
    std::size_t raw_cache_capacity = 16;
    std::size_t reordered_cache_capacity = 16;
    std::size_t prepared_cache_capacity = 32;
    /**
     * Optional process-wide abort root (e.g. the CLI's SIGINT
     * token): cancelling it aborts every in-flight simulation.
     */
    const CancelToken *parent_cancel = nullptr;
};

/** Wire-visible counters beyond admission / coalescing / caches. */
struct ServeCounters
{
    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::uint64_t> responses_ok{0};
    std::atomic<std::uint64_t> responses_error{0};
    std::atomic<std::uint64_t> rejected_draining{0};
    std::atomic<std::uint64_t> sim_runs{0};
    std::atomic<std::uint64_t> connections{0};
    std::atomic<std::uint64_t> active_connections{0};
    std::atomic<std::uint64_t> scrapes{0};

    /** Requests whose deadline had expired before admission. */
    std::atomic<std::uint64_t> timeout_pre_expired{0};
    /** Connections closed by the idle timeout. */
    std::atomic<std::uint64_t> timeout_idle{0};
    /** Connections closed by the slow-loris read timeout. */
    std::atomic<std::uint64_t> timeout_read{0};
    /** Waiters whose deadline expired mid-flight (detached). */
    std::atomic<std::uint64_t> timeout_waiter{0};
    /** Simulations that unwound with Cancelled. */
    std::atomic<std::uint64_t> sim_cancelled{0};
    /** Simulations that unwound with DeadlineExceeded. */
    std::atomic<std::uint64_t> sim_deadline{0};
    /** Connections closed for an oversized request line. */
    std::atomic<std::uint64_t> oversized_line{0};
    /** Connections closed by the keep-alive request limit. */
    std::atomic<std::uint64_t> keepalive_closed{0};
};

class Server
{
  public:
    explicit Server(ServerConfig config);

    /** Drains (abort-free) and joins if still running. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind, listen, and spawn the acceptor. */
    Status start();

    /** @return the bound port (valid after start()). */
    int port() const { return port_; }

    /** Begin draining: no new connections, no new requests. */
    void requestDrain();

    /** Drain *and* cancel in-flight simulations. */
    void requestAbort();

    /** True once requestDrain()/requestAbort() was called. */
    bool draining() const { return drain_.cancelled(); }

    /**
     * Block until the acceptor and every connection thread have
     * exited and all admitted runs have finished.  Call after
     * requestDrain(); with neither drain nor abort requested this
     * blocks until a client-side shutdown (never, usually).
     */
    void join();

    /** Fill `reg` with the serve.* / cache.* counter snapshot. */
    void fillMetrics(obs::MetricsRegistry &reg);

    /** The scrape document (metrics-v1 JSON). */
    std::string metricsJson();

    /** The shared tenant session (tests inspect cache stats). */
    api::Session &session() { return session_; }

  private:
    void acceptLoop();
    void serveConnection(Socket sock);
    void serveScrape(Socket &sock, LineReader &reader,
                     const std::string &request_line);
    Response handleRequest(const Request &req);
    StatusOr<api::RunReport> executeFlight(const Request &req,
                                           const CancelToken &token);

    const ServerConfig config_;
    api::Session session_;
    runner::ThreadPool pool_;
    AdmissionController admission_;
    Coalescer<StatusOr<api::RunReport>> coalescer_;
    ServeCounters counters_;

    /** Drain: stop accepting / admitting new work. */
    CancelToken drain_;
    /** Abort: parent of every per-request token. */
    CancelToken abort_;

    Socket listener_;
    int port_ = -1;
    std::thread acceptor_;
    std::mutex threads_mutex_;
    std::vector<std::thread> connection_threads_;
    std::atomic<bool> started_{false};
};

/**
 * Crude resident-bytes estimate for admitting a run on a built-in
 * dataset: the prepared operand (CSR + CSC twin), which a run binds
 * without copying.  A budget, not an accountant.
 */
std::uint64_t estimateResidentBytes(const std::string &dataset);

} // namespace sparsepipe::serve

#endif // SPARSEPIPE_SERVE_SERVER_HH
