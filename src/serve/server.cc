#include "serve/server.hh"

#include <chrono>
#include <sstream>
#include <utility>

#include "apps/apps.hh"
#include "sparse/datasets.hh"
#include "util/logging.hh"

namespace sparsepipe::serve {

namespace {

using Clock = std::chrono::steady_clock;

double
microsSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::micro>(Clock::now() -
                                                     start)
        .count();
}

void
setCacheMetrics(obs::MetricsRegistry &reg, const std::string &prefix,
                const runner::CacheStats &stats)
{
    reg.set(prefix + ".hits", static_cast<double>(stats.hits));
    reg.set(prefix + ".misses", static_cast<double>(stats.misses));
    reg.set(prefix + ".evictions",
            static_cast<double>(stats.evictions));
}

} // anonymous namespace

std::uint64_t
estimateResidentBytes(const std::string &dataset)
{
    const DatasetSpec *spec = findDatasetSpec(dataset);
    if (!spec)
        return 0;
    // Prepared CSR + CSC twin: 16 B/nz each (8 B index, 8 B value)
    // plus an 8 B/row pointer array each.  A run binds that storage
    // shared (no per-run operand copy), so nothing more is charged.
    return static_cast<std::uint64_t>(spec->nnz) * 32 +
           static_cast<std::uint64_t>(spec->rows) * 16;
}

Server::Server(ServerConfig config)
    : config_(std::move(config)), pool_(config_.jobs),
      admission_(config_.admission), abort_(config_.parent_cancel)
{
    session_.setCacheCapacities(config_.raw_cache_capacity,
                                config_.reordered_cache_capacity,
                                config_.prepared_cache_capacity);
}

Server::~Server()
{
    if (started_.load()) {
        requestDrain();
        join();
    }
}

Status
Server::start()
{
    StatusOr<Socket> listener = listenTcp(config_.listen);
    if (!listener.ok())
        return listener.status();
    listener_ = std::move(listener).value();
    StatusOr<int> port = boundPort(listener_);
    if (!port.ok())
        return port.status();
    port_ = *port;
    started_.store(true);
    acceptor_ = std::thread([this] { acceptLoop(); });
    return okStatus();
}

void
Server::requestDrain()
{
    drain_.cancel();
}

void
Server::requestAbort()
{
    drain_.cancel();
    abort_.cancel();
}

void
Server::join()
{
    if (acceptor_.joinable())
        acceptor_.join();
    // The acceptor has exited, so no new connection threads can
    // appear; joining the snapshot joins them all.
    std::vector<std::thread> threads;
    {
        std::lock_guard<std::mutex> lock(threads_mutex_);
        threads.swap(connection_threads_);
    }
    for (std::thread &t : threads)
        t.join();
    pool_.wait();
}

void
Server::acceptLoop()
{
    for (;;) {
        StatusOr<Socket> conn = acceptConn(listener_, drain_);
        if (!conn.ok()) {
            if (conn.status().code() != StatusCode::Cancelled)
                sp_warn("serve: accept failed: %s",
                        conn.status().toString().c_str());
            return;
        }
        counters_.connections.fetch_add(1);
        std::lock_guard<std::mutex> lock(threads_mutex_);
        connection_threads_.emplace_back(
            [this, sock = std::move(conn).value()]() mutable {
                serveConnection(std::move(sock));
            });
    }
}

void
Server::serveConnection(Socket sock)
{
    counters_.active_connections.fetch_add(1);
    LineReader reader(sock);
    LineReader::Limits limits;
    limits.idle_timeout_ms = config_.idle_timeout_ms;
    limits.line_timeout_ms = config_.line_timeout_ms;
    limits.max_line_bytes = config_.max_request_bytes;
    reader.setLimits(limits);
    bool first_line = true;
    long long served = 0;
    for (;;) {
        StatusOr<std::string> line = reader.readLine(&drain_);
        if (!line.ok()) {
            const Status &status = line.status();
            if (status.code() == StatusCode::DeadlineExceeded) {
                // Idle or slow-loris timeout: tell the peer why
                // (best effort — it may not be reading), then drop.
                const bool idle =
                    status.message().rfind("idle", 0) == 0;
                (idle ? counters_.timeout_idle
                      : counters_.timeout_read)
                    .fetch_add(1);
                Response resp;
                resp.status = status;
                (void)writeAll(sock, encodeResponse(resp) + "\n");
            } else if (status.code() == StatusCode::InvalidInput) {
                // Oversized line: framing is lost, so answer once
                // and close rather than resynchronize.
                counters_.oversized_line.fetch_add(1);
                Response resp;
                resp.status = status;
                (void)writeAll(sock, encodeResponse(resp) + "\n");
            }
            break; // client gone, draining, timed out, or oversized
        }
        if (first_line && line->rfind("GET ", 0) == 0) {
            serveScrape(sock, reader, *line);
            break;
        }
        first_line = false;
        if (line->empty())
            continue;

        Response resp;
        StatusOr<Request> req = parseRequest(*line);
        if (!req.ok()) {
            counters_.requests.fetch_add(1);
            counters_.responses_error.fetch_add(1);
            resp.status = req.status();
        } else {
            resp = handleRequest(*req);
        }
        if (!writeAll(sock, encodeResponse(resp) + "\n").ok())
            break;
        ++served;
        if (config_.max_requests_per_conn > 0 &&
            served >= config_.max_requests_per_conn) {
            counters_.keepalive_closed.fetch_add(1);
            break;
        }
    }
    counters_.active_connections.fetch_sub(1);
}

void
Server::serveScrape(Socket &sock, LineReader &reader,
                    const std::string &request_line)
{
    counters_.scrapes.fetch_add(1);
    // Drain the request headers so the peer's send completes.
    for (;;) {
        StatusOr<std::string> header = reader.readLine(&drain_);
        if (!header.ok() || header->empty())
            break;
    }
    std::istringstream parts(request_line);
    std::string method, path;
    parts >> method >> path;

    std::string body;
    std::string status_line;
    if (path == "/metrics") {
        body = metricsJson();
        status_line = "HTTP/1.0 200 OK";
    } else {
        body = "not found: " + path + "\n";
        status_line = "HTTP/1.0 404 Not Found";
    }
    std::ostringstream out;
    out << status_line << "\r\n"
        << "Content-Type: application/json\r\n"
        << "Content-Length: " << body.size() << "\r\n"
        << "Connection: close\r\n\r\n"
        << body;
    (void)writeAll(sock, out.str());
}

Response
Server::handleRequest(const Request &req)
{
    counters_.requests.fetch_add(1);
    Response resp;
    resp.id = req.id;

    if (req.op == Request::Op::Ping) {
        counters_.responses_ok.fetch_add(1);
        return resp;
    }
    if (drain_.cancelled()) {
        counters_.rejected_draining.fetch_add(1);
        counters_.responses_error.fetch_add(1);
        resp.status =
            cancelledError("server draining, not accepting work");
        return resp;
    }
    // Reject typos before they occupy a coalescing flight.
    if (!findAppInfo(req.app)) {
        counters_.responses_error.fetch_add(1);
        resp.status =
            invalidInput("unknown application '%s'", req.app.c_str());
        return resp;
    }
    if (!findDatasetSpec(req.dataset)) {
        counters_.responses_error.fetch_add(1);
        resp.status = invalidInput("unknown dataset '%s'",
                                   req.dataset.c_str());
        return resp;
    }

    // Resolve the request's time budget up front.  A non-positive
    // explicit deadline is already expired: answer DeadlineExceeded
    // without touching the coalescer, admission, or the pool — the
    // "never starts a sim" guarantee the tests pin.
    const long long deadline_ms = req.deadline_ms != 0
                                      ? req.deadline_ms
                                      : config_.default_deadline_ms;
    if (req.deadline_ms < 0) {
        counters_.timeout_pre_expired.fetch_add(1);
        counters_.responses_error.fetch_add(1);
        resp.status = deadlineExceeded(
            "deadline already expired (deadline_ms = %lld)",
            req.deadline_ms);
        return resp;
    }

    const Clock::time_point start = Clock::now();
    Coalescer<StatusOr<api::RunReport>>::Deadline deadline;
    if (deadline_ms > 0)
        deadline = start + std::chrono::milliseconds(deadline_ms);

    // Join (or create) the flight for this request's coalesce key.
    // The computation runs on the worker pool, NOT on this
    // connection thread: every waiter — leader included — only
    // waits, so a waiter whose deadline expires detaches without
    // killing the run the other waiters are riding.  The flight's
    // token (chained to the abort root) is cancelled only when the
    // last waiter leaves, and the simulator notices within its
    // cancellation poll budget.
    const std::string key = coalesceKey(req);
    Coalescer<StatusOr<api::RunReport>>::Join join =
        coalescer_.begin(key, &abort_);
    resp.coalesced = !join.leader;
    if (join.leader) {
        // Admission on the connection thread, so shedding still
        // reflects concurrent *requests*, not pool slots.  The
        // ticket rides in the task closure and is released when the
        // run finishes.
        StatusOr<Ticket> ticket =
            admission_.tryAdmit(estimateResidentBytes(req.dataset));
        if (!ticket.ok()) {
            coalescer_.complete(
                key, join.flight,
                StatusOr<api::RunReport>(ticket.status()));
        } else {
            auto held = std::make_shared<Ticket>(
                std::move(ticket).value());
            auto flight = join.flight;
            const Request req_copy = req;
            pool_.submit([this, key, flight, req_copy, held] {
                coalescer_.complete(
                    key, flight,
                    executeFlight(req_copy, flight->token()));
            });
        }
    }

    std::shared_ptr<const StatusOr<api::RunReport>> result =
        coalescer_.wait(join.flight, deadline);
    resp.elapsed_us = microsSince(start);
    if (!result) {
        // Detached: this waiter's deadline expired mid-flight.
        counters_.timeout_waiter.fetch_add(1);
        counters_.responses_error.fetch_add(1);
        resp.status = deadlineExceeded(
            "deadline of %lld ms expired while the run was in "
            "flight", deadline_ms);
        return resp;
    }

    if (result->ok()) {
        counters_.responses_ok.fetch_add(1);
        resp.cycles =
            static_cast<long long>((*result)->stats.cycles);
        resp.nnz = static_cast<long long>((*result)->nnz);
    } else {
        counters_.responses_error.fetch_add(1);
        resp.status = result->status();
        switch (resp.status.code()) {
          case StatusCode::ResourceExhausted:
            resp.retry_after_ms = admission_.retryAfterMs();
            break;
          case StatusCode::Cancelled:
            counters_.sim_cancelled.fetch_add(1);
            break;
          case StatusCode::DeadlineExceeded:
            counters_.sim_deadline.fetch_add(1);
            break;
          default:
            break;
        }
    }
    return resp;
}

StatusOr<api::RunReport>
Server::executeFlight(const Request &req, const CancelToken &token)
{
    api::RunRequest rr;
    rr.app = req.app;
    rr.dataset = req.dataset;
    rr.iters = static_cast<Idx>(req.iters);
    rr.reorder = req.reorder;
    rr.seed = req.seed;
    rr.blocked = req.blocked;
    // parseRequest validated the name against the registry, so the
    // resolution cannot fail here.
    rr.backend = backend::backendFromName(req.backend).value();
    rr.sp = req.iso_cpu ? SparsepipeConfig::isoCpu()
                        : SparsepipeConfig::isoGpu();
    if (req.buffer_kb > 0)
        rr.sp.buffer_bytes = static_cast<Idx>(req.buffer_kb) * 1024;

    // The flight's token: cancelled by requestAbort() (its parent)
    // or by the last waiter detaching.  Deliberately NOT armed with
    // any single request's deadline — waiters each enforce their own
    // in Coalescer::wait(), so a follower with a longer budget is
    // not killed by the leader's shorter one.
    rr.cancel = &token;

    counters_.sim_runs.fetch_add(1);
    try {
        return session_.run(rr);
    } catch (...) {
        return statusFromCurrentException();
    }
}

void
Server::fillMetrics(obs::MetricsRegistry &reg)
{
    const AdmissionStats adm = admission_.stats();
    const CoalesceStats co = coalescer_.stats();

    reg.set("serve.requests_total",
            static_cast<double>(counters_.requests.load()));
    reg.set("serve.responses_ok",
            static_cast<double>(counters_.responses_ok.load()));
    reg.set("serve.responses_error",
            static_cast<double>(counters_.responses_error.load()));
    reg.set("serve.rejected_draining",
            static_cast<double>(counters_.rejected_draining.load()));
    reg.set("serve.sim_runs",
            static_cast<double>(counters_.sim_runs.load()));
    reg.set("serve.connections_total",
            static_cast<double>(counters_.connections.load()));
    reg.set("serve.active_connections",
            static_cast<double>(
                counters_.active_connections.load()));
    reg.set("serve.scrapes_total",
            static_cast<double>(counters_.scrapes.load()));
    reg.set("serve.draining", drain_.cancelled() ? 1.0 : 0.0);

    reg.set("serve.admitted_total",
            static_cast<double>(adm.admitted));
    reg.set("serve.shed_total",
            static_cast<double>(adm.shed_queue + adm.shed_memory));
    reg.set("serve.shed_queue", static_cast<double>(adm.shed_queue));
    reg.set("serve.shed_memory",
            static_cast<double>(adm.shed_memory));
    reg.set("serve.in_flight", static_cast<double>(adm.in_flight));
    reg.set("serve.in_flight_bytes",
            static_cast<double>(adm.in_flight_bytes));

    reg.set("serve.coalesced_total",
            static_cast<double>(co.followers));
    reg.set("serve.coalesce_leaders",
            static_cast<double>(co.leaders));

    reg.set("serve.timeout.pre_expired",
            static_cast<double>(
                counters_.timeout_pre_expired.load()));
    reg.set("serve.timeout.idle",
            static_cast<double>(counters_.timeout_idle.load()));
    reg.set("serve.timeout.read",
            static_cast<double>(counters_.timeout_read.load()));
    reg.set("serve.timeout.waiter_deadline",
            static_cast<double>(counters_.timeout_waiter.load()));

    reg.set("serve.cancel.detached",
            static_cast<double>(co.detached));
    reg.set("serve.cancel.flights_cancelled",
            static_cast<double>(co.flights_cancelled));
    reg.set("serve.cancel.sim_cancelled",
            static_cast<double>(counters_.sim_cancelled.load()));
    reg.set("serve.cancel.sim_deadline",
            static_cast<double>(counters_.sim_deadline.load()));

    reg.set("serve.conn.oversized_line",
            static_cast<double>(counters_.oversized_line.load()));
    reg.set("serve.conn.keepalive_closed",
            static_cast<double>(counters_.keepalive_closed.load()));

    const SocketFaultCounters chaos = socketFaultCounters();
    reg.set("serve.chaos.short_reads",
            static_cast<double>(chaos.short_reads));
    reg.set("serve.chaos.short_writes",
            static_cast<double>(chaos.short_writes));
    reg.set("serve.chaos.eintr",
            static_cast<double>(chaos.eintr));
    reg.set("serve.chaos.recv_resets",
            static_cast<double>(chaos.recv_resets));
    reg.set("serve.chaos.send_resets",
            static_cast<double>(chaos.send_resets));
    reg.set("serve.chaos.injected_total",
            static_cast<double>(chaos.total()));

    const api::Session::CacheStatsSnapshot cache =
        session_.cacheStats();
    setCacheMetrics(reg, "cache.raw", cache.raw);
    setCacheMetrics(reg, "cache.reordered", cache.reordered);
    setCacheMetrics(reg, "cache.prepared", cache.prepared);
}

std::string
Server::metricsJson()
{
    obs::MetricsRegistry reg;
    fillMetrics(reg);
    return reg.toJson();
}

} // namespace sparsepipe::serve
