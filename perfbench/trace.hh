/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * A span is one call into a layer's public function: name, start,
 * end, parent span and op id.  Spans stay in memory until the run
 * ends; then they are aggregated (inclusive and self time per name,
 * self time per layer) and written out as a Chrome trace.  The layer
 * of a span is its name up to the first '.', so "prep.permute"
 * belongs to `prep`.  The root span of every timed op is named "op";
 * its self time is the op wall time no layer span covers.
 *
 * Counts (matrix nonzeros, bound bytes, simulated cycles) are
 * recorded at the same boundaries, so per-cycle and per-byte ratios
 * are measured where the work happens.
 *
 * A Tracer is single-threaded: each thread that records spans owns
 * one.  A null Tracer* turns every Span into a no-op, which is how
 * the untraced run uses the same code paths.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Milliseconds elapsed since `start`. */
inline double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     start)
        .count();
}

struct SpanRecord
{
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    /** Index of the enclosing span in the same Tracer, or -1. */
    int parent = -1;
    long long op = -1;
};

/** Aggregate of every span with one name. */
struct SpanStat
{
    long long calls = 0;
    double incl_ms = 0.0;
    double self_ms = 0.0;
};

class Tracer
{
  public:
    explicit Tracer(Clock::time_point origin) : origin_(origin) {}

    /** Op id stamped on spans opened from now on. */
    void setOp(long long op) { op_ = op; }

    int open(std::string name);
    void close(int id);

    /** Add to a named count recorded at a span boundary. */
    void count(const std::string &key, double value)
    {
        counts_[key] += value;
    }

    const std::vector<SpanRecord> &spans() const { return spans_; }
    const std::map<std::string, double> &counts() const
    {
        return counts_;
    }

    /** Per-name totals; self = duration minus child coverage. */
    std::map<std::string, SpanStat> stats() const;

  private:
    Clock::time_point origin_;
    long long op_ = -1;
    std::vector<SpanRecord> spans_;
    std::vector<int> stack_;
    std::map<std::string, double> counts_;
};

/** RAII span; a no-op when the tracer is null. */
class Span
{
  public:
    Span(Tracer *tracer, std::string name)
        : tracer_(tracer),
          id_(tracer ? tracer->open(std::move(name)) : -1)
    {
    }
    ~Span()
    {
        if (tracer_)
            tracer_->close(id_);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer *tracer_;
    int id_;
};

/** Sum per-name stats over several tracers (one per thread). */
std::map<std::string, SpanStat>
mergeStats(const std::vector<const Tracer *> &tracers);

/** Sum the counts of several tracers. */
std::map<std::string, double>
mergeCounts(const std::vector<const Tracer *> &tracers);

/** "prep.permute" -> "prep". */
std::string layerOf(const std::string &span_name);

/**
 * Write every span of every tracer as Chrome trace_event JSON
 * (tid = tracer index, args carry op id and parent).
 * @return false when the file cannot be written.
 */
bool writeChromeTrace(const std::string &path,
                      const std::vector<const Tracer *> &tracers);

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
