#include "trace.hh"

#include <cstdio>

namespace perfbench {

int
Tracer::open(std::string name)
{
    SpanRecord rec;
    rec.name = std::move(name);
    rec.parent = stack_.empty() ? -1 : stack_.back();
    rec.op = op_;
    rec.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now() - origin_)
                       .count();
    spans_.push_back(std::move(rec));
    const int id = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(id);
    return id;
}

void
Tracer::close(int id)
{
    spans_[id].end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            Clock::now() - origin_)
                            .count();
    stack_.pop_back();
}

std::map<std::string, SpanStat>
Tracer::stats() const
{
    // Spans of one thread nest strictly, so the children of a span
    // never overlap and their durations sum to the covered part.
    std::vector<double> child_ms(spans_.size(), 0.0);
    for (const SpanRecord &s : spans_)
        if (s.parent >= 0)
            child_ms[s.parent] += (s.end_ns - s.start_ns) / 1e6;
    std::map<std::string, SpanStat> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &s = spans_[i];
        const double dur = (s.end_ns - s.start_ns) / 1e6;
        SpanStat &stat = out[s.name];
        ++stat.calls;
        stat.incl_ms += dur;
        stat.self_ms += dur - child_ms[i];
    }
    return out;
}

std::map<std::string, SpanStat>
mergeStats(const std::vector<const Tracer *> &tracers)
{
    std::map<std::string, SpanStat> out;
    for (const Tracer *t : tracers) {
        for (const auto &[name, stat] : t->stats()) {
            SpanStat &acc = out[name];
            acc.calls += stat.calls;
            acc.incl_ms += stat.incl_ms;
            acc.self_ms += stat.self_ms;
        }
    }
    return out;
}

std::map<std::string, double>
mergeCounts(const std::vector<const Tracer *> &tracers)
{
    std::map<std::string, double> out;
    for (const Tracer *t : tracers)
        for (const auto &[key, value] : t->counts())
            out[key] += value;
    return out;
}

std::string
layerOf(const std::string &span_name)
{
    return span_name.substr(0, span_name.find('.'));
}

bool
writeChromeTrace(const std::string &path,
                 const std::vector<const Tracer *> &tracers)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"traceEvents\":[");
    bool first = true;
    for (std::size_t tid = 0; tid < tracers.size(); ++tid) {
        for (const SpanRecord &s : tracers[tid]->spans()) {
            std::fprintf(f,
                         "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                         "\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f,"
                         "\"args\":{\"op\":%lld,\"parent\":%d}}",
                         first ? "" : ",", s.name.c_str(), tid,
                         s.start_ns / 1e3, (s.end_ns - s.start_ns) / 1e3,
                         s.op, s.parent);
            first = false;
        }
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
