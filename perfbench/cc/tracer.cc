#include "tracer.hh"

#include <atomic>
#include <cstdio>

#include "common.hh"
#include "obs/json.hh"

namespace perfbench {

namespace {

/** Innermost open span on this thread (one Tracer per process). */
thread_local std::int64_t t_current = -1;

int
threadId()
{
    static std::atomic<int> next{1};
    thread_local const int id = next.fetch_add(1);
    return id;
}

double
durationMs(const Tracer::Span &span)
{
    return static_cast<double>(span.end_ns - span.begin_ns) / 1e6;
}

const char *
kindName(Tracer::Kind kind)
{
    switch (kind) {
      case Tracer::Kind::Phase: return "phase";
      case Tracer::Kind::Task:  return "task";
      case Tracer::Kind::Layer: return "layer";
    }
    return "?";
}

/** Self time of every span: duration minus its children's. */
std::vector<double>
selfTimesMs(const std::vector<Tracer::Span> &spans)
{
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[i] = durationMs(spans[i]);
    for (const Tracer::Span &span : spans)
        if (span.parent >= 0)
            self[static_cast<std::size_t>(span.parent)] -=
                durationMs(span);
    return self;
}

} // namespace

Tracer::Scope::Scope(Tracer *tracer, std::string name, Kind kind,
                     std::string id)
    : tracer_(tracer)
{
    if (!tracer_)
        return;
    saved_parent_ = t_current;
    index_ = tracer_->open(std::move(name), kind, std::move(id),
                           t_current);
    t_current = index_;
}

Tracer::Scope::~Scope()
{
    if (!tracer_)
        return;
    tracer_->close(index_);
    t_current = saved_parent_;
}

std::int64_t
Tracer::open(std::string name, Kind kind, std::string id,
             std::int64_t parent)
{
    Span span;
    span.name = std::move(name);
    span.kind = kind;
    span.id = std::move(id);
    span.tid = threadId();
    span.parent = parent;
    span.begin_ns = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
    return static_cast<std::int64_t>(spans_.size()) - 1;
}

void
Tracer::close(std::int64_t index)
{
    const std::int64_t end = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(index)].end_ns = end;
}

std::vector<Tracer::Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::map<std::string, double>
Tracer::layerSelfMs() const
{
    const std::vector<Span> all = spans();
    const std::vector<double> self = selfTimesMs(all);
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < all.size(); ++i)
        if (all[i].kind == Kind::Layer)
            out[all[i].name] += self[i];
    return out;
}

double
Tracer::taskSelfMs() const
{
    const std::vector<Span> all = spans();
    const std::vector<double> self = selfTimesMs(all);
    double total = 0.0;
    for (std::size_t i = 0; i < all.size(); ++i)
        if (all[i].kind == Kind::Task)
            total += self[i];
    return total;
}

double
Tracer::busyMs() const
{
    double total = 0.0;
    for (const Span &span : spans())
        if (span.kind == Kind::Task)
            total += durationMs(span);
    return total;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    const std::vector<Span> all = spans();
    std::int64_t origin = 0;
    for (const Span &span : all)
        if (origin == 0 || span.begin_ns < origin)
            origin = span.begin_ns;
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        std::fprintf(
            f,
            "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
            "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
            "\"parent\":%lld,\"id\":\"%s\"}}\n",
            i == 0 ? "" : ",", sparsepipe::obs::jsonEscape(s.name).c_str(),
            kindName(s.kind), s.tid,
            static_cast<double>(s.begin_ns - origin) / 1e3,
            static_cast<double>(s.end_ns - s.begin_ns) / 1e3, i,
            static_cast<long long>(s.parent),
            sparsepipe::obs::jsonEscape(s.id).c_str());
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
