/**
 * @file
 * Host-time spans recorded from the benchmark's own code around the
 * calls it makes into each layer (the simulator itself is not
 * instrumented).
 *
 * Three kinds of span:
 *
 *   phase  a marker on the main thread (set-up, timed phase, one
 *          explore::runSweep call); excluded from the accounting;
 *   task   one unit of work on one thread (a grid case, a replayed
 *          sweep job, a client call, a set-up step); the sum of task
 *          durations is the run's busy time;
 *   layer  a call into one layer inside a task, named
 *          "<module>.<what>" (e.g. "prep.reorder").
 *
 * A span's self time is its duration minus its children's.  Each
 * layer metric is the summed self time of its spans; `other_ms` is
 * the summed self time of the tasks, i.e. busy time no layer span
 * covers.  So layer self times plus other_ms equal busy time.
 *
 * Spans are kept in memory and written at exit as Chrome trace_event
 * JSON, which Perfetto (ui.perfetto.dev) and chrome://tracing open.
 */

#ifndef PERFBENCH_TRACER_HH
#define PERFBENCH_TRACER_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer
{
  public:
    enum class Kind { Phase, Task, Layer };

    struct Span
    {
        std::string name;
        Kind kind = Kind::Layer;
        /** Case, job, or request id ("" for none). */
        std::string id;
        int tid = 0;
        std::int64_t begin_ns = 0;
        std::int64_t end_ns = 0;
        /** Index of the enclosing span on the same thread, or -1. */
        std::int64_t parent = -1;
    };

    /**
     * RAII span.  A null tracer records nothing, so traced and
     * untraced code paths can share one body.
     */
    class Scope
    {
      public:
        Scope(Tracer *tracer, std::string name, Kind kind,
              std::string id = {});
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *tracer_;
        std::int64_t index_ = -1;
        std::int64_t saved_parent_ = -1;
    };

    Tracer() = default;
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Snapshot of every span recorded so far. */
    std::vector<Span> spans() const;

    /** Summed self time per span name, ms (layer spans only). */
    std::map<std::string, double> layerSelfMs() const;

    /** Summed self time of the task spans, ms (`other_ms`). */
    double taskSelfMs() const;

    /** Summed duration of the task spans, ms (busy time). */
    double busyMs() const;

    /** Write the spans as a Chrome trace_event JSON document. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    std::int64_t open(std::string name, Kind kind, std::string id,
                      std::int64_t parent);
    void close(std::int64_t index);

    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_HH
