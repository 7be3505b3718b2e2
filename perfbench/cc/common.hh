/**
 * @file
 * Shared pieces of the benchmark's workload program: clocks and
 * process resource usage, the simulated-stats digest, and the result
 * record one workload process prints for run.py.
 *
 * One process runs one workload once: set-up, then a timed phase of
 * fixed work, then its output checks.  run.py starts several such
 * processes per benchmark run and reports their medians.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hh"

namespace perfbench {

class Tracer;

/** Steady-clock nanoseconds (CLOCK_MONOTONIC, shared with run.py). */
std::int64_t nowNs();

/** Seconds elapsed since a steady-clock nanosecond stamp. */
double secondsSince(std::int64_t start_ns);

struct WorkloadResult;

/**
 * Wall clock and process resource usage over a workload's timed
 * phase: construct at its start, stop() at its end.
 */
class PhaseTimer
{
  public:
    PhaseTimer();

    /**
     * Fill wall_s, cpu_s (process user + sys, all threads), and
     * peak_rss_mb, plus the user/sys/minor-fault split in info.
     */
    void stop(WorkloadResult &result) const;

  private:
    std::int64_t start_ns_ = 0;
    double user_s_ = 0.0;
    double sys_s_ = 0.0;
    long minor_faults_ = 0;
};

/** How a workload process was invoked. */
struct WorkloadOptions
{
    std::string workload;
    std::uint64_t seed = 0;
    /** Worker threads of the timed phase (the workload's default
     *  when 0). */
    int jobs = 0;
    /** Replay the calls layer by layer with spans (run --trace 1). */
    bool traced = false;
    /** Steady-clock stamp taken by the parent just before spawning
     *  this process; set-up time is measured from it. */
    std::int64_t spawn_ns = 0;
    /** Directory for the metrics-v1, trace, and sweep files. */
    std::string out_dir;
};

/** What one workload process measured and checked. */
struct WorkloadResult
{
    double setup_s = 0.0;
    double wall_s = 0.0;
    double cpu_s = 0.0;
    double peak_rss_mb = 0.0;
    /** Operations (cases, jobs, requests) attempted and passed. */
    std::size_t attempted = 0;
    std::size_t passed = 0;
    /** One line per failed check (capped). */
    std::vector<std::string> failures;
    /** Per-operation latency samples, ms. */
    std::vector<double> lat_ms;
    /** Figure headlines: "figNN" -> measured value. */
    std::map<std::string, double> headlines;
    /** fid_figNN_err_pct: error against the paper, percent. */
    std::map<std::string, double> fidelity;
    /** Digest of every simulated counter the workload produced. */
    std::string sim_digest;
    /** Traced runs: per-layer metrics. */
    std::map<std::string, double> layers;
    /** Raw samples run.py turns into percentiles. */
    std::map<std::string, std::vector<double>> samples;
    /** Counts and facts printed for the reader. */
    std::map<std::string, double> info;

    /** Record one operation; a non-empty `failure` fails it. */
    void check(bool ok, const std::string &failure);
};

/** The one JSON line a workload process prints. */
std::string toJsonLine(const WorkloadOptions &opts,
                       const WorkloadResult &result);

/**
 * Write every simulated counter as metrics-v1 to
 * `<out_dir>/<workload>[.traced].sim.metrics.json` (compare two
 * commits with tools/metrics_diff) and return its digest: FNV-1a of
 * the serialized registry as 16 hex digits, so two runs whose every
 * counter is identical have identical digests.
 */
std::string writeSimMetrics(const WorkloadOptions &opts,
                            const sparsepipe::obs::MetricsRegistry &reg);

/**
 * Add each layer's self time ("<span>_ms") and other_ms to the
 * per-layer metrics, and the busy time and the layers' plus other_ms's
 * sum to info ("busy_ms", "accounted_ms") for run.py to reconcile.
 */
void addTraceLayers(const Tracer &tracer, WorkloadResult &result);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
