/**
 * @file
 * Shared infrastructure for the figure/table reproduction benches.
 *
 * Each bench binary regenerates one table or figure of the paper's
 * evaluation (Section VI) on the scaled stand-in datasets.  The
 * harness drives the shared api::Session (which caches dataset
 * generation and preprocessing thread-safe, once per key), runs the
 * Sparsepipe simulator plus the four comparison models, and provides
 * the common printing helpers so all benches emit uniform,
 * diff-friendly tables.
 *
 * The all-pairs sweeps go through src/runner: build the grid with
 * sweepGrid(), run it with runSweep(specs, jobs), and read the
 * results back in grid order — byte-identical to a serial walk for
 * any job count, because every case is a pure function of its spec
 * (per-job deterministic seeding) and the sink reorders completions.
 */

#ifndef SPARSEPIPE_BENCH_HARNESS_HH
#define SPARSEPIPE_BENCH_HARNESS_HH

#include <optional>
#include <string>
#include <vector>

#include "api/session.hh"
#include "backend/backend.hh"
#include "apps/apps.hh"
#include "baseline/models.hh"
#include "core/sparsepipe_sim.hh"
#include "obs/metrics.hh"
#include "prep/reorder.hh"
#include "sparse/datasets.hh"
#include "util/stats.hh"
#include "util/table.hh"

namespace sparsepipe::bench {

/** Seed every case uses unless its RunConfig overrides it. */
inline constexpr std::uint64_t kDefaultSeed = 0x5eed5eedULL;

/** Per-case run configuration. */
struct RunConfig
{
    SparsepipeConfig sp = SparsepipeConfig::isoGpu();
    /** Cycle-level engine running the case (backend registry). */
    backend::BackendKind backend = backend::BackendKind::Sparsepipe;
    /** 0 uses the app's default iteration count. */
    Idx iters = 0;
    ReorderKind reorder = ReorderKind::Vanilla;
    bool blocked = true;
    std::uint64_t seed = kDefaultSeed;
};

/** Everything measured for one (app, dataset) pair. */
struct CaseResult
{
    std::string app;
    std::string dataset;
    Idx nnz = 0;

    SimStats sp;
    /**
     * Host wall-clock spent inside the simulator for this case, as
     * RunReport::host_ms records it (dataset prep excluded).
     * Machine-dependent: printed in walltime summaries, never
     * recorded in metrics-v1 dumps.
     */
    double host_ms = 0.0;
    BaselineStats ideal;
    /** Strict operator-at-a-time baseline (energy accounting). */
    BaselineStats ideal_strict;
    BaselineStats oracle;
    BaselineStats cpu;
    BaselineStats gpu;

    double spSeconds() const { return sp.seconds(); }
    double speedupVsIdeal() const { return ideal.seconds / spSeconds(); }
    double speedupVsCpu() const { return cpu.seconds / spSeconds(); }
    double speedupVsGpu() const { return gpu.seconds / spSeconds(); }
    double fractionOfOracle() const
    {
        return oracle.seconds / spSeconds();
    }
};

/**
 * Raw stand-in dataset, cached per (name, seed) for the process.
 * Thread-safe: concurrent calls for the same key build the matrix
 * exactly once; the reference stays valid for the process lifetime.
 */
const CooMatrix &rawDataset(const std::string &name,
                            std::uint64_t seed = kDefaultSeed);

/**
 * Dataset after symmetric row reordering, in CSR form (cached per
 * (name, reorder, seed); thread-safe like rawDataset()).
 */
const CsrMatrix &preparedDataset(const std::string &name,
                                 ReorderKind reorder,
                                 std::uint64_t seed = kDefaultSeed);

/** The Session request runCaseOr() makes for one case. */
api::RunRequest requestFor(const std::string &app,
                           const std::string &dataset,
                           const RunConfig &config);

/**
 * Run one (app, dataset) case under a configuration.
 *
 * Recoverable failures come back as a Status: InvalidInput for
 * unknown names, Cancelled / DeadlineExceeded when `cancel` fires,
 * ResourceExhausted / Internal for trouble inside the simulator.
 * Sweeps use this so one bad job cannot take the process down.
 */
StatusOr<CaseResult> runCaseOr(const std::string &app,
                               const std::string &dataset,
                               const RunConfig &config,
                               const CancelToken *cancel = nullptr);

/**
 * Run one (app, dataset) case under a configuration.  Bench-internal
 * specs are trusted, so any failure here is a bug and panics.
 */
CaseResult runCase(const std::string &app, const std::string &dataset,
                   const RunConfig &config);

/** One cell of an experiment grid. */
struct CaseSpec
{
    std::string app;
    std::string dataset;
    RunConfig config;
    /** Job name for logs/tables; empty derives "app-dataset". */
    std::string label;
};

/** Expand apps x datasets under one config, app-major order. */
std::vector<CaseSpec> sweepGrid(const std::vector<std::string> &apps,
                                const std::vector<std::string> &datasets,
                                const RunConfig &config);

/**
 * Run every spec on a pool of `jobs` workers (<= 0 picks
 * ThreadPool::defaultJobs()) and return results in spec order,
 * byte-identical to calling runCase() serially.
 */
std::vector<CaseResult> runSweep(const std::vector<CaseSpec> &specs,
                                 int jobs);

/** Arguments every bench binary accepts. */
struct BenchArgs
{
    /** Worker threads for runSweep(). */
    int jobs = 0;
    /** When non-empty, dump a metrics-v1 file here before exit. */
    std::string metrics_out;
    /**
     * Packed-lane width override (-1 keeps the bench's RunConfig
     * default, 0 = preferred width, 1 = scalar element path).  All
     * widths produce bit-identical metrics; the flag exists to
     * time one path against the other.
     */
    Idx lanes = -1;
    /** Band-thread override (-1 keeps the RunConfig default). */
    int band_threads = -1;
    /**
     * Backend override (unset keeps the bench's RunConfig default).
     * Validated against the registry at parse time; an unknown name
     * exits with the usage code listing the registered backends.
     */
    std::optional<backend::BackendKind> backend;
};

/**
 * Parse bench-binary arguments: `--jobs N` / `-j N` (default: the
 * SPARSEPIPE_JOBS env override, else hardware concurrency),
 * `--metrics-out FILE`, `--lanes N`, `--band-threads N`, and
 * `--backend NAME`; all accept the `--flag=value` spelling.  Unknown
 * flags are fatal; --help prints usage and exits.
 */
BenchArgs parseBenchArgs(int argc, char **argv);

/**
 * Fold the command-line overrides (--lanes, --band-threads,
 * --backend) into a bench's RunConfig; fields the user did not set
 * keep the bench's defaults.
 */
void applyArgOverrides(const BenchArgs &args, RunConfig &cfg);

/**
 * Record one case's full statistics (simulator counters via
 * recordSimMetrics() plus baseline model seconds) under the
 * "<app>.<dataset>" prefix.
 */
void recordCaseMetrics(obs::MetricsRegistry &reg, const CaseResult &r);

/**
 * Write `reg` to args.metrics_out when set (prints a one-line note);
 * no-op otherwise.
 */
void writeMetrics(const BenchArgs &args,
                  const obs::MetricsRegistry &reg);

/** All dataset keys in Table I order. */
std::vector<std::string> allDatasets();

/** All application keys in Table III order. */
std::vector<std::string> allApps();

/** Geomean helper over a metric extracted from case results. */
template <typename Fn>
double
geomeanOf(const std::vector<CaseResult> &cases, Fn metric)
{
    std::vector<double> values;
    values.reserve(cases.size());
    for (const CaseResult &c : cases)
        values.push_back(metric(c));
    return geomean(values);
}

/** Render a utilization series (one char per sample) as a sparkline. */
std::string sparkline(const std::vector<double> &series);

/** Standard bench header. */
void printHeader(const std::string &title, const std::string &paper);

} // namespace sparsepipe::bench

#endif // SPARSEPIPE_BENCH_HARNESS_HH
