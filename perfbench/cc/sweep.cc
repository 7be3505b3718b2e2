/**
 * @file
 * sweep_warm: a design-space sweep over already-prepared cases
 * through explore::runSweep, the mapping explorer's entry point.
 */

#include <fstream>
#include <optional>

#include "explore/dataset.hh"
#include "explore/driver.hh"
#include "runner/thread_pool.hh"
#include "workloads.hh"

namespace perfbench {

using namespace sparsepipe;
using Kind = Tracer::Kind;

namespace {

/** One prepared case and the buffer ladder around its working set. */
struct SweepCase
{
    const char *app;
    const char *dataset;
    /** Why it is in the sweep. */
    const char *role;
    /** On-chip buffer sizes, KiB: below and above the working set. */
    const char *buffer_kb;
};

const std::vector<SweepCase> &
sweepCases()
{
    // The default buffer is 1536 KiB.  Working sets (matrix bytes at
    // the blocked layout's ~10 B/nz): pr-ro ~1.2 MB fits, pr-wi
    // ~11 MB overflows, gcn-gy ~1.8 MB and cg-ca ~2 MB straddle it.
    static const std::vector<SweepCase> cases = {
        {"pr", "ro", "working set fits the buffer", "256 768 1536 3072"},
        {"pr", "wi", "working set overflows the buffer",
         "1536 6144 12288 24576"},
        {"gcn", "gy", "SpMM", "512 1536 3072 6144"},
        {"cg", "ca", "producer-consumer-only solver", "512 1536 3072 6144"},
    };
    return cases;
}

/**
 * The spec the benchmark writes for one case: both Table II memory
 * systems, a bandwidth ladder on iso-GPU, the buffer ladder, and the
 * gamma engine on the default 1536 KiB buffer only, which keeps it at
 * about a quarter of the sweep's host time.  Gamma's subset comes
 * first so its long jobs start early and short ones fill the tail.
 */
std::string
specText(const SweepCase &c, std::uint64_t seed)
{
    std::string text;
    text += "# perfbench sweep_warm: " + std::string(c.role) + "\n";
    text += "space perfbench-" + std::string(c.app) + "-" + c.dataset + "\n";
    text += "apps " + std::string(c.app) + "\n";
    text += "datasets " + std::string(c.dataset) + "\n";
    text += "iters 0\n";
    text += "seed " + std::to_string(seed) + "\n";
    text += "axis backend list gamma sparsepipe\n";
    text += "axis iso list gpu cpu\n";
    text += "axis bandwidth_gb_s list 126 252 504\n";
    text += "axis buffer_kb list " + std::string(c.buffer_kb) + "\n";
    text += "subset gamma backend=gamma iso=gpu bandwidth_gb_s=504 "
            "buffer_kb=1536\n";
    text += "subset gpu backend=sparsepipe iso=gpu\n";
    text += "subset cpu backend=sparsepipe iso=cpu bandwidth_gb_s=40\n";
    return text;
}

/** A row's simulated fields (host_ms excluded) into `reg`. */
void
recordRow(obs::MetricsRegistry &reg, const explore::DatasetRow &row)
{
    const std::string p = row.hash + ".";
    const explore::RowResult &r = row.result;
    reg.set(p + "cycles", r.cycles);
    reg.set(p + "iterations", r.iterations);
    reg.set(p + "converged", r.converged);
    reg.set(p + "attr.compute", r.compute_cycles);
    reg.set(p + "attr.dram_read_stall", r.read_stall_cycles);
    reg.set(p + "attr.dram_write_drain", r.write_drain_cycles);
    reg.set(p + "attr.buffer_swap_wait", r.swap_wait_cycles);
    reg.set(p + "dram_read_bytes", r.dram_read_bytes);
    reg.set(p + "dram_write_bytes", r.dram_write_bytes);
    reg.set(p + "bw_utilization", r.bw_utilization);
    reg.set(p + "energy_compute_pj", r.energy_compute_pj);
    reg.set(p + "energy_memory_pj", r.energy_memory_pj);
    reg.set(p + "energy_cache_pj", r.energy_cache_pj);
}

struct CaseSweep
{
    explore::ExploreSpec spec;
    std::vector<explore::ExploreJob> jobs;
    std::string dataset_path;
};

} // namespace

WorkloadResult
runSweepWarm(const WorkloadOptions &opts)
{
    WorkloadResult result;
    Tracer tracer;
    Tracer *const tr = opts.traced ? &tracer : nullptr;
    LayeredPipeline pipe(tr, opts.seed);
    const int jobs = opts.jobs > 0 ? opts.jobs : 2;

    // Set-up: write and parse the specs, and generate, reorder and
    // prepare every case into Session::process(), which the sweep
    // entry point runs against.
    std::vector<CaseSweep> sweeps;
    std::map<std::string, api::PreparedCase> replay_cases;
    {
        Tracer::Scope phase(tr, "phase.setup", Kind::Phase);
        for (const SweepCase &c : sweepCases()) {
            const std::string name = std::string(c.app) + "-" + c.dataset;
            const std::string base = opts.out_dir + "/sweep_warm." + name;
            const std::string text = specText(c, opts.seed);
            std::ofstream(base + ".spec") << text;
            StatusOr<explore::ExploreSpec> spec =
                explore::parseExploreSpec(text);
            if (!spec.ok()) {
                result.check(false, name + " spec: " +
                                        spec.status().toString());
                continue;
            }
            CaseSweep sweep;
            sweep.spec = std::move(spec).value();
            sweep.jobs = explore::expandSpec(sweep.spec);
            sweep.dataset_path = base + ".jsonl";
            sweeps.push_back(std::move(sweep));

            if (opts.traced) {
                Tracer::Scope task(tr, "task.setup", Kind::Task, name);
                replay_cases.emplace(name, pipe.prepare(c.app, c.dataset));
            }
            // Traced runs prepare twice: the spans above time the
            // replay, this fills the cache the sweep reads.
            api::Session::process().prepared(c.app, c.dataset,
                                             ReorderKind::Vanilla,
                                             opts.seed);
        }
    }
    result.setup_s = secondsSince(opts.spawn_ns);

    // Timed: every spec through explore::runSweep.
    std::vector<StatusOr<explore::SweepSummary>> summaries;
    std::vector<double> sweep_ms;
    const PhaseTimer timer;
    for (const CaseSweep &sweep : sweeps) {
        Tracer::Scope phase(tr, "explore.runSweep", Kind::Phase,
                            sweep.spec.name);
        explore::SweepOptions options;
        options.dataset_path = sweep.dataset_path;
        options.jobs = jobs;
        const std::int64_t start = nowNs();
        summaries.push_back(explore::runSweep(sweep.spec, options));
        sweep_ms.push_back(static_cast<double>(nowNs() - start) / 1e6);
    }
    timer.stop(result);

    // Checks: each sweep's summary shows every job ran and none failed
    // or was skipped, its dataset holds exactly one row per job, and
    // every row's attribution reconciles.  A sweep-level failure fails
    // each of its jobs.
    obs::MetricsRegistry reg;
    std::map<std::string, explore::DatasetRow> rows_by_key;
    for (std::size_t s = 0; s < sweeps.size(); ++s) {
        const CaseSweep &sweep = sweeps[s];
        const std::string &name = sweep.spec.name;
        const std::size_t expected = sweep.jobs.size();
        if (!summaries[s].ok()) {
            for (std::size_t j = 0; j < expected; ++j)
                result.check(false, name + ": " +
                                        summaries[s].status().toString());
            continue;
        }
        const explore::SweepSummary &sum = summaries[s].value();
        StatusOr<std::vector<explore::DatasetRow>> rows =
            explore::readDataset(sweep.dataset_path);
        std::string sweep_bad;
        if (!rows.ok())
            sweep_bad = rows.status().toString();
        else if (sum.total_jobs != expected || sum.ran != expected ||
                 sum.failed != 0 || sum.skipped != 0 ||
                 sum.rows_appended != expected ||
                 rows.value().size() != expected)
            sweep_bad = "summary total/ran/failed/skipped/rows " +
                        std::to_string(sum.total_jobs) + "/" +
                        std::to_string(sum.ran) + "/" +
                        std::to_string(sum.failed) + "/" +
                        std::to_string(sum.skipped) + "/" +
                        std::to_string(sum.rows_appended) + ", " +
                        std::to_string(rows.value().size()) +
                        " rows in the dataset, want " +
                        std::to_string(expected);
        std::map<std::string, int> seen;
        if (rows.ok()) {
            for (const explore::DatasetRow &row : rows.value()) {
                ++seen[row.key];
                rows_by_key[row.key] = row;
            }
        }
        for (const explore::ExploreJob &job : sweep.jobs) {
            const std::string key = explore::jobKey(job);
            auto it = rows_by_key.find(key);
            std::string bad = sweep_bad;
            if (bad.empty() && seen[key] != 1)
                bad = std::to_string(seen[key]) + " rows";
            if (bad.empty()) {
                const explore::RowResult &r = it->second.result;
                const double sum_cycles =
                    r.compute_cycles + r.read_stall_cycles +
                    r.write_drain_cycles + r.swap_wait_cycles;
                if (sum_cycles != r.cycles)
                    bad = "attribution buckets sum to " +
                          std::to_string(sum_cycles) + ", cycles " +
                          std::to_string(r.cycles);
            }
            result.check(bad.empty(), key + ": " + bad);
            if (bad.empty()) {
                recordRow(reg, it->second);
                result.lat_ms.push_back(it->second.result.host_ms);
            }
        }
    }
    result.sim_digest = writeSimMetrics(opts, reg);

    if (!opts.traced) {
        addPreparedCacheStats(api::Session::process(), result);
        return result;
    }

    // Traced: replay every job's bind and simulate directly, on the
    // same number of workers, and check it reproduces the sweep's rows.
    double other_ms = 0.0;
    for (std::size_t s = 0; s < sweeps.size(); ++s) {
        const CaseSweep &sweep = sweeps[s];
        const std::size_t n = sweep.jobs.size();
        std::vector<std::optional<SimStats>> stats(n);
        const std::int64_t start = nowNs();
        {
            Tracer::Scope phase(tr, "phase.replay", Kind::Phase,
                                sweep.spec.name);
            runner::ThreadPool pool(jobs);
            for (std::size_t j = 0; j < n; ++j) {
                pool.submit([&, j] {
                    const explore::ExploreJob &job = sweep.jobs[j];
                    Tracer::Scope task(tr, "task.job", Kind::Task,
                                       explore::jobHash(job));
                    try {
                        stats[j] = pipe.run(
                            explore::requestFor(job),
                            replay_cases.at(job.app + "-" + job.dataset));
                    } catch (...) {
                        stats[j].reset();
                    }
                });
            }
            pool.wait();
        }
        other_ms += sweep_ms[s] - static_cast<double>(nowNs() - start) / 1e6;
        for (std::size_t j = 0; j < n; ++j) {
            const explore::ExploreJob &job = sweep.jobs[j];
            auto it = rows_by_key.find(explore::jobKey(job));
            const bool same =
                stats[j] && it != rows_by_key.end() &&
                static_cast<double>(stats[j]->cycles) ==
                    it->second.result.cycles;
            result.check(same, explore::jobKey(job) +
                                   ": replay cycles differ from the row");
            if (stats[j])
                addSimCounters(*stats[j],
                               explore::requestFor(job).backend ==
                                   backend::BackendKind::Gamma,
                               result);
        }
    }
    result.layers["explore.other_ms"] = other_ms;
    addTraceLayers(tracer, result);
    tracer.writeChromeTrace(opts.out_dir + "/sweep_warm.trace.json");
    return result;
}

} // namespace perfbench
