/**
 * @file
 * grid_cold: the paper's evaluation grid from a cold start, plus the
 * layer-by-layer replay every traced workload shares.
 */

#include <cmath>
#include <optional>

#include "baseline/models.hh"
#include "fidelity.hh"
#include "graph/analysis.hh"
#include "prep/blocked.hh"
#include "ref/executor.hh"
#include "runner/thread_pool.hh"
#include "sparse/datasets.hh"
#include "workloads.hh"

namespace perfbench {

using namespace sparsepipe;
using bench::CaseResult;
using bench::CaseSpec;
using bench::RunConfig;
using Kind = Tracer::Kind;

std::shared_ptr<const CooMatrix>
LayeredPipeline::raw(const std::string &dataset)
{
    return raw_.getShared(dataset, [&] {
        Tracer::Scope span(tracer_, "sparse.generate", Kind::Layer,
                           dataset);
        return generateDataset(datasetSpec(dataset), seed_);
    });
}

std::shared_ptr<const CooMatrix>
LayeredPipeline::reordered(const std::string &dataset)
{
    return reordered_.getShared(dataset, [&] {
        auto pinned = raw(dataset);
        Tracer::Scope span(tracer_, "prep.reorder", Kind::Layer, dataset);
        return api::reorderMatrix(*pinned, ReorderKind::Vanilla);
    });
}

api::PreparedCase
LayeredPipeline::prepare(const std::string &app, const std::string &dataset)
{
    auto matrix = reordered(dataset);
    const std::string id = app + "-" + dataset;
    api::PreparedCase pc;
    {
        Tracer::Scope span(tracer_, "apps.prepare", Kind::Layer, id);
        pc.app = makeApp(app, matrix->rows());
        pc.csr = pc.app.prepare(*matrix);
    }
    {
        Tracer::Scope span(tracer_, "sparse.csc_twin", Kind::Layer, id);
        pc.csc = CscMatrix::fromCsr(pc.csr);
    }
    {
        Tracer::Scope span(tracer_, "prep.blocked", Kind::Layer, id);
        pc.blocked_bytes_per_nz =
            buildBlockedLayout(pc.csr).value().bytesPerNonzero();
    }
    pc.nnz = pc.csr.nnz();
    return pc;
}

SimStats
LayeredPipeline::run(const api::RunRequest &req,
                     const api::PreparedCase &pc, Workspace *final_ws)
{
    SparsepipeConfig cfg = req.sp;
    cfg.bytes_per_nz = req.blocked ? pc.blocked_bytes_per_nz : 12.0;
    if (req.lanes >= 0)
        cfg.lanes = req.lanes;
    if (req.band_threads >= 0)
        cfg.band_threads = req.band_threads;
    const std::string id = req.app + "-" + req.dataset;

    std::optional<Workspace> ws;
    {
        Tracer::Scope span(tracer_, "lang.bind", Kind::Layer, id);
        ws.emplace(api::Session::bindWorkspace(pc));
    }
    const bool gamma = req.backend == backend::BackendKind::Gamma;
    SimStats stats;
    {
        Tracer::Scope span(tracer_, gamma ? "backend.gamma_sim" : "core.sim",
                           Kind::Layer, id);
        const std::unique_ptr<backend::CycleEngine> engine =
            backend::makeEngine(req.backend, cfg);
        stats = engine->run(*ws, req.iters > 0 ? req.iters
                                               : pc.app.default_iters);
    }
    if (final_ws)
        *final_ws = std::move(*ws);
    return stats;
}

void
runBaselines(Tracer *tracer, const api::PreparedCase &pc,
             const RunConfig &config, CaseResult &result)
{
    Tracer::Scope span(tracer, "baseline.models", Kind::Layer,
                       result.app + "-" + result.dataset);
    // As bench::runCaseOr: charged for the iterations actually run.
    const Idx iters = result.sp.iterations;
    Analysis an = analyzeProgram(pc.app.program);
    AccelConfig accel;
    accel.bandwidth_gb_s = config.sp.dram.bandwidth_gb_s;
    accel.pes = config.sp.pe_per_core;
    result.ideal = idealAccelerator(an, result.nnz, iters, accel);
    AccelConfig strict = accel;
    strict.fused_ewise = false;
    result.ideal_strict = idealAccelerator(an, result.nnz, iters, strict);
    result.oracle = oracleAccelerator(an, result.nnz, iters, accel);
    result.cpu = cpuModel(an, result.nnz, iters);
    result.gpu = gpuModel(an, result.nnz, iters);
}

void
addSimCounters(const SimStats &stats, bool gamma, WorkloadResult &result)
{
    auto add = [&](const char *key, double value) {
        result.layers[key] += value;
    };
    add("core.cycles", static_cast<double>(stats.cycles));
    add("backend.gamma_cycles", gamma ? static_cast<double>(stats.cycles)
                                      : 0.0);
    add("obs.attr.compute", static_cast<double>(stats.attribution.compute));
    add("obs.attr.dram_read_stall",
        static_cast<double>(stats.attribution.dram_read_stall));
    add("obs.attr.dram_write_drain",
        static_cast<double>(stats.attribution.dram_write_drain));
    add("obs.attr.buffer_swap_wait",
        static_cast<double>(stats.attribution.buffer_swap_wait));
    add("mem.read_bytes", static_cast<double>(stats.dram_read_bytes));
    add("mem.write_bytes", static_cast<double>(stats.dram_write_bytes));
    add("buffer.reload_bytes", static_cast<double>(stats.reload_bytes));
    add("buffer.prefetch_bytes", static_cast<double>(stats.prefetch_bytes));
    if (!gamma)
        result.info["core.elems"] +=
            static_cast<double>(stats.os_elems + stats.is_elems);
}

void
addPreparedCacheStats(const api::Session &session, WorkloadResult &result)
{
    const runner::CacheStats prepared = session.cacheStats().prepared;
    result.info["api.prepared.hits"] = static_cast<double>(prepared.hits);
    result.info["api.prepared.misses"] =
        static_cast<double>(prepared.misses);
    result.info["api.prepared.evictions"] =
        static_cast<double>(prepared.evictions);
}

std::string
attributionFailure(const SimStats &stats)
{
    if (stats.attribution.totalCycles() == stats.cycles)
        return {};
    return "attribution buckets sum to " +
           std::to_string(stats.attribution.totalCycles()) + ", cycles " +
           std::to_string(stats.cycles);
}

namespace {

/** Max |a - b| over two tensors' values (equal infinities and NaNs
 *  count as equal), as the simulator equivalence tests measure it. */
double
maxAbsError(const std::vector<Value> &a, const std::vector<Value> &b)
{
    if (a.size() != b.size())
        return INFINITY;
    double err = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i] == b[i] || (std::isnan(a[i]) && std::isnan(b[i])))
            continue;
        err = std::max(err, std::abs(a[i] - b[i]));
        if (std::isnan(err))
            return INFINITY;
    }
    return err;
}

/** "" when a case's simulated workspace matches a RefExecutor run of
 *  the same prepared operand in every vector and dense tensor. */
std::string
referenceMismatch(const api::RunRequest &req, const api::PreparedCase &pc)
{
    LayeredPipeline untraced(nullptr, req.seed);
    Workspace sim_ws(pc.app.program);
    const SimStats stats = untraced.run(req, pc, &sim_ws);

    Workspace ref_ws = api::Session::bindWorkspace(pc);
    const RunResult ref = RefExecutor().run(
        ref_ws, req.iters > 0 ? req.iters : pc.app.default_iters);
    if (ref.iterations != stats.iterations)
        return "reference ran " + std::to_string(ref.iterations) +
               " iterations, simulator " +
               std::to_string(stats.iterations);
    const Program &program = pc.app.program;
    for (TensorId id = 0;
         id < static_cast<TensorId>(program.tensors().size()); ++id) {
        double err = 0.0;
        const TensorKind kind = program.tensor(id).kind;
        if (kind == TensorKind::Vector)
            err = maxAbsError(ref_ws.vec(id), sim_ws.vec(id));
        else if (kind == TensorKind::DenseMatrix)
            err = maxAbsError(ref_ws.den(id).data(), sim_ws.den(id).data());
        if (!(err < 1e-9))
            return "tensor '" + program.tensor(id).name +
                   "' differs from the reference by " + std::to_string(err);
    }
    return {};
}

api::RunRequest
requestOf(const CaseSpec &spec)
{
    // The request bench::runCaseOr builds.
    api::RunRequest req;
    req.app = spec.app;
    req.dataset = spec.dataset;
    req.backend = spec.config.backend;
    req.sp = spec.config.sp;
    req.iters = spec.config.iters;
    req.reorder = spec.config.reorder;
    req.blocked = spec.config.blocked;
    req.seed = spec.config.seed;
    return req;
}

/**
 * One case replayed layer by layer: bench::runCaseOr's work, outside
 * the Session.  `pc` receives the prepared operand, which the caller
 * keeps resident as the Session would.
 */
StatusOr<CaseResult>
replayCase(LayeredPipeline &pipe, Tracer *tracer, const CaseSpec &spec,
           std::shared_ptr<const api::PreparedCase> &pc)
{
    Tracer::Scope task(tracer, "task.case", Kind::Task,
                       spec.app + "-" + spec.dataset);
    try {
        auto prepared = std::make_shared<api::PreparedCase>(
            pipe.prepare(spec.app, spec.dataset));
        CaseResult r;
        r.app = spec.app;
        r.dataset = spec.dataset;
        r.nnz = prepared->nnz;
        r.sp = pipe.run(requestOf(spec), *prepared);
        runBaselines(tracer, *prepared, spec.config, r);
        pc = std::move(prepared);
        return r;
    } catch (...) {
        return statusFromCurrentException();
    }
}

} // namespace

WorkloadResult
runGridCold(const WorkloadOptions &opts)
{
    WorkloadResult result;
    Tracer tracer;
    Tracer *const tr = opts.traced ? &tracer : nullptr;
    LayeredPipeline pipe(tr, opts.seed);

    RunConfig config;
    config.seed = opts.seed;
    const std::vector<std::string> datasets = bench::allDatasets();
    const std::vector<CaseSpec> specs =
        bench::sweepGrid(bench::allApps(), datasets, config);
    const std::size_t n = specs.size();

    // Set-up: generate the nine stand-ins, which replace reading the
    // paper's SuiteSparse files.
    {
        Tracer::Scope phase(tr, "phase.setup", Kind::Phase);
        for (const std::string &dataset : datasets) {
            Tracer::Scope task(tr, "task.setup", Kind::Task, dataset);
            if (opts.traced)
                pipe.raw(dataset);
            else
                bench::rawDataset(dataset, opts.seed);
        }
    }
    result.setup_s = secondsSince(opts.spawn_ns);

    // Timed: reorder, prepare, simulate and baselines for every case.
    std::vector<std::optional<StatusOr<CaseResult>>> cases(n);
    std::vector<std::shared_ptr<const api::PreparedCase>> prepared(n);
    std::vector<double> queue_wait_ms(n);
    result.lat_ms.assign(n, 0.0);
    const PhaseTimer timer;
    const std::int64_t t0 = nowNs();
    {
        Tracer::Scope phase(tr, "phase.timed", Kind::Phase);
        runner::ThreadPool pool(opts.jobs > 0 ? opts.jobs : 2);
        for (std::size_t i = 0; i < n; ++i) {
            pool.submit([&, i] {
                const CaseSpec &spec = specs[i];
                const std::int64_t start = nowNs();
                queue_wait_ms[i] = static_cast<double>(start - t0) / 1e6;
                cases[i] = opts.traced
                               ? replayCase(pipe, tr, spec, prepared[i])
                               : bench::runCaseOr(spec.app, spec.dataset,
                                                  spec.config);
                result.lat_ms[i] =
                    static_cast<double>(nowNs() - start) / 1e6;
            });
        }
        pool.wait();
    }
    timer.stop(result);

    // Checks: every case ran and its attribution reconciles.
    std::vector<CaseResult> grid;
    obs::MetricsRegistry reg;
    for (std::size_t i = 0; i < n; ++i) {
        const std::string id = specs[i].app + "-" + specs[i].dataset;
        if (!cases[i] || !cases[i]->ok()) {
            result.check(false, id + ": " +
                                    (cases[i] ? cases[i]->status().toString()
                                              : std::string("no result")));
            continue;
        }
        const CaseResult &r = cases[i]->value();
        const std::string bad = attributionFailure(r.sp);
        result.check(bad.empty(), id + ": " + bad);
        bench::recordCaseMetrics(reg, r);
        grid.push_back(r);
        if (opts.traced)
            addSimCounters(r.sp, false, result);
    }
    if (grid.size() == n) {
        const std::map<std::string, double> measured =
            figureHeadlines(grid);
        for (const PaperHeadline &h : paperHeadlines()) {
            result.headlines[h.fig] = measured.at(h.fig);
            result.fidelity["fid_" + std::string(h.fig) + "_err_pct"] =
                errorPct(measured.at(h.fig), h.paper);
        }
    }
    result.sim_digest = writeSimMetrics(opts, reg);

    if (!opts.traced) {
        addPreparedCacheStats(api::Session::process(), result);
        return result;
    }

    double queue_wait = 0.0;
    for (double w : queue_wait_ms)
        queue_wait += w;
    result.layers["runner.queue_wait_ms"] = queue_wait;
    addTraceLayers(tracer, result);
    tracer.writeChromeTrace(opts.out_dir + "/grid_cold.trace.json");

    // Untimed: each case's final workspace against a RefExecutor run.
    runner::ThreadPool pool(opts.jobs > 0 ? opts.jobs : 2);
    std::vector<std::string> mismatch(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (!prepared[i])
            continue;
        pool.submit([&, i] {
            try {
                mismatch[i] = referenceMismatch(requestOf(specs[i]),
                                                *prepared[i]);
            } catch (...) {
                mismatch[i] = statusFromCurrentException().toString();
            }
        });
    }
    pool.wait();
    for (std::size_t i = 0; i < n; ++i)
        if (prepared[i])
            result.check(mismatch[i].empty(),
                         specs[i].app + "-" + specs[i].dataset +
                             " vs reference: " + mismatch[i]);
    return result;
}

} // namespace perfbench
