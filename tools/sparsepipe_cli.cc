/**
 * @file
 * Command-line driver for the Sparsepipe simulator.
 *
 * Run any application from the suite on a built-in dataset stand-in,
 * a MatrixMarket file, or a synthetic matrix, with the full hardware
 * configuration exposed as flags.  Prints a run report with cycles,
 * traffic breakdown, buffer behaviour, baseline comparisons, energy,
 * and (optionally) the bandwidth timeline.
 *
 * Examples:
 *   sparsepipe_cli --app pr --dataset wi
 *   sparsepipe_cli --app sssp --mtx road.mtx --iters 32
 *   sparsepipe_cli --app bfs --synthetic rmat:65536:8 \
 *       --buffer-kb 512 --no-eager --timeline
 *   sparsepipe_cli --app gcn --dataset co --autotune
 *
 * Sweeps of many runs are explore specs (sparsepipe_explore).
 */

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "api/autotune.hh"
#include "api/session.hh"
#include "apps/apps.hh"
#include "baseline/models.hh"
#include "core/sparsepipe_sim.hh"
#include "energy/energy_model.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "prep/reorder.hh"
#include "sparse/datasets.hh"
#include "sparse/generate.hh"
#include "sparse/io.hh"
#include "util/logging.hh"
#include "util/parse.hh"

using namespace sparsepipe;

namespace {

struct Options
{
    std::string app = "pr";
    std::string dataset;
    /** Cycle backend (registry name, validated in main). */
    std::string backend = "sparsepipe";
    std::string mtx;
    std::string synthetic; // kind:n:nnz_per_row
    Idx iters = 0;
    Idx buffer_kb = 0;
    Idx sub_tensor = 0;
    Idx lanes = -1;        // -1 keeps the config default (auto)
    int band_threads = -1; // -1 keeps the config default (1)
    double bandwidth = 0.0;
    bool iso_cpu = false;
    bool eager = true;
    bool blocked = true;
    std::string reorder = "vanilla";
    bool timeline = false;
    Idx timeline_samples = 0; // 0 keeps the config default (25)
    bool autotune = false;
    std::string trace_out;   // Chrome trace_event JSON
    std::string metrics_out; // metrics-v1 JSON
    std::uint64_t seed = 0x5eed5eedULL;
    /** Deadline of the run (0 = none). */
    long long timeout_ms = 0;
};

/**
 * Process-wide cancellation root: Ctrl-C cancels it and the run's
 * token chains to it, so one signal stops the run cleanly.
 */
CancelToken &
sigintToken()
{
    static CancelToken token;
    return token;
}

extern "C" void
onSigint(int)
{
    // One relaxed atomic store: async-signal-safe.
    sigintToken().cancel();
}

/** Bad flags exit with the usage code (2), not a fatal(). */
[[noreturn]] void
usageError(const std::string &message)
{
    std::fprintf(stderr, "sparsepipe_cli: %s (try --help)\n",
                 message.c_str());
    std::exit(kExitUsage);
}

/** Unwrap a flag-parse result or exit with the usage code. */
template <typename T>
T
flagValue(StatusOr<T> parsed)
{
    if (!parsed.ok())
        usageError(parsed.status().toString());
    return std::move(parsed).value();
}

void
usage()
{
    std::printf(
        "usage: sparsepipe_cli [options]\n"
        "  --app NAME          application (Table III key, "
        "default pr)\n"
        "  --dataset KEY       built-in stand-in (ca gy g2 co bu wi "
        "ad ro eu)\n"
        "  --mtx FILE          MatrixMarket input\n"
        "  --synthetic SPEC    kind:n:nnz_per_row, kind in "
        "{uniform,rmat,banded,poisson}\n"
        "  --backend NAME      cycle-level engine (default "
        "sparsepipe; see --list)\n"
        "  --iters N           loop iterations (default: app "
        "default)\n"
        "  --buffer-kb N       on-chip buffer size\n"
        "  --lanes N           packed-SIMD lane width (0 = preferred "
        "width, 4;\n"
        "                      1 = scalar element path; "
        "bit-identical)\n"
        "  --band-threads N    threads stepping column bands of one "
        "run\n"
        "                      (bit-identical; default 1)\n"
        "  --sub-tensor N      fixed sub-tensor width (default "
        "auto)\n"
        "  --bandwidth GBS     DRAM bandwidth override\n"
        "  --iso-cpu           use the DDR4 iso-CPU configuration\n"
        "  --no-eager          disable the opportunistic CSR "
        "loader\n"
        "  --no-blocked        use the unblocked dual storage\n"
        "  --reorder KIND      none | vanilla | locality\n"
        "  --autotune          explore sub-tensor sizes first\n"
        "  --timeline          print the BW timeline\n"
        "  --timeline-samples N  timeline resolution (default 25)\n"
        "  --trace FILE        write a Chrome trace_event JSON of "
        "phases and DRAM\n"
        "                      transactions (open in Perfetto / "
        "chrome://tracing)\n"
        "  --metrics-out FILE  dump every run counter as metrics-v1 "
        "JSON\n"
        "                      (compare runs with "
        "tools/metrics_diff)\n"
        "  --seed N            generator seed\n"
        "  --timeout-ms N      deadline of the run\n"
        "  --list              list applications and datasets\n");
}

void
listInventory()
{
    std::printf("applications:");
    for (const AppInfo &info : appInfos())
        std::printf(" %s", info.name.c_str());
    std::printf("\ndatasets:");
    for (const DatasetSpec &spec : datasetSpecs())
        std::printf(" %s(%s)", spec.name.c_str(),
                    matrixKindName(spec.kind));
    std::printf("\nbackends:");
    for (backend::BackendKind kind : backend::registeredBackends())
        std::printf(" %s", backend::backendName(kind));
    std::printf("\n");
}

CooMatrix
makeSynthetic(const std::string &spec, std::uint64_t seed)
{
    // kind:n:nnz_per_row
    auto p1 = spec.find(':');
    auto p2 = spec.find(':', p1 + 1);
    if (p1 == std::string::npos || p2 == std::string::npos)
        usageError("--synthetic wants kind:n:nnz_per_row");
    std::string kind = spec.substr(0, p1);
    Idx n = static_cast<Idx>(flagValue(parseI64Flag(
        "--synthetic (n)", spec.substr(p1 + 1, p2 - p1 - 1))));
    Idx per_row = static_cast<Idx>(flagValue(
        parseI64Flag("--synthetic (nnz_per_row)", spec.substr(p2 + 1))));
    if (n <= 0 || per_row <= 0)
        usageError("--synthetic wants positive n and nnz_per_row");
    Rng rng(seed);
    if (kind == "uniform")
        return generateUniform(n, n * per_row, rng);
    if (kind == "rmat")
        return generateRmat(n, n * per_row, rng);
    if (kind == "banded")
        return generateBanded(n, std::max<Idx>(4, n / 64),
                              static_cast<double>(per_row), rng);
    if (kind == "poisson")
        return generatePoisson2D(n);
    usageError("unknown synthetic kind '" + kind + "'");
}

Options
parse(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        // Accept both `--flag value` and `--flag=value`.
        std::string inline_value;
        bool has_inline = false;
        if (arg.rfind("--", 0) == 0) {
            const std::size_t eq = arg.find('=');
            if (eq != std::string::npos) {
                inline_value = arg.substr(eq + 1);
                arg = arg.substr(0, eq);
                has_inline = true;
            }
        }
        auto next = [&]() -> std::string {
            if (has_inline)
                return inline_value;
            if (i + 1 >= argc)
                usageError("flag " + arg + " wants a value");
            return argv[++i];
        };
        if (arg == "--app") opt.app = next();
        else if (arg == "--backend") opt.backend = next();
        else if (arg == "--dataset") opt.dataset = next();
        else if (arg == "--mtx") opt.mtx = next();
        else if (arg == "--synthetic") opt.synthetic = next();
        // Numeric run flags take the ranges an explore spec accepts
        // for the same settings (src/explore/spec.cc).
        else if (arg == "--iters")
            opt.iters = static_cast<Idx>(
                flagValue(parseI64Flag("--iters", next(), 0)));
        else if (arg == "--buffer-kb")
            opt.buffer_kb = static_cast<Idx>(flagValue(
                parseI64Flag("--buffer-kb", next(), 1, 1 << 20)));
        else if (arg == "--sub-tensor")
            opt.sub_tensor = static_cast<Idx>(flagValue(
                parseI64Flag("--sub-tensor", next(), 0, 1 << 30)));
        else if (arg == "--lanes") {
            opt.lanes = static_cast<Idx>(
                flagValue(parseI64Flag("--lanes", next())));
            if (opt.lanes < 0)
                usageError("--lanes wants a non-negative width");
        }
        else if (arg == "--band-threads") {
            opt.band_threads = static_cast<int>(flagValue(
                parseI64Flag("--band-threads", next())));
            if (opt.band_threads < 1)
                usageError("--band-threads wants a positive count");
        }
        else if (arg == "--bandwidth")
            opt.bandwidth = flagValue(
                parseF64Flag("--bandwidth", next(), 1e-3, 1e6));
        else if (arg == "--iso-cpu") opt.iso_cpu = true;
        else if (arg == "--no-eager") opt.eager = false;
        else if (arg == "--no-blocked") opt.blocked = false;
        else if (arg == "--reorder") opt.reorder = next();
        else if (arg == "--autotune") opt.autotune = true;
        else if (arg == "--timeline") opt.timeline = true;
        else if (arg == "--timeline-samples") {
            opt.timeline_samples = static_cast<Idx>(flagValue(
                parseI64Flag("--timeline-samples", next())));
            if (opt.timeline_samples < 1)
                usageError("--timeline-samples wants a positive "
                           "count");
        }
        else if (arg == "--trace") opt.trace_out = next();
        else if (arg == "--metrics-out") opt.metrics_out = next();
        else if (arg == "--seed")
            opt.seed = flagValue(parseU64Flag("--seed", next()));
        else if (arg == "--timeout-ms") {
            opt.timeout_ms =
                flagValue(parseI64Flag("--timeout-ms", next()));
            if (opt.timeout_ms < 0)
                usageError("--timeout-ms wants a non-negative "
                           "count");
        }
        else if (arg == "--list") {
            listInventory();
            std::exit(kExitOk);
        } else if (arg == "--help" || arg == "-h") {
            usage();
            std::exit(kExitOk);
        } else {
            usage();
            usageError("unknown flag '" + arg + "'");
        }
    }
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parse(argc, argv);

    // Ctrl-C stops the run cooperatively instead of killing the
    // process mid-write.
    std::signal(SIGINT, onSigint);

    // ---- reorder + request skeleton --------------------------------
    ReorderKind reorder = ReorderKind::Vanilla;
    if (opt.reorder == "none") reorder = ReorderKind::None;
    else if (opt.reorder == "vanilla") reorder = ReorderKind::Vanilla;
    else if (opt.reorder == "locality")
        reorder = ReorderKind::Locality;
    else
        usageError("unknown reorder '" + opt.reorder + "'");

    if (!findAppInfo(opt.app))
        usageError("unknown application '" + opt.app + "'");
    if (!opt.dataset.empty() && !findDatasetSpec(opt.dataset))
        usageError("unknown dataset '" + opt.dataset + "'");
    StatusOr<backend::BackendKind> backend_or =
        backend::backendFromName(opt.backend);
    if (!backend_or.ok())
        usageError(backend_or.status().toString());

    api::RunRequest req;
    req.app = opt.app;
    req.backend = *backend_or;
    req.iters = opt.iters;
    req.reorder = reorder;
    req.blocked = opt.blocked;
    req.seed = opt.seed;
    req.sp = opt.iso_cpu ? SparsepipeConfig::isoCpu()
                         : SparsepipeConfig::isoGpu();
    if (opt.buffer_kb > 0)
        req.sp.buffer_bytes = opt.buffer_kb * 1024;
    if (opt.bandwidth > 0.0)
        req.sp.dram.bandwidth_gb_s = opt.bandwidth;
    req.sp.eager_csr = opt.eager;
    req.sp.sub_tensor_cols = opt.sub_tensor;
    if (opt.timeline_samples > 0)
        req.sp.bw_timeline_samples = opt.timeline_samples;
    req.lanes = opt.lanes;
    req.band_threads = opt.band_threads;

    // ---- input matrix -> prepared case -----------------------------
    api::Session &session = api::Session::process();
    std::string source;
    const api::PreparedCase *pc = nullptr;
    api::PreparedCase external; // owns the mtx / synthetic case
    if (!opt.mtx.empty() || !opt.synthetic.empty()) {
        CooMatrix raw;
        if (!opt.mtx.empty()) {
            // A malformed or unreadable matrix file is the one fatal
            // left at top level: print the Status and exit 1.
            StatusOr<CooMatrix> read = readMatrixMarket(opt.mtx);
            if (!read.ok())
                sp_fatal("%s", read.status().toString().c_str());
            raw = std::move(read).value();
            source = opt.mtx;
        } else {
            raw = makeSynthetic(opt.synthetic, opt.seed);
            source = "synthetic " + opt.synthetic;
        }
        if (raw.rows() != raw.cols())
            sp_fatal("sparsepipe_cli: need a square operand");
        external = api::prepareCase(
            opt.app, api::reorderMatrix(std::move(raw), reorder));
        pc = &external;
    } else {
        req.dataset = opt.dataset.empty() ? "ca" : opt.dataset;
        source = "dataset " + req.dataset;
        pc = &session.prepared(req.app, req.dataset, reorder,
                               req.seed);
    }

    if (opt.autotune) {
        StatusOr<api::AutotuneResult> tuned_or =
            api::autotuneSubTensor(session, req, *pc);
        if (!tuned_or.ok()) {
            std::fprintf(stderr, "sparsepipe_cli: %s\n",
                         tuned_or.status().toString().c_str());
            return kExitRuntime;
        }
        const api::AutotuneResult &tuned = tuned_or.value();
        std::printf("autotune probes:");
        for (const api::TunePoint &p : tuned.probes)
            std::printf(" T=%lld:%llucyc",
                        static_cast<long long>(p.sub_tensor_cols),
                        static_cast<unsigned long long>(p.cycles));
        std::printf("\nautotune winner: T=%lld\n\n",
                    static_cast<long long>(tuned.best));
        req.sp.sub_tensor_cols = tuned.best;
    }

    // ---- run ---------------------------------------------------------
    obs::TraceSink trace(req.sp.dram.clock_ghz);
    if (!opt.trace_out.empty())
        req.trace = &trace;
    CancelToken run_token(&sigintToken());
    if (opt.timeout_ms > 0)
        run_token.setDeadlineAfterMs(opt.timeout_ms);
    req.cancel = &run_token;
    StatusOr<api::RunReport> report_or = session.run(req, *pc);
    if (!report_or.ok()) {
        std::fprintf(stderr, "sparsepipe_cli: %s\n",
                     report_or.status().toString().c_str());
        return kExitRuntime;
    }
    api::RunReport run_report = std::move(report_or).value();
    const SimStats &stats = run_report.stats;
    const SparsepipeConfig &cfg = req.sp;

    Analysis an = analyzeProgram(pc->app.program);
    AccelConfig accel;
    accel.bandwidth_gb_s = cfg.dram.bandwidth_gb_s;
    accel.pes = cfg.pe_per_core;
    BaselineStats ideal =
        idealAccelerator(an, pc->nnz, stats.iterations, accel);
    BaselineStats oracle =
        oracleAccelerator(an, pc->nnz, stats.iterations, accel);
    BaselineStats cpu = cpuModel(an, pc->nnz, stats.iterations);
    BaselineStats gpu = gpuModel(an, pc->nnz, stats.iterations);
    EnergyBreakdown energy = sparsepipeEnergy(stats);

    // ---- report ------------------------------------------------------
    std::printf("== sparsepipe run report ==\n");
    std::printf("app            : %s (%s semiring)\n",
                opt.app.c_str(), an.semiring.name());
    std::printf("operand        : %s, %lld x %lld, %lld nnz "
                "(prepared)\n",
                source.c_str(),
                static_cast<long long>(pc->csr.rows()),
                static_cast<long long>(pc->csr.cols()),
                static_cast<long long>(pc->nnz));
    std::printf("backend        : %s\n",
                run_report.backend.c_str());
    std::printf("schedule       : %s%s\n",
                scheduleModeName(stats.mode),
                stats.mode != ScheduleMode::Stream
                    ? " (OEI dataflow active)" : "");
    std::printf("iterations     : %lld%s\n",
                static_cast<long long>(stats.iterations),
                stats.converged ? " (converged)" : "");
    std::printf("cycles         : %llu (%.3f ms at %.1f GHz)\n",
                static_cast<unsigned long long>(stats.cycles),
                1e3 * stats.seconds(cfg.dram.clock_ghz),
                cfg.dram.clock_ghz);
    std::printf("bandwidth      : %.1f%% of %.0f GB/s\n",
                100.0 * stats.bw_utilization,
                cfg.dram.bandwidth_gb_s);
    if (stats.cycles > 0) {
        const obs::CycleAttribution &attr = stats.attribution;
        const double pct = 100.0 / static_cast<double>(stats.cycles);
        std::printf("cycle breakdown: compute %.1f%%, read stall "
                    "%.1f%%, write drain %.1f%%, swap wait %.1f%% "
                    "(%zu phases)\n",
                    pct * static_cast<double>(attr.compute),
                    pct * static_cast<double>(attr.dram_read_stall),
                    pct * static_cast<double>(attr.dram_write_drain),
                    pct * static_cast<double>(attr.buffer_swap_wait),
                    attr.phases.size());
    }
    std::printf("prefetcher     : %lld hit elems, %lld miss, %lld "
                "denied; %lld demand reloads, %lld hidden\n",
                static_cast<long long>(
                    stats.counters.prefetch_hit_elems),
                static_cast<long long>(
                    stats.counters.prefetch_miss_elems),
                static_cast<long long>(
                    stats.counters.prefetch_denied_elems),
                static_cast<long long>(
                    stats.counters.demand_reload_events),
                static_cast<long long>(
                    stats.counters.reload_ahead_events));
    std::printf("DRAM traffic   : %.2f MB (matrix %.2f, reload "
                "%.2f, prefetch %.2f, vector %.2f)\n",
                static_cast<double>(stats.dram_read_bytes +
                                    stats.dram_write_bytes) / 1e6,
                static_cast<double>(stats.matrix_demand_bytes) / 1e6,
                static_cast<double>(stats.reload_bytes) / 1e6,
                static_cast<double>(stats.prefetch_bytes) / 1e6,
                static_cast<double>(stats.vector_bytes) / 1e6);
    std::printf("buffer         : peak %lld elems, %lld evicted, "
                "%lld repacks\n",
                static_cast<long long>(stats.buffer.peak_elems),
                static_cast<long long>(stats.buffer.evicted_elems),
                static_cast<long long>(stats.buffer.repacks));
    std::printf("energy         : %.2f uJ (compute %.0f%%, memory "
                "%.0f%%, cache %.0f%%)\n",
                energy.total() / 1e6,
                100.0 * energy.compute_pj / energy.total(),
                100.0 * energy.memory_pj / energy.total(),
                100.0 * energy.cache_pj / energy.total());
    std::printf("vs ideal accel : %.2fx\n",
                ideal.seconds / stats.seconds());
    std::printf("vs oracle      : %.0f%% of its performance\n",
                100.0 * oracle.seconds / stats.seconds());
    std::printf("vs CPU model   : %.1fx\n",
                cpu.seconds / stats.seconds());
    std::printf("vs GPU model   : %.2fx\n",
                gpu.seconds / stats.seconds());

    if (opt.timeline) {
        std::printf("timeline (%%)  :");
        for (double u : stats.bw_timeline)
            std::printf(" %2.0f", 100.0 * u);
        std::printf("\n");
    }

    if (!opt.trace_out.empty()) {
        trace.writeFile(opt.trace_out);
        std::printf("trace          : wrote %zu events to %s\n",
                    trace.eventCount(), opt.trace_out.c_str());
    }
    if (!opt.metrics_out.empty()) {
        obs::MetricsRegistry reg;
        recordSimMetrics(reg, opt.app, stats);
        reg.writeFile(opt.metrics_out);
        std::printf("metrics        : wrote %zu counters to %s\n",
                    reg.size(), opt.metrics_out.c_str());
    }
    return kExitOk;
}
