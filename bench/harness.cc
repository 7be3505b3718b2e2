#include "harness.hh"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "runner/scheduler.hh"
#include "runner/thread_pool.hh"
#include "util/logging.hh"
#include "util/parse.hh"
#include "util/stats.hh"

namespace sparsepipe::bench {

const CooMatrix &
rawDataset(const std::string &name, std::uint64_t seed)
{
    return api::Session::process().raw(name, seed);
}

const CsrMatrix &
preparedDataset(const std::string &name, ReorderKind reorder,
                std::uint64_t seed)
{
    return api::Session::process().reordered(name, reorder, seed).csr;
}

StatusOr<CaseResult>
runCaseOr(const std::string &app_name, const std::string &dataset,
          const RunConfig &config, const CancelToken *cancel)
{
    // Pre-validate names: the cache builders behind
    // Session::prepared() use the fatal registry lookups.
    if (!findAppInfo(app_name))
        return invalidInput("unknown application '%s'",
                            app_name.c_str());
    if (!findDatasetSpec(dataset))
        return invalidInput("unknown dataset '%s'", dataset.c_str());
    try {
        CaseResult result;
        result.app = app_name;
        result.dataset = dataset;

        api::Session &session = api::Session::process();
        const api::PreparedCase &pc = session.prepared(
            app_name, dataset, config.reorder, config.seed);

        api::RunRequest req;
        req.app = app_name;
        req.dataset = dataset;
        req.backend = config.backend;
        req.sp = config.sp;
        req.iters = config.iters;
        req.reorder = config.reorder;
        req.blocked = config.blocked;
        req.seed = config.seed;
        req.cancel = cancel;
        StatusOr<api::RunReport> report = session.run(req, pc);
        if (!report.ok()) {
            Status status = report.status();
            return std::move(status).withContext(app_name + " on " +
                                                 dataset);
        }
        result.nnz = report->nnz;
        result.host_ms = report->host_ms;
        result.sp = std::move(report->stats);

        // Baselines are charged for the iterations the simulated run
        // actually executed (apps with convergence conditions stop
        // early on some matrices).
        const Idx iters = result.sp.iterations;
        Analysis an = analyzeProgram(pc.app.program);
        AccelConfig accel;
        accel.bandwidth_gb_s = config.sp.dram.bandwidth_gb_s;
        accel.pes = config.sp.pe_per_core;
        result.ideal = idealAccelerator(an, result.nnz, iters, accel);
        AccelConfig strict = accel;
        strict.fused_ewise = false;
        result.ideal_strict =
            idealAccelerator(an, result.nnz, iters, strict);
        result.oracle =
            oracleAccelerator(an, result.nnz, iters, accel);
        result.cpu = cpuModel(an, result.nnz, iters);
        result.gpu = gpuModel(an, result.nnz, iters);
        return result;
    } catch (...) {
        return statusFromCurrentException();
    }
}

CaseResult
runCase(const std::string &app_name, const std::string &dataset,
        const RunConfig &config)
{
    // value() panics with the status if the trusted spec failed.
    return runCaseOr(app_name, dataset, config).value();
}

std::vector<CaseSpec>
sweepGrid(const std::vector<std::string> &apps,
          const std::vector<std::string> &datasets,
          const RunConfig &config)
{
    std::vector<CaseSpec> specs;
    specs.reserve(apps.size() * datasets.size());
    for (const std::string &app : apps)
        for (const std::string &dataset : datasets)
            specs.push_back({app, dataset, config, ""});
    return specs;
}

std::vector<CaseResult>
runSweep(const std::vector<CaseSpec> &specs, int jobs)
{
    runner::ThreadPool pool(jobs);
    return runner::parallelIndexed(
        pool, specs.size(),
        [&specs](std::size_t i) {
            const CaseSpec &spec = specs[i];
            return runCase(spec.app, spec.dataset, spec.config);
        },
        [&specs](std::size_t i) {
            const CaseSpec &spec = specs[i];
            return spec.label.empty()
                       ? spec.app + "-" + spec.dataset
                       : spec.label;
        });
}

namespace {

/** Bad bench flags exit with the usage code, not a fatal(). */
[[noreturn]] void
benchUsageError(const std::string &message)
{
    std::fprintf(stderr, "%s (try --help)\n", message.c_str());
    std::exit(kExitUsage);
}

} // anonymous namespace

BenchArgs
parseBenchArgs(int argc, char **argv)
{
    BenchArgs args;
    args.jobs = runner::ThreadPool::defaultJobs();
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
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
        auto value = [&](const char *flag) -> std::string {
            if (has_inline)
                return inline_value;
            if (i + 1 >= argc)
                benchUsageError(std::string("flag ") + flag +
                                " wants a value");
            return argv[++i];
        };
        if (arg == "--jobs" || arg == "-j") {
            StatusOr<long long> jobs =
                parseI64Flag("--jobs", value("--jobs"));
            if (!jobs.ok())
                benchUsageError(jobs.status().toString());
            args.jobs = static_cast<int>(*jobs);
            if (args.jobs < 1)
                benchUsageError("--jobs wants a positive count");
        } else if (arg == "--metrics-out") {
            args.metrics_out = value("--metrics-out");
            if (args.metrics_out.empty())
                benchUsageError("--metrics-out wants a file path");
        } else if (arg == "--lanes") {
            StatusOr<long long> lanes =
                parseI64Flag("--lanes", value("--lanes"));
            if (!lanes.ok())
                benchUsageError(lanes.status().toString());
            args.lanes = static_cast<Idx>(*lanes);
            if (args.lanes < 0)
                benchUsageError("--lanes wants a non-negative width");
        } else if (arg == "--band-threads") {
            StatusOr<long long> bt = parseI64Flag(
                "--band-threads", value("--band-threads"));
            if (!bt.ok())
                benchUsageError(bt.status().toString());
            args.band_threads = static_cast<int>(*bt);
            if (args.band_threads < 1)
                benchUsageError(
                    "--band-threads wants a positive count");
        } else if (arg == "--backend") {
            StatusOr<backend::BackendKind> kind =
                backend::backendFromName(value("--backend"));
            if (!kind.ok())
                benchUsageError(kind.status().toString());
            args.backend = *kind;
        } else if (arg == "--help" || arg == "-h") {
            std::printf(
                "usage: %s [--jobs N] [--metrics-out FILE] "
                "[--lanes N] [--band-threads N] [--backend NAME]\n"
                "  --jobs N           worker threads for the sweep "
                "(default: SPARSEPIPE_JOBS env,\n"
                "                     else hardware concurrency); "
                "output is identical for any N\n"
                "  --metrics-out FILE dump every counter as a "
                "metrics-v1 JSON file\n"
                "                     (compare runs with "
                "tools/metrics_diff)\n"
                "  --lanes N          packed-SIMD lane width (0 = "
                "preferred, 4; 1 = scalar\n"
                "                     element path; output is "
                "bit-identical for any width)\n"
                "  --band-threads N   band threads per simulation "
                "(bit-identical; default 1)\n"
                "  --backend NAME     cycle-level engine (registered: "
                "%s)\n",
                argv[0], backend::registeredBackendList().c_str());
            std::exit(0);
        } else {
            benchUsageError("unknown bench flag '" + arg + "'");
        }
    }
    return args;
}

void
applyArgOverrides(const BenchArgs &args, RunConfig &cfg)
{
    if (args.lanes >= 0)
        cfg.sp.lanes = args.lanes;
    if (args.band_threads >= 1)
        cfg.sp.band_threads = args.band_threads;
    if (args.backend)
        cfg.backend = *args.backend;
}

void
recordCaseMetrics(obs::MetricsRegistry &reg, const CaseResult &r)
{
    const std::string prefix = r.app + "." + r.dataset;
    recordSimMetrics(reg, prefix, r.sp);
    reg.set(prefix + ".nnz", static_cast<double>(r.nnz));
    reg.set(prefix + ".ideal_seconds", r.ideal.seconds);
    reg.set(prefix + ".oracle_seconds", r.oracle.seconds);
    reg.set(prefix + ".cpu_seconds", r.cpu.seconds);
    reg.set(prefix + ".gpu_seconds", r.gpu.seconds);
    reg.set(prefix + ".speedup_vs_ideal", r.speedupVsIdeal());
}

void
writeMetrics(const BenchArgs &args, const obs::MetricsRegistry &reg)
{
    if (args.metrics_out.empty())
        return;
    reg.writeFile(args.metrics_out);
    std::printf("\nwrote %zu metrics-v1 counters to %s\n", reg.size(),
                args.metrics_out.c_str());
}

std::vector<std::string>
allDatasets()
{
    std::vector<std::string> names;
    for (const DatasetSpec &spec : datasetSpecs())
        names.push_back(spec.name);
    return names;
}

std::vector<std::string>
allApps()
{
    std::vector<std::string> names;
    for (const AppInfo &info : appInfos())
        names.push_back(info.name);
    return names;
}

std::string
sparkline(const std::vector<double> &series)
{
    static const char *levels[] = {" ", ".", ":", "-", "=", "+",
                                   "*", "#"};
    std::string out;
    for (double v : series) {
        int idx = static_cast<int>(v * 7.999);
        idx = std::max(0, std::min(7, idx));
        out += levels[idx];
    }
    return out;
}

void
printHeader(const std::string &title, const std::string &paper)
{
    std::printf("\n==============================================="
                "=================\n");
    std::printf("%s\n", title.c_str());
    std::printf("paper reference: %s\n", paper.c_str());
    std::printf("================================================"
                "================\n");
}

} // namespace sparsepipe::bench
