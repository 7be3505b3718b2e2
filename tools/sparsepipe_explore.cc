/**
 * @file
 * Design-space exploration driver.
 *
 * Expands a declarative config-space spec (src/explore/spec.hh) and
 * either lists the expansion, sweeps it into a performance dataset on
 * the resumable batch runner, fits the cycle cost model from a
 * dataset, or tunes each (app, dataset) of the spec with optional
 * model-based probe pruning.
 *
 * Examples:
 *   sparsepipe_explore --spec space.spec --expand
 *   sparsepipe_explore --spec space.spec --out dataset.jsonl --jobs 8
 *   sparsepipe_explore --spec space.spec --out dataset.jsonl --resume
 *   sparsepipe_explore --fit dataset.jsonl --model-out model.json \
 *       --max-median-err 0.25
 *   sparsepipe_explore --fit dataset.jsonl --export-csv dataset.csv
 *   sparsepipe_explore --spec probe.spec --tune
 *   sparsepipe_explore --spec probe.spec --tune \
 *       --prune-model model.json --keep 0.4
 *
 * Exit codes follow the repo contract: 0 ok, 1 runtime error (bad
 * spec, failed sweep, fit error above --max-median-err), 2 usage.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "api/session.hh"
#include "explore/cost_model.hh"
#include "explore/dataset.hh"
#include "explore/driver.hh"
#include "explore/spec.hh"
#include "prep/features.hh"
#include "util/parse.hh"

using namespace sparsepipe;
using namespace sparsepipe::explore;

namespace {

/** Ctrl-C root; every sweep / probe token chains to it. */
CancelToken &
sigintToken()
{
    static CancelToken token;
    return token;
}

extern "C" void
onSigint(int)
{
    sigintToken().cancel();
}

struct Options
{
    std::string spec;
    std::string out;
    std::string journal;
    bool resume = false;
    bool expand = false;
    std::string fit;
    std::string model_out;
    double max_median_err = 0.0; // 0 = no gate
    std::string export_csv;
    bool tune = false;
    std::string prune_model;
    double keep = 0.4;
    int jobs = 0;
    long long timeout_ms = 0;
};

[[noreturn]] void
usageError(const std::string &message)
{
    std::fprintf(stderr, "sparsepipe_explore: %s (try --help)\n",
                 message.c_str());
    std::exit(kExitUsage);
}

template <typename T>
T
flagValue(StatusOr<T> parsed)
{
    if (!parsed.ok())
        usageError(parsed.status().toString());
    return std::move(parsed).value();
}

void
printUsage()
{
    std::printf(
        "usage: sparsepipe_explore MODE [options]\n"
        "\n"
        "modes (exactly one):\n"
        "  --spec F --expand          list the expanded job keys\n"
        "  --spec F --out D.jsonl     sweep the space into a dataset\n"
        "  --fit D.jsonl              fit the cycle cost model\n"
        "  --spec F --tune            probe the space, report the "
        "best config\n"
        "                             of each (app, dataset)\n"
        "\n"
        "sweep options:\n"
        "  --journal PATH    completion journal (default: OUT"
        ".journal)\n"
        "  --resume          skip jobs whose dataset row exists\n"
        "  --jobs N          worker threads (default: hardware)\n"
        "  --timeout-ms N    per-job deadline\n"
        "\n"
        "fit options:\n"
        "  --model-out PATH        write the fitted model JSON\n"
        "  --max-median-err E      fail (exit 1) when the held-out\n"
        "                          median relative error exceeds E\n"
        "  --export-csv PATH       also flatten the dataset to CSV\n"
        "\n"
        "tune options:\n"
        "  --prune-model PATH  rank each (app, dataset)'s candidates "
        "with a fitted\n"
        "                      model and probe only the best "
        "fraction\n"
        "  --keep F            fraction probed under --prune-model "
        "(default 0.4)\n");
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    std::vector<std::string> args(argv + 1, argv + argc);
    for (std::size_t i = 0; i < args.size(); ++i) {
        std::string flag = args[i];
        std::string value;
        const std::size_t eq = flag.find('=');
        bool has_value = false;
        if (eq != std::string::npos) {
            value = flag.substr(eq + 1);
            flag.resize(eq);
            has_value = true;
        }
        auto need = [&]() -> std::string {
            if (has_value)
                return value;
            if (i + 1 >= args.size())
                usageError("flag " + flag + " wants a value");
            return args[++i];
        };
        if (flag == "--help" || flag == "-h") {
            printUsage();
            std::exit(kExitOk);
        } else if (flag == "--spec") {
            opt.spec = need();
        } else if (flag == "--out") {
            opt.out = need();
        } else if (flag == "--journal") {
            opt.journal = need();
        } else if (flag == "--resume") {
            opt.resume = true;
        } else if (flag == "--expand") {
            opt.expand = true;
        } else if (flag == "--fit") {
            opt.fit = need();
        } else if (flag == "--model-out") {
            opt.model_out = need();
        } else if (flag == "--max-median-err") {
            opt.max_median_err =
                flagValue(parseF64Flag("--max-median-err", need()));
        } else if (flag == "--export-csv") {
            opt.export_csv = need();
        } else if (flag == "--tune") {
            opt.tune = true;
        } else if (flag == "--prune-model") {
            opt.prune_model = need();
        } else if (flag == "--keep") {
            opt.keep = flagValue(parseF64Flag("--keep", need()));
        } else if (flag == "--jobs") {
            opt.jobs = static_cast<int>(
                flagValue(parseI64Flag("--jobs", need())));
            if (opt.jobs < 1)
                usageError("--jobs wants a positive count");
        } else if (flag == "--timeout-ms") {
            opt.timeout_ms =
                flagValue(parseI64Flag("--timeout-ms", need()));
            if (opt.timeout_ms < 0)
                usageError("--timeout-ms wants a non-negative count");
        } else {
            usageError("unknown flag '" + flag + "'");
        }
    }

    const int modes = (opt.expand ? 1 : 0) +
                      (!opt.out.empty() ? 1 : 0) +
                      (!opt.fit.empty() ? 1 : 0) +
                      (opt.tune ? 1 : 0);
    if (modes != 1)
        usageError(
            "pick exactly one of --expand, --out, --fit, --tune");
    if ((opt.expand || !opt.out.empty() || opt.tune) &&
        opt.spec.empty())
        usageError("this mode wants --spec");
    if (opt.keep <= 0.0 || opt.keep > 1.0)
        usageError("--keep wants a fraction in (0, 1]");
    return opt;
}

int
runExpand(const ExploreSpec &spec)
{
    const std::vector<ExploreJob> jobs = expandSpec(spec);
    for (const ExploreJob &job : jobs)
        std::printf("%s %s\n", jobHash(job).c_str(),
                    jobKey(job).c_str());
    std::fprintf(stderr, "space %s: %zu jobs\n", spec.name.c_str(),
                 jobs.size());
    return kExitOk;
}

int
runSweepMode(const ExploreSpec &spec, const Options &opt)
{
    SweepOptions sweep;
    sweep.dataset_path = opt.out;
    sweep.journal_path = opt.journal;
    sweep.resume = opt.resume;
    sweep.jobs = opt.jobs;
    sweep.timeout_ms = opt.timeout_ms;
    sweep.cancel = &sigintToken();
    StatusOr<SweepSummary> summary = runSweep(spec, sweep);
    if (!summary.ok()) {
        std::fprintf(stderr, "sparsepipe_explore: %s\n",
                     summary.status().toString().c_str());
        return kExitRuntime;
    }
    const SweepSummary &s = summary.value();
    std::printf("sweep space=%s total=%zu skipped=%zu ran=%zu "
                "failed=%zu rows_appended=%zu journal_repaired=%zu\n",
                spec.name.c_str(), s.total_jobs, s.skipped, s.ran,
                s.failed, s.rows_appended, s.journal_repaired);
    return s.failed == 0 ? kExitOk : kExitRuntime;
}

int
runFit(const Options &opt)
{
    StatusOr<std::vector<DatasetRow>> rows = readDataset(opt.fit);
    if (!rows.ok()) {
        std::fprintf(stderr, "sparsepipe_explore: %s\n",
                     rows.status().toString().c_str());
        return kExitRuntime;
    }
    if (!opt.export_csv.empty()) {
        if (Status status =
                exportCsv(rows.value(), opt.export_csv);
            !status.ok()) {
            std::fprintf(stderr, "sparsepipe_explore: %s\n",
                         status.toString().c_str());
            return kExitRuntime;
        }
        std::printf("csv %s rows=%zu\n", opt.export_csv.c_str(),
                    rows.value().size());
        // CSV-only invocations need no fit.
        if (opt.model_out.empty() && opt.max_median_err == 0.0)
            return kExitOk;
    }
    StatusOr<CostModel> model = fitCostModel(rows.value());
    if (!model.ok()) {
        std::fprintf(stderr, "sparsepipe_explore: %s\n",
                     model.status().toString().c_str());
        return kExitRuntime;
    }
    const CostModel &m = model.value();
    std::printf("fit rows=%zu train=%zu holdout=%zu "
                "median_rel_err_train=%.4f "
                "median_rel_err_holdout=%.4f\n",
                rows.value().size(), m.rows_train, m.rows_holdout,
                m.median_rel_err_train, m.median_rel_err_holdout);
    if (!opt.model_out.empty()) {
        if (Status status = writeModel(m, opt.model_out);
            !status.ok()) {
            std::fprintf(stderr, "sparsepipe_explore: %s\n",
                         status.toString().c_str());
            return kExitRuntime;
        }
    }
    if (opt.max_median_err > 0.0 &&
        m.median_rel_err_holdout > opt.max_median_err) {
        std::fprintf(stderr,
                     "sparsepipe_explore: held-out median relative "
                     "error %.4f exceeds the %.4f gate\n",
                     m.median_rel_err_holdout, opt.max_median_err);
        return kExitRuntime;
    }
    return kExitOk;
}

int
runTune(const ExploreSpec &spec, const Options &opt)
{
    const std::vector<ExploreJob> jobs = expandSpec(spec);
    if (jobs.empty()) {
        std::fprintf(stderr,
                     "sparsepipe_explore: the spec expands to no "
                     "candidates\n");
        return kExitRuntime;
    }
    std::optional<CostModel> model;
    if (!opt.prune_model.empty()) {
        StatusOr<CostModel> read = readModel(opt.prune_model);
        if (!read.ok()) {
            std::fprintf(stderr, "sparsepipe_explore: %s\n",
                         read.status().toString().c_str());
            return kExitRuntime;
        }
        model = std::move(read).value();
    }

    // Cycle counts rank the configurations of one workload, not
    // workloads: the candidates group by (app, dataset), in
    // expansion order.
    std::vector<std::vector<const ExploreJob *>> groups;
    std::map<std::pair<std::string, std::string>, std::size_t> group_of;
    for (const ExploreJob &job : jobs) {
        const auto [it, fresh] =
            group_of.emplace(std::make_pair(job.app, job.dataset),
                             groups.size());
        if (fresh)
            groups.emplace_back();
        groups[it->second].push_back(&job);
    }

    api::Session &session = api::Session::process();
    // Features per distinct operand, shared across candidates.
    std::map<std::string, MatrixFeatures> feature_cache;
    auto featuresFor = [&](const ExploreJob &job) {
        api::RunRequest req = requestFor(job);
        const std::string key = job.app + "/" + job.dataset + "/" +
                                std::to_string(static_cast<int>(
                                    req.reorder)) +
                                "/" + std::to_string(req.seed);
        auto it = feature_cache.find(key);
        if (it == feature_cache.end())
            it = feature_cache
                     .emplace(key,
                              computeMatrixFeatures(
                                  session
                                      .preparedShared(req.app,
                                                      req.dataset,
                                                      req.reorder,
                                                      req.seed)
                                      ->csr))
                     .first;
        return it->second;
    };

    int exit_code = kExitOk;
    for (const std::vector<const ExploreJob *> &group : groups) {
        std::vector<std::size_t> probe(group.size());
        for (std::size_t i = 0; i < group.size(); ++i)
            probe[i] = i;
        if (model) {
            std::vector<DatasetRow> candidates;
            candidates.reserve(group.size());
            for (const ExploreJob *job : group)
                candidates.push_back(
                    makeRow(*job, featuresFor(*job), api::RunReport{}));
            probe = pruneProbeSet(*model, candidates, opt.keep);
        }

        double best_cycles = 0.0;
        const ExploreJob *best = nullptr;
        std::size_t probed = 0;
        for (std::size_t index : probe) {
            const ExploreJob &job = *group[index];
            CancelToken token(&sigintToken());
            if (opt.timeout_ms > 0)
                token.setDeadlineAfterMs(opt.timeout_ms);
            api::RunRequest req = requestFor(job);
            req.cancel = &token;
            StatusOr<api::RunReport> report = session.run(req);
            if (!report.ok()) {
                if (report.status().code() == StatusCode::Cancelled) {
                    std::fprintf(stderr,
                                 "sparsepipe_explore: tune cancelled\n");
                    return kExitRuntime;
                }
                std::fprintf(stderr,
                             "sparsepipe_explore: probe %s: %s\n",
                             jobHash(job).c_str(),
                             report.status().toString().c_str());
                continue;
            }
            ++probed;
            const double cycles =
                static_cast<double>(report.value().stats.cycles);
            if (!best || cycles < best_cycles) {
                best_cycles = cycles;
                best = &job;
            }
        }
        const ExploreJob &first = *group.front();
        if (!best) {
            std::fprintf(stderr,
                         "sparsepipe_explore: no candidate of app=%s "
                         "dataset=%s completed\n",
                         first.app.c_str(), first.dataset.c_str());
            exit_code = kExitRuntime;
            continue;
        }
        std::printf("tune space=%s app=%s dataset=%s candidates=%zu "
                    "probed=%zu best_hash=%s best_cycles=%.0f\n",
                    spec.name.c_str(), first.app.c_str(),
                    first.dataset.c_str(), group.size(), probed,
                    jobHash(*best).c_str(), best_cycles);
        std::printf("best %s\n", jobKey(*best).c_str());
    }
    return exit_code;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);
    std::signal(SIGINT, onSigint);

    if (!opt.fit.empty())
        return runFit(opt);

    StatusOr<ExploreSpec> spec = readExploreSpec(opt.spec);
    if (!spec.ok()) {
        std::fprintf(stderr, "sparsepipe_explore: %s\n",
                     spec.status().toString().c_str());
        return kExitRuntime;
    }
    if (opt.expand)
        return runExpand(spec.value());
    if (opt.tune)
        return runTune(spec.value(), opt);
    return runSweepMode(spec.value(), opt);
}
