/**
 * @file
 * perfbench_workload: run one benchmark workload once in this process
 * and print what it measured as one JSON line.  run.py starts it.
 *
 *   perfbench_workload --workload grid_cold|sweep_warm|serve_closed
 *                      --seed N --out-dir DIR [--jobs N] [--trace]
 *                      [--spawn-ns NS]
 *
 * Exit codes: 0 = the workload ran (its checks are in the JSON),
 * 2 = bad arguments.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "util/parse.hh"
#include "util/status.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const std::string &message)
{
    std::fprintf(stderr,
                 "%s\nusage: perfbench_workload --workload "
                 "grid_cold|sweep_warm|serve_closed --seed N --out-dir DIR "
                 "[--jobs N] [--trace] [--spawn-ns NS]\n",
                 message.c_str());
    std::exit(sparsepipe::kExitUsage);
}

long long
integerFlag(const char *flag, const std::string &text)
{
    sparsepipe::StatusOr<long long> value =
        sparsepipe::parseI64Flag(flag, text);
    if (!value.ok())
        usage(value.status().toString());
    return *value;
}

} // namespace

int
main(int argc, char **argv)
{
    WorkloadOptions opts;
    opts.spawn_ns = nowNs();
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("flag " + arg + " wants a value");
            return argv[++i];
        };
        if (arg == "--workload") {
            opts.workload = value();
        } else if (arg == "--seed") {
            sparsepipe::StatusOr<unsigned long long> seed =
                sparsepipe::parseU64Flag("--seed", value());
            if (!seed.ok())
                usage(seed.status().toString());
            opts.seed = *seed;
            have_seed = true;
        } else if (arg == "--jobs") {
            opts.jobs = static_cast<int>(integerFlag("--jobs", value()));
        } else if (arg == "--trace") {
            opts.traced = true;
        } else if (arg == "--spawn-ns") {
            opts.spawn_ns = integerFlag("--spawn-ns", value());
        } else if (arg == "--out-dir") {
            opts.out_dir = value();
        } else {
            usage("unknown flag '" + arg + "'");
        }
    }
    if (!have_seed || opts.out_dir.empty())
        usage("--seed and --out-dir are required");

    WorkloadResult result;
    if (opts.workload == "grid_cold")
        result = runGridCold(opts);
    else if (opts.workload == "sweep_warm")
        result = runSweepWarm(opts);
    else if (opts.workload == "serve_closed")
        result = runServeClosed(opts);
    else
        usage("unknown workload '" + opts.workload + "'");

    std::printf("%s\n", toJsonLine(opts, result).c_str());
    return 0;
}
