/**
 * @file
 * Ablation: sub-tensor size and the pipeline lag.
 *
 * Small sub-tensors waste cycles on per-step control; large ones
 * coarsen the IS unlock granularity and bloat the residency window
 * (each band must wait `lag` steps).  The autotuner (Section IV-F's
 * "explore the optimal sub-tensor size in the initial steps") should
 * land at or near the sweep's minimum.
 */

#include <cstdio>

#include "core/autotune.hh"
#include "harness.hh"
#include "util/stats.hh"

using namespace sparsepipe;
using namespace sparsepipe::bench;

int
main(int argc, char **argv)
{
    BenchArgs args = parseBenchArgs(argc, argv);
    printHeader("Ablation: sub-tensor width sweep + autotuner "
                "(PageRank)",
                "cycles per matrix; 'auto' = static heuristic, "
                "'tuned' = pilot-run explorer");

    const std::vector<std::string> sets = {"ca", "co", "wi", "eu"};
    const std::vector<Idx> widths = {16, 64, 256, 1024, 4096};

    TextTable table;
    std::vector<std::string> header = {"T"};
    for (const std::string &d : sets)
        header.push_back(d);
    table.addRow(header);

    for (Idx t : widths) {
        std::vector<std::string> row = {std::to_string(t)};
        for (const std::string &dataset : sets) {
            RunConfig cfg;
            applyArgOverrides(args, cfg);
            cfg.sp.sub_tensor_cols = t;
            CaseResult r = runCase("pr", dataset, cfg);
            row.push_back(std::to_string(r.sp.cycles));
        }
        table.addRow(row);
    }
    {
        std::vector<std::string> row = {"auto"};
        for (const std::string &dataset : sets) {
            RunConfig cfg;
            applyArgOverrides(args, cfg);
            CaseResult r = runCase("pr", dataset, cfg);
            row.push_back(std::to_string(r.sp.cycles));
        }
        table.addRow(row);
    }
    {
        std::vector<std::string> row = {"tuned"};
        for (const std::string &dataset : sets) {
            RunConfig cfg;
            applyArgOverrides(args, cfg);
            const api::PreparedCase &pc = api::Session::process().prepared(
                "pr", dataset, cfg.reorder, cfg.seed);
            AutotuneResult tuned =
                autotuneSubTensor(pc.app, pc.csr, pc.csc, cfg.sp);
            cfg.sp.sub_tensor_cols = tuned.best;
            CaseResult r = runCase("pr", dataset, cfg);
            row.push_back(std::to_string(r.sp.cycles) + " (T=" +
                          std::to_string(tuned.best) + ")");
        }
        table.addRow(row);
    }
    table.print();

    // ---- pipeline lag -----------------------------------------------
    printHeader("Ablation: pipeline lag (steps between OS and IS)",
                "cycles for pr; deeper lag widens the residency "
                "window");
    TextTable t2;
    std::vector<std::string> header2 = {"lag"};
    for (const std::string &d : sets)
        header2.push_back(d);
    t2.addRow(header2);
    for (Idx lag : {1, 2, 4, 8}) {
        std::vector<std::string> row = {std::to_string(lag)};
        for (const std::string &dataset : sets) {
            RunConfig cfg;
            applyArgOverrides(args, cfg);
            cfg.sp.lag = lag;
            CaseResult r = runCase("pr", dataset, cfg);
            row.push_back(std::to_string(r.sp.cycles));
        }
        t2.addRow(row);
    }
    t2.print();
    return 0;
}
