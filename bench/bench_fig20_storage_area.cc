/**
 * @file
 * Reproduces Figure 20:
 *  (a) storage footprint of the blocked dual sparse format relative
 *      to the naive dual storage (paper: 39.2% on average, with or
 *      without row reordering);
 *  (b) relative performance-per-area versus CPU and GPU (paper:
 *      9.84x and 5.38x), combining the measured speedups with the
 *      Section VI-G area figures.
 */

#include <cstdio>

#include "energy/energy_model.hh"
#include "harness.hh"
#include "prep/blocked.hh"
#include "util/stats.hh"

using namespace sparsepipe;
using namespace sparsepipe::bench;

int
main(int argc, char **argv)
{
    BenchArgs args = parseBenchArgs(argc, argv);
    printHeader("Figure 20a: blocked dual-storage footprint",
                "paper: blocked format shrinks dual storage to "
                "39.2% of unblocked");

    TextTable table;
    table.addRow({"matrix", "dual (KB)", "blocked (KB)", "ratio %",
                  "blocked+reorder %", "bytes/nnz"});
    std::vector<double> ratios;
    for (const std::string &name : allDatasets()) {
        const CsrMatrix &plain =
            preparedDataset(name, ReorderKind::None);
        const CsrMatrix &reord =
            preparedDataset(name, ReorderKind::Vanilla);

        Idx dual = dualStorageBytes(plain.nnz(), plain.rows(),
                                    plain.cols());
        BlockedLayout blk = buildBlockedLayout(plain).value();
        BlockedLayout blk_r = buildBlockedLayout(reord).value();
        double ratio = 100.0 * static_cast<double>(blk.totalBytes()) /
                       static_cast<double>(dual);
        double ratio_r =
            100.0 * static_cast<double>(blk_r.totalBytes()) /
            static_cast<double>(dual);
        ratios.push_back(ratio);
        table.addRow({name, std::to_string(dual / 1024),
                      std::to_string(blk.totalBytes() / 1024),
                      TextTable::num(ratio, 1),
                      TextTable::num(ratio_r, 1),
                      TextTable::num(blk.bytesPerNonzero(), 2)});
    }
    table.print();
    std::printf("\nmean blocked/dual ratio: %.1f%% (paper: "
                "39.2%%)\n", mean(ratios));

    // ---- (b) perf per area -----------------------------------------
    printHeader("Figure 20b: relative performance-per-area "
                "(normalized to each comparison system)",
                "paper: 5.38x vs GPU, 9.84x vs CPU");

    RunConfig cfg;
    applyArgOverrides(args, cfg);
    std::vector<double> vs_cpu, vs_gpu;
    for (const std::string &app : allApps()) {
        for (const std::string &dataset : allDatasets()) {
            CaseResult r = runCase(app, dataset, cfg);
            vs_cpu.push_back(r.speedupVsCpu());
            if (app == "bfs" || app == "kcore" || app == "pr" ||
                app == "sssp")
                vs_gpu.push_back(r.speedupVsGpu());
        }
    }
    AreaModel area;
    double cpu_speedup = geomean(vs_cpu);
    double gpu_speedup = geomean(vs_gpu);

    TextTable t2;
    t2.addRow({"system", "area (mm2)", "speedup", "perf/area vs it"});
    t2.addRow({"Sparsepipe", TextTable::num(area.sparsepipe_mm2, 2),
               "1.00", "-"});
    t2.addRow({"RTX 4070", TextTable::num(area.gpu_mm2, 0),
               TextTable::num(gpu_speedup, 2),
               TextTable::num(
                   area.perfPerAreaVs(gpu_speedup, area.gpu_mm2), 2)});
    t2.addRow({"5800X3D", TextTable::num(area.cpu_mm2, 0),
               TextTable::num(cpu_speedup, 2),
               TextTable::num(
                   area.perfPerAreaVs(cpu_speedup, area.cpu_mm2), 2)});
    t2.print();
    std::printf("\non-chip buffer share of Sparsepipe area: %.0f%%"
                " (paper: 78%%)\n", 100.0 * area.buffer_fraction);
    return 0;
}
