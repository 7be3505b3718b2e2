/**
 * @file
 * Tests of the baseline performance models and the energy / area
 * models: ordering relations the paper's evaluation depends on
 * (oracle <= sparsepipe-equivalent traffic <= ideal), cache-capture
 * behaviour, and energy accounting.
 */

#include <gtest/gtest.h>

#include "apps/apps.hh"
#include "baseline/models.hh"
#include "core/sparsepipe_sim.hh"
#include "energy/energy_model.hh"
#include "test_helpers.hh"

namespace sparsepipe {
namespace {

Analysis
appAnalysis(const std::string &name, Idx n = 64)
{
    AppInstance app = makeApp(name, n);
    return analyzeProgram(app.program);
}

TEST(Baselines, OracleNeverSlowerThanIdeal)
{
    for (const AppInfo &info : appInfos()) {
        Analysis an = appAnalysis(info.name);
        BaselineStats ideal = idealAccelerator(an, 5000, 16);
        BaselineStats oracle = oracleAccelerator(an, 5000, 16);
        EXPECT_LE(oracle.seconds, ideal.seconds * (1.0 + 1e-9))
            << info.name;
        EXPECT_LE(oracle.dram_bytes, ideal.dram_bytes) << info.name;
    }
}

TEST(Baselines, IdealScalesLinearlyWithIterations)
{
    Analysis an = appAnalysis("pr");
    BaselineStats a = idealAccelerator(an, 5000, 10);
    BaselineStats b = idealAccelerator(an, 5000, 20);
    EXPECT_NEAR(b.seconds / a.seconds, 2.0, 1e-9);
}

TEST(Baselines, OracleMatrixBytesIndependentOfIterations)
{
    Analysis an = appAnalysis("pr");
    BaselineStats a = oracleAccelerator(an, 5000, 10);
    BaselineStats b = oracleAccelerator(an, 5000, 40);
    EXPECT_DOUBLE_EQ(a.matrix_bytes, b.matrix_bytes);
    EXPECT_GT(b.vector_bytes, a.vector_bytes);
}

TEST(Baselines, CpuCacheCapturesSmallMatrices)
{
    Analysis an = appAnalysis("pr");
    CpuConfig cfg;
    cfg.cache_bytes = 1e6;
    // Fits: matrix re-reads mostly hit.
    BaselineStats small = cpuModel(an, 5'000, 20, cfg);
    // 10x the cache: re-read every iteration.
    BaselineStats large = cpuModel(an, 1'000'000, 20, cfg);
    double small_per_nz = small.matrix_bytes / 5e3;
    double large_per_nz = large.matrix_bytes / 1e6;
    EXPECT_LT(small_per_nz, 0.2 * large_per_nz);
}

TEST(Baselines, GpuOverheadHurtsSmallProblems)
{
    Analysis an = appAnalysis("bfs");
    GpuConfig cfg;
    BaselineStats tiny = gpuModel(an, 100, 10, cfg);
    // Overhead floor: 10 iterations x ops x 1.5us dominates.
    EXPECT_GT(tiny.seconds, 10 * cfg.kernel_overhead_s);
    EXPECT_LT(tiny.bw_utilization, 0.2);
}

TEST(Baselines, UtilizationBounded)
{
    for (const AppInfo &info : appInfos()) {
        Analysis an = appAnalysis(info.name);
        for (Idx nnz : {1000, 100000}) {
            EXPECT_LE(idealAccelerator(an, nnz, 8).bw_utilization,
                      1.0 + 1e-9);
            EXPECT_LE(cpuModel(an, nnz, 8).bw_utilization,
                      1.0 + 1e-9);
            EXPECT_LE(gpuModel(an, nnz, 8).bw_utilization,
                      1.0 + 1e-9);
        }
    }
}

TEST(Baselines, SparsepipeBeatsIdealOnOeiApps)
{
    // End-to-end sanity of the headline claim at small scale: the
    // simulated Sparsepipe beats the analytical ideal accelerator
    // on a cross-iteration app.
    CooMatrix raw = testing::smallGraph(256, 6000, 2);
    AppInstance app = makePageRank(256);
    Analysis an = analyzeProgram(app.program);
    CsrMatrix prepared = app.prepare(raw);

    SparsepipeSim sim(SparsepipeConfig::isoGpu());
    SimStats sp = testing::simulateApp(sim, app, raw, 16);
    BaselineStats ideal = idealAccelerator(an, prepared.nnz(), 16);
    EXPECT_LT(sp.seconds(), ideal.seconds);
}

TEST(Energy, BreakdownPositiveAndAdditive)
{
    CooMatrix raw = testing::smallGraph(128, 2000);
    AppInstance app = makeBfs(128);
    SimStats stats = testing::simulateApp(
        SparsepipeSim(SparsepipeConfig::isoGpu()), app, raw, 8);
    EnergyBreakdown e = sparsepipeEnergy(stats);
    EXPECT_GT(e.compute_pj, 0.0);
    EXPECT_GT(e.memory_pj, 0.0);
    EXPECT_GT(e.cache_pj, 0.0);
    EXPECT_DOUBLE_EQ(e.total(),
                     e.compute_pj + e.memory_pj + e.cache_pj);
}

TEST(Energy, SparsepipeSavesMemoryEnergyVsIdeal)
{
    CooMatrix raw = testing::smallGraph(256, 6000, 2);
    AppInstance app = makePageRank(256);
    Analysis an = analyzeProgram(app.program);
    CsrMatrix prepared = app.prepare(raw);

    SimStats sp = testing::simulateApp(
        SparsepipeSim(SparsepipeConfig::isoGpu()), app, raw, 16);
    BaselineStats ideal = idealAccelerator(an, prepared.nnz(), 16);

    EnergyBreakdown e_sp = sparsepipeEnergy(sp);
    EnergyBreakdown e_ideal = baselineEnergy(ideal);
    EXPECT_LT(e_sp.memory_pj, e_ideal.memory_pj);
    EXPECT_LT(e_sp.total(), e_ideal.total());
}

TEST(Area, PerfPerAreaMatchesPaperArithmetic)
{
    AreaModel area;
    // Fig 20b consistency: 4.65x GPU speedup -> 5.38x perf/area.
    EXPECT_NEAR(area.perfPerAreaVs(4.65, area.gpu_mm2), 5.38, 0.02);
    // 19.82x CPU speedup -> ~9.8x perf/area.
    EXPECT_NEAR(area.perfPerAreaVs(19.82, area.cpu_mm2), 9.84, 0.2);
    EXPECT_NEAR(area.buffer_fraction, 0.78, 1e-9);
}

} // namespace
} // namespace sparsepipe
