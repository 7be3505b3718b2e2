/**
 * @file
 * Tests of the benchmark's own logic: the fidelity formulas (on
 * synthetic grids, and against what the figure benches print at the
 * default seed), the serve request script, and the span accounting.
 *
 * From the checkout root:
 *
 *   cmake --build .bench_build --target perfbench_test
 *   .bench_build/perfbench_test
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "fidelity.hh"
#include "obs/json.hh"
#include "script.hh"
#include "tracer.hh"
#include "util/stats.hh"
#include "workloads.hh"

namespace perfbench {
namespace {

using sparsepipe::bench::CaseResult;

/** Output directory inside the checkout (run from its root). */
std::string
testOutDir()
{
    const std::string dir = ".bench_out/perfbench_test";
    std::filesystem::create_directories(dir);
    return dir;
}

/** A grid where every case is 1 ms of simulated time and the
 *  baselines take `ideal`/`cpu`/`gpu`/`oracle` ms. */
std::vector<CaseResult>
syntheticGrid(double ideal, double cpu, double gpu, double oracle)
{
    std::vector<CaseResult> grid;
    for (const std::string &app : sparsepipe::bench::allApps()) {
        for (const std::string &d : sparsepipe::bench::allDatasets()) {
            CaseResult r;
            r.app = app;
            r.dataset = d;
            r.sp.cycles = 1000000; // 1 ms at 1 GHz
            r.sp.bw_utilization = 0.5;
            r.ideal.seconds = ideal * 1e-3;
            r.cpu.seconds = cpu * 1e-3;
            r.gpu.seconds = gpu * 1e-3;
            r.oracle.seconds = oracle * 1e-3;
            grid.push_back(r);
        }
    }
    return grid;
}

TEST(Geomean, MatchesClosedForm)
{
    EXPECT_DOUBLE_EQ(sparsepipe::geomean({2.0, 8.0}), 4.0);
    EXPECT_NEAR(sparsepipe::geomean({1.0, 10.0, 100.0}), 10.0, 1e-12);
    EXPECT_DOUBLE_EQ(sparsepipe::mean({1.0, 2.0, 6.0}), 3.0);
}

TEST(Fidelity, ErrorIsRelativeToThePaper)
{
    EXPECT_DOUBLE_EQ(errorPct(1.5, 2.0), 25.0);
    EXPECT_DOUBLE_EQ(errorPct(2.5, 2.0), 25.0);
    EXPECT_DOUBLE_EQ(errorPct(2.0, 2.0), 0.0);
}

TEST(Fidelity, HeadlineFormulasOnASyntheticGrid)
{
    std::vector<CaseResult> grid = syntheticGrid(2.0, 20.0, 5.0, 0.5);
    const std::map<std::string, double> h = figureHeadlines(grid);
    EXPECT_NEAR(h.at("fig14"), 2.0, 1e-12);
    EXPECT_NEAR(h.at("fig16"), 20.0, 1e-12);
    EXPECT_NEAR(h.at("fig17"), 5.0, 1e-12);
    EXPECT_NEAR(h.at("fig18"), 50.0, 1e-12);
    EXPECT_NEAR(h.at("fig21"), 50.0, 1e-12);

    // fig17 averages only bfs/kcore/pr/sssp; fig18 is an arithmetic
    // mean; fig14 a geometric one.
    const std::size_t datasets = sparsepipe::bench::allDatasets().size();
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const std::string &app = grid[i].app;
        if (app != "bfs" && app != "kcore" && app != "pr" && app != "sssp")
            grid[i].gpu.seconds = 1.0;
    }
    grid[0].ideal.seconds = 8e-3;  // one case at 8x, the rest at 2x
    grid[0].oracle.seconds = 1e-3; // one case at 100%, the rest 50%
    const std::map<std::string, double> h2 = figureHeadlines(grid);
    EXPECT_NEAR(h2.at("fig17"), 5.0, 1e-12);
    const double n = static_cast<double>(grid.size());
    EXPECT_NEAR(h2.at("fig14"), 2.0 * std::pow(4.0, 1.0 / n), 1e-12);
    EXPECT_NEAR(h2.at("fig18"), 50.0 + 50.0 / n, 1e-9);

    // fig21 is a geomean over apps of per-app geomeans: lifting one
    // app's every dataset to 100% moves it by 2^(1/apps).
    for (std::size_t d = 0; d < datasets; ++d)
        grid[d].sp.bw_utilization = 1.0;
    const double apps = static_cast<double>(grid.size() / datasets);
    EXPECT_NEAR(figureHeadlines(grid).at("fig21"),
                50.0 * std::pow(2.0, 1.0 / apps), 1e-9);
}

TEST(Fidelity, RejectsAPartialGrid)
{
    std::vector<CaseResult> grid = syntheticGrid(2.0, 20.0, 5.0, 0.5);
    grid.pop_back();
    EXPECT_DEATH(figureHeadlines(grid), "full");
}

// What bench_fig14/16/17/18/21/23 print as their headline at the
// default seed ("geomean, all cases : 1.43x", ...).
TEST(Fidelity, ReproducesTheFigureBenchesAtTheDefaultSeed)
{
    WorkloadOptions opts;
    opts.workload = "grid_cold";
    opts.seed = sparsepipe::bench::kDefaultSeed;
    opts.jobs = 4;
    opts.spawn_ns = nowNs();
    opts.out_dir = testOutDir();
    const WorkloadResult r = runGridCold(opts);
    ASSERT_EQ(r.passed, r.attempted);
    const std::map<std::string, double> printed = {
        {"fig14", 1.43}, {"fig16", 20.89}, {"fig17", 6.00},
        {"fig18", 50.62}, {"fig21", 98.62}, {"fig23", 57.33},
    };
    ASSERT_EQ(r.headlines.size(), printed.size());
    for (const auto &[fig, value] : printed) {
        EXPECT_NEAR(r.headlines.at(fig), value, 0.005) << fig;
        EXPECT_EQ(r.fidelity.count("fid_" + fig + "_err_pct"), 1u);
    }
    for (const PaperHeadline &h : paperHeadlines())
        EXPECT_DOUBLE_EQ(r.fidelity.at("fid_" + std::string(h.fig) +
                                       "_err_pct"),
                         errorPct(r.headlines.at(h.fig), h.paper));
}

TEST(ServeScript, EqualSeedsReplayTheSameTraffic)
{
    EXPECT_EQ(makeServeScript(7, 160), makeServeScript(7, 160));
    EXPECT_NE(makeServeScript(7, 160), makeServeScript(8, 160));
}

TEST(ServeScript, EverySeedSendsTheSameZipfMix)
{
    const std::size_t n = serveCatalogue().size();
    EXPECT_LE(n, 32u); // the server's default prepared-cache bound
    std::vector<int> first_hits;
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        const std::vector<ScriptItem> script = makeServeScript(seed, 1000);
        ASSERT_EQ(script.size(), 1000u);
        std::vector<int> hits(n, 0);
        int pairs = 0;
        for (const ScriptItem &item : script) {
            ASSERT_LT(item.key, n);
            ++hits[item.key];
            pairs += item.paired ? 1 : 0;
        }
        EXPECT_EQ(pairs, 200);
        // Zipf(1) over 24 keys: the first key takes 1/H(24) = 26.5%,
        // the last 1/(24 H(24)) = 1.1%.
        EXPECT_EQ(hits[0], 265);
        EXPECT_EQ(hits[n - 1], 11);
        EXPECT_TRUE(std::is_sorted(hits.rbegin(), hits.rend()));
        if (first_hits.empty())
            first_hits = hits;
        EXPECT_EQ(hits, first_hits);
    }
}

TEST(Tracer, SelfTimesReconcileWithBusyTime)
{
    using Kind = Tracer::Kind;
    Tracer tracer;
    {
        Tracer::Scope phase(&tracer, "phase.timed", Kind::Phase);
        auto task = [&](const char *id) {
            Tracer::Scope t(&tracer, "task.case", Kind::Task, id);
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            {
                Tracer::Scope a(&tracer, "prep.reorder", Kind::Layer, id);
                std::this_thread::sleep_for(std::chrono::milliseconds(3));
                Tracer::Scope b(&tracer, "sparse.generate", Kind::Layer,
                                id);
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
        };
        std::thread other([&] { task("b"); });
        task("a");
        other.join();
    }
    const std::map<std::string, double> layers = tracer.layerSelfMs();
    double covered = tracer.taskSelfMs();
    for (const auto &[name, ms] : layers)
        covered += ms;
    EXPECT_NEAR(covered, tracer.busyMs(), 1e-6);
    EXPECT_GE(layers.at("prep.reorder"), 2 * 3.0);
    EXPECT_GE(layers.at("sparse.generate"), 2 * 1.0);
    EXPECT_GE(tracer.taskSelfMs(), 2 * 2.0);
    // The phase span is a marker, not work.
    EXPECT_EQ(layers.count("phase.timed"), 0u);

    // The trace file is Chrome trace_event JSON with one event per span.
    const std::string path = testOutDir() + "/tracer_test.json";
    ASSERT_TRUE(tracer.writeChromeTrace(path));
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    sparsepipe::obs::JsonValue doc;
    ASSERT_TRUE(sparsepipe::obs::parseJson(text.str(), doc));
    const sparsepipe::obs::JsonValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    EXPECT_EQ(events->array.size(), tracer.spans().size());
    EXPECT_EQ(events->array[0].stringOr("ph"), "X");
}

TEST(Tracer, NullTracerRecordsNothing)
{
    Tracer::Scope scope(nullptr, "core.sim", Tracer::Kind::Layer);
    SUCCEED();
}

} // namespace
} // namespace perfbench
