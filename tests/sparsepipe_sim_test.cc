/**
 * @file
 * End-to-end tests of the Sparsepipe simulator.
 *
 * The central property: the OEI dataflow only reorders computation,
 * so a Sparsepipe run must leave the workspace in the same state as
 * the operator-at-a-time reference executor (up to floating-point
 * reassociation).  This is exercised for every application in the
 * suite over several matrix classes.
 */

#include <gtest/gtest.h>

#include "apps/apps.hh"
#include "core/sparsepipe_sim.hh"
#include "ref/executor.hh"
#include "sparse/csr.hh"
#include "test_helpers.hh"
#include "util/logging.hh"

namespace sparsepipe {
namespace {

using testing::expectSameSimStats;
using testing::perturbValues;
using testing::sameBits;
using testing::smallGraph;
using testing::smallRmat;
using testing::vecError;

struct EquivCase
{
    std::string app;
    std::string matrix; // "uniform" | "rmat" | "poisson"
};

void
PrintTo(const EquivCase &c, std::ostream *os)
{
    *os << c.app << "-" << c.matrix;
}

CooMatrix
caseMatrix(const std::string &kind)
{
    if (kind == "uniform")
        return smallGraph(96, 900);
    if (kind == "rmat")
        return smallRmat(96, 900);
    if (kind == "poisson") {
        CooMatrix m = generatePoisson2D(10); // 100 x 100
        return m;
    }
    sp_fatal("unknown case matrix '%s'", kind.c_str());
    __builtin_unreachable();
}

Idx
caseDim(const std::string &kind)
{
    return kind == "poisson" ? 100 : 96;
}

class SimEquivalence : public ::testing::TestWithParam<EquivCase>
{
};

TEST_P(SimEquivalence, MatchesReferenceExecutor)
{
    const EquivCase &c = GetParam();
    AppInstance app = makeApp(c.app, caseDim(c.matrix));
    CooMatrix raw = caseMatrix(c.matrix);
    CsrMatrix prepared = app.prepare(raw);

    // Reference run.
    Workspace ref_ws(app.program);
    ref_ws.bindMatrix(app.matrix, prepared);
    app.init(ref_ws);
    RefExecutor ref;
    RunResult ref_run = ref.run(ref_ws, app.default_iters);

    // Sparsepipe run.
    SparsepipeSim sim(SparsepipeConfig::isoGpu());
    Workspace sim_ws(app.program);
    sim_ws.bindMatrix(app.matrix, prepared);
    app.init(sim_ws);
    SimStats stats = sim.run(sim_ws, app.default_iters);

    EXPECT_EQ(stats.iterations, ref_run.iterations);
    EXPECT_EQ(stats.converged, ref_run.converged);
    EXPECT_GT(stats.cycles, 0u);

    const TensorInfo &result = app.program.tensor(app.result);
    if (result.kind == TensorKind::Vector) {
        double err = vecError(ref_ws.vec(app.result),
                              sim_ws.vec(app.result));
        EXPECT_LT(err, 1e-9) << "result vector diverged";
    } else if (result.kind == TensorKind::DenseMatrix) {
        double err = vecError(ref_ws.den(app.result).data(),
                              sim_ws.den(app.result).data());
        EXPECT_LT(err, 1e-9) << "result matrix diverged";
    }

    // Every vector tensor should agree, not just the result.
    for (TensorId id = 0;
         id < static_cast<TensorId>(app.program.tensors().size());
         ++id) {
        if (app.program.tensor(id).kind != TensorKind::Vector)
            continue;
        double err = vecError(ref_ws.vec(id), sim_ws.vec(id));
        EXPECT_LT(err, 1e-9)
            << "tensor '" << app.program.tensor(id).name
            << "' diverged";
    }
}

std::vector<EquivCase>
equivCases()
{
    std::vector<EquivCase> cases;
    for (const AppInfo &info : appInfos()) {
        cases.push_back({info.name, "uniform"});
        cases.push_back({info.name, "rmat"});
    }
    // Solvers additionally on their natural SPD system.
    for (const char *solver : {"cg", "bgs", "gmres"})
        cases.push_back({solver, "poisson"});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, SimEquivalence, ::testing::ValuesIn(equivCases()),
    [](const ::testing::TestParamInfo<EquivCase> &info) {
        return info.param.app + "_" + info.param.matrix;
    });

TEST(SparsepipeSim, ChoosesExpectedScheduleModes)
{
    CooMatrix raw = smallGraph();
    auto mode = [&](const std::string &name) {
        AppInstance app = makeApp(name, 64);
        SparsepipeSim sim(SparsepipeConfig::isoGpu());
        return sim.simulateApp(app, raw, 4).mode;
    };
    EXPECT_EQ(mode("pr"), ScheduleMode::CrossIteration);
    EXPECT_EQ(mode("bfs"), ScheduleMode::CrossIteration);
    EXPECT_EQ(mode("sssp"), ScheduleMode::CrossIteration);
    EXPECT_EQ(mode("kcore"), ScheduleMode::CrossIteration);
    EXPECT_EQ(mode("kpp"), ScheduleMode::CrossIteration);
    EXPECT_EQ(mode("label"), ScheduleMode::CrossIteration);
    EXPECT_EQ(mode("gmres"), ScheduleMode::CrossIteration);
    EXPECT_EQ(mode("gcn"), ScheduleMode::CrossIteration);
    EXPECT_EQ(mode("knn"), ScheduleMode::IntraIteration);
    EXPECT_EQ(mode("cg"), ScheduleMode::Stream);
    EXPECT_EQ(mode("bgs"), ScheduleMode::Stream);
}

TEST(SparsepipeSim, OeiHalvesMatrixTraffic)
{
    CooMatrix raw = smallGraph(128, 2000);
    AppInstance app = makePageRank(128);
    SparsepipeSim sim(SparsepipeConfig::isoGpu());
    SimStats stats = sim.simulateApp(app, raw, 8);

    // 8 iterations -> 4 fused passes; demand + prefetch + reload
    // together should be about half of 8 full streams.
    CsrMatrix prepared = app.prepare(raw);
    double one_stream =
        static_cast<double>(prepared.nnz()) * 12.0;
    double streamed =
        static_cast<double>(stats.matrix_demand_bytes +
                            stats.prefetch_bytes +
                            stats.reload_bytes) / one_stream;
    EXPECT_NEAR(streamed, 4.0, 0.6);
    EXPECT_EQ(stats.passes, 4);
}

TEST(SparsepipeSim, TinyBufferCausesReloads)
{
    CooMatrix raw = smallRmat(256, 8000, 7);
    AppInstance app = makeSssp(256);

    SparsepipeConfig big = SparsepipeConfig::isoGpu();
    big.buffer_bytes = 8 << 20;
    SparsepipeConfig tiny = big;
    tiny.buffer_bytes = 4 << 10;

    SimStats s_big =
        SparsepipeSim(big).simulateApp(app, raw, 6);
    SimStats s_tiny =
        SparsepipeSim(tiny).simulateApp(app, raw, 6);

    EXPECT_EQ(s_big.reload_bytes, 0);
    EXPECT_GT(s_tiny.reload_bytes, 0);
    EXPECT_GE(s_tiny.cycles, s_big.cycles);
    // Functional results must match regardless of buffer size.
    Workspace ws_a(app.program), ws_b(app.program);
    CsrMatrix prepared = app.prepare(raw);
    ws_a.bindMatrix(app.matrix, prepared);
    ws_b.bindMatrix(app.matrix, prepared);
    app.init(ws_a);
    app.init(ws_b);
    SparsepipeSim(big).run(ws_a, 6);
    SparsepipeSim(tiny).run(ws_b, 6);
    EXPECT_LT(vecError(ws_a.vec(app.result), ws_b.vec(app.result)),
              1e-12);
}

TEST(SparsepipeSim, IsoCpuIsSlowerThanIsoGpu)
{
    CooMatrix raw = smallGraph(128, 2000);
    AppInstance app = makePageRank(128);
    SimStats gpu = SparsepipeSim(SparsepipeConfig::isoGpu())
                       .simulateApp(app, raw, 8);
    SimStats cpu = SparsepipeSim(SparsepipeConfig::isoCpu())
                       .simulateApp(app, raw, 8);
    EXPECT_GT(cpu.cycles, gpu.cycles);
}

TEST(SparsepipeSim, TimelineHas25Samples)
{
    CooMatrix raw = smallGraph();
    AppInstance app = makeBfs(64);
    SimStats stats = SparsepipeSim(SparsepipeConfig::isoGpu())
                         .simulateApp(app, raw, 6);
    ASSERT_EQ(stats.bw_timeline.size(), 25u);
    for (double u : stats.bw_timeline) {
        EXPECT_GE(u, 0.0);
        EXPECT_LE(u, 1.0);
    }
    EXPECT_GT(stats.bw_utilization, 0.0);
    EXPECT_LE(stats.bw_utilization, 1.0);
}

// ---------------------------------------------------------------
// The two stages
// ---------------------------------------------------------------

/** Apps covering every schedule: cross-iteration (pr, bfs converges
 *  early), intra-iteration (knn), stream (cg) and SpMM (gcn). */
const char *const kStageApps[] = {"pr", "bfs", "knn", "cg", "gcn"};

TEST(SimStages, TimingIgnoresValues)
{
    // The same pattern and outcome with other values times the same,
    // on every counter: what lets a memoized outcome stand in for
    // the functional stage.
    const CooMatrix raw = smallRmat(300, 4000, 5);
    for (const char *name : kStageApps) {
        const AppInstance app = makeApp(name, 300);
        const CsrMatrix csr = app.prepare(raw);
        const CscMatrix csc = CscMatrix::fromCsr(csr);
        const CsrMatrix other = perturbValues(csr);
        const CscMatrix other_csc = CscMatrix::fromCsr(other);
        ASSERT_NE(other.vals(), csr.vals());

        SparsepipeConfig cfg = SparsepipeConfig::isoGpu();
        cfg.buffer_bytes = 16 << 10; // small enough to reload
        SparsepipeSim sim(cfg);
        Workspace ws(app.program);
        ws.bindMatrix(app.matrix, csr, csc);
        app.init(ws);
        const Idx max_iters = app.default_iters;
        const SimStats full = sim.run(ws, max_iters);
        const RunResult outcome{full.iterations, full.converged};
        const SimStats replay = sim.runTiming(
            app.program, OperandPatterns(app.matrix, other, other_csc),
            outcome, max_iters);
        expectSameSimStats(full, replay, name);
        EXPECT_EQ(replay.iterations, full.iterations) << name;
        EXPECT_EQ(replay.converged, full.converged) << name;
    }
}

/** Every tensor of two workspaces of one program, bit for bit. */
void
expectSameWorkspace(const Workspace &a, const Workspace &b,
                    const std::string &label)
{
    const Program &p = a.program();
    for (TensorId id = 0; id < static_cast<TensorId>(p.tensors().size());
         ++id) {
        std::vector<double> va, vb;
        switch (p.tensor(id).kind) {
          case TensorKind::Vector:
            va = a.vec(id);
            vb = b.vec(id);
            break;
          case TensorKind::DenseMatrix:
            va = a.den(id).data();
            vb = b.den(id).data();
            break;
          case TensorKind::Scalar:
            va = {a.scalar(id)};
            vb = {b.scalar(id)};
            break;
          case TensorKind::SparseMatrix:
            continue;
        }
        ASSERT_EQ(va.size(), vb.size()) << label;
        bool same = true;
        for (std::size_t i = 0; i < va.size(); ++i)
            same = same && sameBits(va[i], vb[i]);
        EXPECT_TRUE(same) << label << ": tensor '"
                          << p.tensor(id).name << "' differs";
    }
}

TEST(SimStages, OutcomeIgnoresSubTensorLanesAndBands)
{
    // The functional memo's key leaves out sub_tensor_cols, lanes and
    // band_threads because none of them moves a value: the outcome
    // and the final workspace match bit for bit across all of them.
    const CooMatrix raw = smallRmat(600, 6000, 9);
    for (const char *name : kStageApps) {
        const AppInstance app = makeApp(name, 600);
        const CsrMatrix csr = app.prepare(raw);
        const CscMatrix csc = CscMatrix::fromCsr(csr);
        auto functional = [&](Idx t_cols, Idx lanes, int bands,
                              Workspace &ws) {
            SparsepipeConfig cfg = SparsepipeConfig::isoGpu();
            cfg.sub_tensor_cols = t_cols;
            cfg.lanes = lanes;
            cfg.band_threads = bands;
            ws.bindMatrix(app.matrix, csr, csc);
            app.init(ws);
            return SparsepipeSim(cfg).runFunctional(ws,
                                                    app.default_iters);
        };
        Workspace base_ws(app.program);
        const RunResult base = functional(0, 1, 1, base_ws);
        for (Idx t_cols : {Idx{16}, Idx{256}, Idx{4096}, Idx{0}}) {
            for (Idx lanes : {Idx{1}, Idx{0}}) {
                for (int bands : {1, 2}) {
                    const std::string label =
                        std::string(name) + " t=" +
                        std::to_string(t_cols) + " lanes=" +
                        std::to_string(lanes) + " bands=" +
                        std::to_string(bands);
                    Workspace ws(app.program);
                    const RunResult got =
                        functional(t_cols, lanes, bands, ws);
                    EXPECT_EQ(got.iterations, base.iterations) << label;
                    EXPECT_EQ(got.converged, base.converged) << label;
                    expectSameWorkspace(base_ws, ws, label);
                }
            }
        }
    }
}

} // namespace
} // namespace sparsepipe
