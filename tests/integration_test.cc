/**
 * @file
 * Cross-module integration and robustness tests:
 *  - property sweep: Sparsepipe == reference for every app across a
 *    grid of buffer sizes and sub-tensor widths (the OEI schedule
 *    must be value-preserving under ANY resource configuration);
 *  - preprocessing end-to-end: reorder + blocked storage feed the
 *    simulator and preserve results up to the vertex renumbering;
 *  - failure injection: unbound matrices, non-square operands,
 *    degenerate graphs (empty matrix, empty rows, self loops).
 */

#include <gtest/gtest.h>

#include "apps/apps.hh"
#include "core/sparsepipe_sim.hh"
#include "prep/blocked.hh"
#include "prep/reorder.hh"
#include "ref/executor.hh"
#include "test_helpers.hh"

namespace sparsepipe {
namespace {

using testing::smallGraph;
using testing::smallRmat;
using testing::vecError;

struct SweepCase
{
    std::string app;
    Idx buffer_bytes;
    Idx sub_tensor;
};

void
PrintTo(const SweepCase &c, std::ostream *os)
{
    *os << c.app << "/buf" << c.buffer_bytes << "/t" << c.sub_tensor;
}

class ResourceSweep : public ::testing::TestWithParam<SweepCase>
{
};

TEST_P(ResourceSweep, ValuesIndependentOfResources)
{
    const SweepCase &c = GetParam();
    const Idx n = 96;
    CooMatrix raw = smallRmat(n, 900, 17);
    AppInstance app = makeApp(c.app, n);
    CsrMatrix prepared = app.prepare(raw);

    Workspace ref_ws(app.program);
    ref_ws.bindMatrix(app.matrix, prepared);
    app.init(ref_ws);
    RefExecutor().run(ref_ws, 6);

    SparsepipeConfig cfg = SparsepipeConfig::isoGpu();
    cfg.buffer_bytes = c.buffer_bytes;
    cfg.sub_tensor_cols = c.sub_tensor;
    Workspace sim_ws(app.program);
    sim_ws.bindMatrix(app.matrix, prepared);
    app.init(sim_ws);
    SimStats stats = SparsepipeSim(cfg).run(sim_ws, 6);
    EXPECT_GT(stats.cycles, 0u);

    const TensorInfo &result = app.program.tensor(app.result);
    if (result.kind == TensorKind::Vector) {
        EXPECT_LT(vecError(ref_ws.vec(app.result),
                           sim_ws.vec(app.result)), 1e-9);
    } else {
        EXPECT_LT(vecError(ref_ws.den(app.result).data(),
                           sim_ws.den(app.result).data()), 1e-9);
    }
}

std::vector<SweepCase>
sweepCases()
{
    std::vector<SweepCase> cases;
    for (const char *app : {"pr", "sssp", "knn", "gmres", "cg"}) {
        for (Idx buf : {2048, 1 << 16, 1 << 22}) {
            for (Idx t : {4, 32, 96}) {
                cases.push_back({app, buf, t});
            }
        }
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ResourceSweep, ::testing::ValuesIn(sweepCases()),
    [](const ::testing::TestParamInfo<SweepCase> &info) {
        return info.param.app + "_b" +
               std::to_string(info.param.buffer_bytes) + "_t" +
               std::to_string(info.param.sub_tensor);
    });

TEST(Preprocessing, ReorderedRunPermutesResults)
{
    const Idx n = 80;
    CooMatrix raw = smallGraph(n, 700, 23);
    raw.canonicalize();

    AppInstance app = makePageRank(n);
    CsrMatrix plain = app.prepare(raw);

    auto perm = vanillaReorder(CsrMatrix::fromCoo(raw));
    CooMatrix renum = applySymmetricPermutation(raw, perm).value();
    CsrMatrix reordered = app.prepare(renum);

    Workspace a(app.program), b(app.program);
    a.bindMatrix(app.matrix, plain);
    b.bindMatrix(app.matrix, reordered);
    app.init(a);
    app.init(b);
    SparsepipeSim sim(SparsepipeConfig::isoGpu());
    sim.run(a, 12);
    sim.run(b, 12);

    // PageRank of the renumbered graph is the permuted PageRank.
    const DenseVector &pa = a.vec(app.result);
    const DenseVector &pb = b.vec(app.result);
    for (Idx v = 0; v < n; ++v) {
        EXPECT_NEAR(pa[static_cast<std::size_t>(v)],
                    pb[static_cast<std::size_t>(perm[
                        static_cast<std::size_t>(v)])], 1e-9);
    }
}

TEST(Preprocessing, BlockedBytesFeedTheSimulator)
{
    const Idx n = 512;
    CooMatrix raw = smallGraph(n, 8000, 29);
    AppInstance app = makeSssp(n);
    CsrMatrix prepared = app.prepare(raw);
    BlockedLayout layout = buildBlockedLayout(prepared).value();

    SparsepipeConfig blocked = SparsepipeConfig::isoGpu();
    blocked.bytes_per_nz = layout.bytesPerNonzero();
    SparsepipeConfig plain = SparsepipeConfig::isoGpu();
    plain.bytes_per_nz = 12.0;

    SimStats s_blk =
        SparsepipeSim(blocked).simulateApp(app, raw, 8);
    SimStats s_pln =
        SparsepipeSim(plain).simulateApp(app, raw, 8);
    EXPECT_LT(s_blk.matrix_demand_bytes, s_pln.matrix_demand_bytes);
    EXPECT_LE(s_blk.cycles, s_pln.cycles);
}

TEST(FailureInjection, SimulatingUnboundMatrixIsFatal)
{
    AppInstance app = makePageRank(32);
    Workspace ws(app.program);
    SparsepipeSim sim(SparsepipeConfig::isoGpu());
    EXPECT_DEATH(sim.run(ws, 2), "unbound");
}

TEST(FailureInjection, EmptyMatrixRunsToCompletion)
{
    const Idx n = 32;
    CooMatrix empty(n, n);
    AppInstance app = makeBfs(n);
    SimStats stats = SparsepipeSim(SparsepipeConfig::isoGpu())
                         .simulateApp(app, empty, 4);
    // Frontier dies instantly; run converges after one round.
    EXPECT_TRUE(stats.converged);
    EXPECT_GE(stats.iterations, 1);
}

TEST(FailureInjection, SelfLoopsAndDuplicatesAreHandled)
{
    const Idx n = 24;
    CooMatrix raw(n, n);
    for (Idx i = 0; i < n; ++i) {
        raw.add(i, i, 1.0);             // self loops
        raw.add(i, (i + 1) % n, 0.5);
        raw.add(i, (i + 1) % n, 0.5);   // duplicate -> merged
    }
    AppInstance app = makePageRank(n);
    Workspace ref_ws(app.program), sim_ws(app.program);
    CsrMatrix prepared = app.prepare(raw);
    ref_ws.bindMatrix(app.matrix, prepared);
    sim_ws.bindMatrix(app.matrix, prepared);
    app.init(ref_ws);
    app.init(sim_ws);
    RefExecutor().run(ref_ws, 8);
    SparsepipeSim(SparsepipeConfig::isoGpu()).run(sim_ws, 8);
    EXPECT_LT(vecError(ref_ws.vec(app.result),
                       sim_ws.vec(app.result)), 1e-10);
}

TEST(FailureInjection, ZeroIterationRunIsWellFormed)
{
    AppInstance app = makePageRank(16);
    CooMatrix raw = smallGraph(16, 60, 41);
    SimStats stats = SparsepipeSim(SparsepipeConfig::isoGpu())
                         .simulateApp(app, raw, /*iters=*/0);
    // iters=0 falls back to the app default, never a null run.
    EXPECT_GT(stats.iterations, 0);
}

} // namespace
} // namespace sparsepipe
