/**
 * @file
 * Tests of the dataflow analysis: e-wise fusion grouping, taint-based
 * sub-tensor dependency tracing, OEI fusability (the Table III reuse
 * column), and the traffic profile.
 */

#include <gtest/gtest.h>

#include "apps/apps.hh"
#include "graph/analysis.hh"
#include "lang/builder.hh"

namespace sparsepipe {
namespace {

const Semiring mul_add{SemiringKind::MulAdd};

/** y = x A; x' = e-wise(y): the canonical fusable loop. */
Program
fusableLoop()
{
    ProgramBuilder b("fusable");
    TensorId a = b.matrix("A", 16, 16);
    TensorId x = b.vector("x", 16);
    TensorId y = b.vector("y", 16);
    TensorId z = b.vector("z", 16);
    TensorId c = b.constant("c", 0.5);
    b.vxm(y, x, a, mul_add);
    b.eWise(z, BinaryOp::Mul, y, c);
    b.carry(x, z);
    return b.build();
}

/** Same loop, but a fold of y gates the next input: blocked. */
Program
blockedLoop()
{
    ProgramBuilder b("blocked");
    TensorId a = b.matrix("A", 16, 16);
    TensorId x = b.vector("x", 16);
    TensorId y = b.vector("y", 16);
    TensorId z = b.vector("z", 16);
    TensorId s = b.scalar("s");
    b.vxm(y, x, a, mul_add);
    b.fold(s, BinaryOp::Add, y);     // reduction of the vxm output
    b.eWise(z, BinaryOp::Mul, y, s); // scalar feeds the next input
    b.carry(x, z);
    return b.build();
}

TEST(Analysis, DetectsFusableCrossIterationPair)
{
    Analysis an = analyzeProgram(fusableLoop());
    ASSERT_EQ(an.pairings.size(), 1u);
    EXPECT_TRUE(an.pairings[0].fusable);
    EXPECT_TRUE(an.pairings[0].crosses_iteration);
    EXPECT_TRUE(an.cross_iteration_reuse);
    EXPECT_DOUBLE_EQ(an.traffic.matrix_streams_fused, 0.5);
    EXPECT_DOUBLE_EQ(an.traffic.matrix_streams_unfused, 1.0);
}

TEST(Analysis, ReductionOnPathBlocksFusion)
{
    Analysis an = analyzeProgram(blockedLoop());
    ASSERT_EQ(an.pairings.size(), 1u);
    EXPECT_FALSE(an.pairings[0].fusable);
    EXPECT_FALSE(an.cross_iteration_reuse);
    EXPECT_DOUBLE_EQ(an.traffic.matrix_streams_fused, 1.0);
}

TEST(Analysis, InputSideReductionDoesNotBlock)
{
    // A fold of the *input* vector is available at pass start and
    // must not poison the path (PageRank's dangling-mass dot).
    ProgramBuilder b("inputfold");
    TensorId a = b.matrix("A", 16, 16);
    TensorId x = b.vector("x", 16);
    TensorId y = b.vector("y", 16);
    TensorId z = b.vector("z", 16);
    TensorId s = b.scalar("s");
    b.fold(s, BinaryOp::Add, x); // input-side
    b.vxm(y, x, a, mul_add);
    b.eWise(z, BinaryOp::Add, y, s);
    b.carry(x, z);
    Analysis an = analyzeProgram(b.build());
    EXPECT_TRUE(an.pairings[0].fusable);
}

TEST(Analysis, InterveningVxmBlocks)
{
    // Producer output routed through a second vxm is a whole-tensor
    // dependency: the adjacent pairs are fusable (vxm->vxm is the
    // KNN shape), but a *skipping* path is not what the pairing
    // tests.  Here: y = xA; w = yA; x' = w + y.  Pair (vxm1, vxm2)
    // has direct dependency -> fusable; pair (vxm2, vxm1') passes
    // only element-wise ops -> fusable.
    ProgramBuilder b("chain2");
    TensorId a = b.matrix("A", 16, 16);
    TensorId x = b.vector("x", 16);
    TensorId y = b.vector("y", 16);
    TensorId w = b.vector("w", 16);
    TensorId z = b.vector("z", 16);
    b.vxm(y, x, a, mul_add);
    b.vxm(w, y, a, mul_add);
    b.eWise(z, BinaryOp::Add, w, y);
    b.carry(x, z);
    Analysis an = analyzeProgram(b.build());
    ASSERT_EQ(an.pairings.size(), 2u);
    EXPECT_TRUE(an.pairings[0].fusable);  // within iteration
    EXPECT_TRUE(an.pairings[1].fusable);  // across iterations
    EXPECT_DOUBLE_EQ(an.traffic.matrix_streams_fused, 1.0);
}

TEST(Analysis, EwiseGroupsAreMaximalRuns)
{
    ProgramBuilder b("groups");
    TensorId a = b.matrix("A", 8, 8);
    TensorId x = b.vector("x", 8);
    TensorId y = b.vector("y", 8);
    TensorId t1 = b.vector("t1", 8);
    TensorId t2 = b.vector("t2", 8);
    TensorId s = b.scalar("s");
    b.apply(t1, UnaryOp::Abs, x);
    b.eWise(t2, BinaryOp::Add, t1, x);
    b.vxm(y, t2, a, mul_add);     // breaks the run
    b.apply(t1, UnaryOp::Relu, y);
    b.fold(s, BinaryOp::Add, t1); // breaks the run
    b.eWise(t2, BinaryOp::Mul, t1, t1);
    b.carry(x, t2);
    Analysis an = analyzeProgram(b.build());
    ASSERT_EQ(an.ewise_groups.size(), 3u);
    EXPECT_EQ(an.ewise_groups[0].ops.size(), 2u);
    EXPECT_EQ(an.ewise_groups[1].ops.size(), 1u);
    EXPECT_EQ(an.ewise_groups[2].ops.size(), 1u);
}

TEST(Analysis, TrafficCountsFusedVsUnfused)
{
    Program p = fusableLoop(); // 16-element vectors
    Analysis an = analyzeProgram(p);
    // Unfused: vxm reads x(16) writes y(16); ewise reads y(16)
    // writes z(16).
    EXPECT_EQ(an.traffic.vector_reads_unfused, 32);
    EXPECT_EQ(an.traffic.vector_writes_unfused, 32);
    // Fused: live-in x once, live-out z once; y stays on chip.
    EXPECT_EQ(an.traffic.vector_reads_fused, 16);
    EXPECT_EQ(an.traffic.vector_writes_fused, 16);
    EXPECT_EQ(an.traffic.ewise_ops, 16);
    EXPECT_TRUE(an.producer_consumer_reuse);
}

struct TableIIIRow
{
    std::string app;
    bool cross_iteration;
    std::string semiring;
};

void
PrintTo(const TableIIIRow &r, std::ostream *os)
{
    *os << r.app << (r.cross_iteration ? "/cross-iter/" : "/no-cross-iter/")
        << r.semiring;
}

class TableIII : public ::testing::TestWithParam<TableIIIRow>
{
};

TEST_P(TableIII, ReusePatternAndSemiringMatchThePaper)
{
    const TableIIIRow &row = GetParam();
    AppInstance app = makeApp(row.app, 64);
    Analysis an = analyzeProgram(app.program);
    EXPECT_EQ(an.cross_iteration_reuse, row.cross_iteration)
        << row.app;
    EXPECT_EQ(std::string(an.semiring.name()), row.semiring)
        << row.app;
    // Every app in the suite at least fuses producer-consumer
    // chains.
    EXPECT_TRUE(an.producer_consumer_reuse) << row.app;
}

INSTANTIATE_TEST_SUITE_P(
    Apps, TableIII,
    ::testing::Values(TableIIIRow{"pr", true, "mul-add"},
                      TableIIIRow{"kcore", true, "mul-add"},
                      TableIIIRow{"bfs", true, "and-or"},
                      TableIIIRow{"sssp", true, "min-add"},
                      TableIIIRow{"kpp", true, "aril-add"},
                      TableIIIRow{"knn", true, "and-or"},
                      TableIIIRow{"label", true, "mul-add"},
                      TableIIIRow{"gcn", true, "mul-add"},
                      TableIIIRow{"gmres", true, "mul-add"},
                      TableIIIRow{"cg", false, "mul-add"},
                      TableIIIRow{"bgs", false, "mul-add"}),
    [](const ::testing::TestParamInfo<TableIIIRow> &info) {
        return info.param.app;
    });

TEST(Analysis, KnnSharesOneStreamPerIteration)
{
    AppInstance app = makeKnn(64);
    Analysis an = analyzeProgram(app.program);
    EXPECT_DOUBLE_EQ(an.traffic.matrix_streams_unfused, 2.0);
    EXPECT_DOUBLE_EQ(an.traffic.matrix_streams_fused, 1.0);
}

TEST(Analysis, CgKeepsFullMatrixStreams)
{
    AppInstance app = makeCg(64);
    Analysis an = analyzeProgram(app.program);
    EXPECT_DOUBLE_EQ(an.traffic.matrix_streams_fused,
                     an.traffic.matrix_streams_unfused);
}

TEST(Analysis, GcnUsesSpmmWithFeatureWidth)
{
    AppInstance app = makeGcn(64, 16);
    Analysis an = analyzeProgram(app.program);
    EXPECT_EQ(an.traffic.spmm_cols, 16);
    EXPECT_GT(an.traffic.mm_flops, 0);
    EXPECT_TRUE(an.cross_iteration_reuse);
}

} // namespace
} // namespace sparsepipe
