/**
 * @file
 * Tests of the functional OEI engine in isolation: chain extraction
 * (which ops ride inside the fused pass, which are replaced, which
 * are scratch), cross-carry renaming, and value-exactness of the
 * reordered OS -> e-wise -> IS schedule against the reference
 * executor for hand-built programs.
 */

#include <gtest/gtest.h>

#include "apps/apps.hh"
#include "core/oei_functional.hh"
#include "lang/builder.hh"
#include "ref/executor.hh"
#include "test_helpers.hh"

namespace sparsepipe {
namespace {

const Semiring mul_add{SemiringKind::MulAdd};

struct Loop
{
    Program program;
    TensorId a, x, y, z;
};

/** y = x A; z = y * c; carry x <- z. */
Loop
simpleLoop(Idx n)
{
    ProgramBuilder b("loop");
    Loop loop;
    loop.a = b.matrix("A", n, n);
    loop.x = b.vector("x", n);
    loop.y = b.vector("y", n);
    loop.z = b.vector("z", n);
    TensorId c = b.constant("c", 0.5);
    b.vxm(loop.y, loop.x, loop.a, mul_add);
    b.eWise(loop.z, BinaryOp::Mul, loop.y, c);
    b.carry(loop.x, loop.z);
    loop.program = b.build();
    return loop;
}

TEST(FusedChain, ExtractsEwisePathAndReplacedOps)
{
    Loop loop = simpleLoop(16);
    Analysis an = analyzeProgram(loop.program);
    ASSERT_TRUE(an.pairings[0].fusable);
    FusedChain chain = buildFusedChain(loop.program, an.pairings[0]);

    ASSERT_EQ(chain.ops.size(), 1u);
    EXPECT_EQ(chain.ops[0].kind, OpKind::EwiseBinary);
    EXPECT_EQ(chain.consumer_input, loop.z);
    ASSERT_EQ(chain.replaced_ops.size(), 1u);
    EXPECT_EQ(chain.replaced_ops[0], 1u); // the eWise op
    EXPECT_TRUE(chain.commit[0]);         // frame-A official tensor
}

TEST(FusedChain, EmptyChainWhenDirectlyConnected)
{
    // Two vxm with no ops in between (KNN's vxm -> no-op -> vxm).
    ProgramBuilder b("twohop");
    TensorId a = b.matrix("A", 16, 16);
    TensorId x = b.vector("x", 16);
    TensorId h1 = b.vector("h1", 16);
    TensorId h2 = b.vector("h2", 16);
    b.vxm(h1, x, a, mul_add);
    b.vxm(h2, h1, a, mul_add);
    b.carry(x, h2);
    Program p = b.build();
    Analysis an = analyzeProgram(p);
    FusedChain chain = buildFusedChain(p, an.pairings[0]);
    EXPECT_TRUE(chain.ops.empty());
    EXPECT_EQ(chain.consumer_input, h1);
}

TEST(FusedChain, CrossCarryOpsAreScratchOnly)
{
    // gmres shape: the chain op lives in the *next* iteration and
    // reads a carried scalar; it must be renamed and marked
    // non-commit.
    ProgramBuilder b("lagged");
    TensorId a = b.matrix("A", 16, 16);
    TensorId v = b.vector("v", 16);
    TensorId vn = b.vector("vn", 16);
    TensorId w = b.vector("w", 16);
    TensorId s_use = b.scalar("s_use", 1.0);
    TensorId s_lag = b.scalar("s_lag", 1.0);
    b.eWise(vn, BinaryOp::Mul, v, s_use);
    b.vxm(w, vn, a, mul_add);
    b.carry(v, w);
    b.carry(s_use, s_lag);
    Program p = b.build();

    Analysis an = analyzeProgram(p);
    ASSERT_TRUE(an.pairings[0].fusable);
    FusedChain chain = buildFusedChain(p, an.pairings[0]);
    ASSERT_EQ(chain.ops.size(), 1u);
    // Inputs renamed through the carries: v -> w, s_use -> s_lag.
    EXPECT_EQ(chain.ops[0].inputs[0], w);
    EXPECT_EQ(chain.ops[0].inputs[1], s_lag);
    EXPECT_FALSE(chain.commit[0]);
    EXPECT_TRUE(chain.replaced_ops.empty());
}

class FusedPairValues : public ::testing::TestWithParam<Idx>
{
};

TEST_P(FusedPairValues, MatchReferenceForAnySubTensor)
{
    const Idx n = 64;
    const Idx t = GetParam();
    Loop loop = simpleLoop(n);
    CsrMatrix m = CsrMatrix::fromCoo(testing::smallGraph(n, 600));

    // Reference: two plain iterations.
    Workspace ref(loop.program);
    ref.bindMatrix(loop.a, m);
    Rng rng(5);
    for (auto &v : ref.vec(loop.x))
        v = rng.nextRange(0.0, 1.0);
    DenseVector x0 = ref.vec(loop.x);
    RefExecutor r;
    r.runBody(ref);
    r.applyCarries(ref);
    DenseVector y_iter2_expect;
    {
        Workspace tmp(loop.program);
        tmp.bindMatrix(loop.a, m);
        tmp.vec(loop.x) = ref.vec(loop.x);
        r.runBody(tmp);
        y_iter2_expect = tmp.vec(loop.y);
    }

    // OEI: one fused pass produces iteration 1's tensors and
    // iteration 2's vxm output.
    Workspace oei(loop.program);
    oei.bindMatrix(loop.a, m);
    oei.vec(loop.x) = x0;
    Analysis an = analyzeProgram(loop.program);
    FusedChain chain = buildFusedChain(loop.program, an.pairings[0]);
    DenseVector out2 =
        runFusedPair(oei, loop.program, an.pairings[0], chain, t);

    EXPECT_LT(testing::vecError(oei.vec(loop.y), ref.vec(loop.y)),
              1e-12);
    EXPECT_LT(testing::vecError(oei.vec(loop.z), ref.vec(loop.z)),
              1e-12);
    EXPECT_LT(testing::vecError(out2, y_iter2_expect), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(SubTensors, FusedPairValues,
                         ::testing::Values(1, 3, 16, 64, 128));

TEST(FusedPair, AnnihilatingInputsAreSkippedConsistently)
{
    // An and-or loop with a one-hot input: most lanes annihilate,
    // and the gated OEI execution must still match the reference.
    const Idx n = 48;
    ProgramBuilder b("frontier");
    const Semiring and_or(SemiringKind::AndOr);
    TensorId a = b.matrix("A", n, n);
    TensorId f = b.vector("f", n);
    TensorId r1 = b.vector("r1", n);
    b.vxm(r1, f, a, and_or);
    b.carry(f, r1);
    Program p = b.build();

    CsrMatrix m = prepareBoolean(testing::smallRmat(n, 300));
    Workspace ref(p), oei(p);
    ref.bindMatrix(a, m);
    oei.bindMatrix(a, m);
    ref.vec(f)[5] = 1.0;
    oei.vec(f)[5] = 1.0;

    RefExecutor r;
    r.runBody(ref);
    DenseVector first = ref.vec(r1);
    r.applyCarries(ref);
    r.runBody(ref);

    Analysis an = analyzeProgram(p);
    FusedChain chain = buildFusedChain(p, an.pairings[0]);
    DenseVector out2 = runFusedPair(oei, p, an.pairings[0], chain, 8);
    EXPECT_LT(testing::vecError(oei.vec(r1), first), 1e-15);
    EXPECT_LT(testing::vecError(out2, ref.vec(r1)), 1e-15);
}

} // namespace
} // namespace sparsepipe
