/**
 * @file
 * Packed<T, k> lane-op and span-kernel properties.
 *
 * The contract under test is *bit identity*: every packed op equals
 * the scalar semiring op applied per lane, for every semiring and
 * every lane width, including the FP special values (signed zeros,
 * infinities, NaN) where "close enough" would hide real divergence.
 * Comparisons therefore go through the raw bit pattern, never
 * operator== (which would pass -0.0 vs +0.0 and fail NaN vs NaN).
 *
 * Tail masking is tested with exactly-sized heap buffers so any
 * read behind an inactive lane is an ASan heap-buffer-overflow in
 * the sanitizer build, not a silent wrong answer.
 */

#include "semiring/packed.hh"

#include <cmath>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "sparse/csr.hh"
#include "test_helpers.hh"

namespace sparsepipe {
namespace {

constexpr Value kInf = std::numeric_limits<Value>::infinity();
constexpr Value kNan = std::numeric_limits<Value>::quiet_NaN();

const SemiringKind kKinds[] = {
    SemiringKind::MulAdd, SemiringKind::AndOr, SemiringKind::MinAdd,
    SemiringKind::ArilAdd, SemiringKind::MaxMul,
};

using testing::sameBits;

/** Mixed stream of ordinary values and FP specials. */
class ValueGen
{
  public:
    explicit ValueGen(std::uint64_t seed) : rng_(seed) {}

    Value next()
    {
        switch (rng_() % 10) {
          case 0: return 0.0;
          case 1: return -0.0;
          case 2: return kInf;
          case 3: return -kInf;
          case 4: return kNan;
          case 5: return 5e-324; // subnormal
          default:
            return std::uniform_real_distribution<Value>(-2.0, 2.0)(
                rng_);
        }
    }

  private:
    std::mt19937_64 rng_;
};

template <int K>
void
checkMaddAgainstScalar(const Semiring &sr, std::uint64_t seed)
{
    ValueGen gen(seed);
    for (int rep = 0; rep < 200; ++rep) {
        packed::PackedV<K> acc, x, v;
        bool active[K];
        Value ref[K];
        for (int l = 0; l < K; ++l) {
            acc.x[l] = gen.next();
            x.x[l] = gen.next();
            v.x[l] = gen.next();
            active[l] = (rep + l) % 3 != 0;
            ref[l] = acc.x[l];
            if (active[l] && !sr.annihilates(x.x[l]))
                ref[l] = sr.add(ref[l],
                                sr.multiply(x.x[l], v.x[l]));
        }
        packed::madd(sr, acc, x, v, active);
        for (int l = 0; l < K; ++l)
            EXPECT_TRUE(sameBits(acc.x[l], ref[l]))
                << sr.name() << " K=" << K << " lane " << l
                << ": got " << acc.x[l] << " want " << ref[l];
    }
}

TEST(PackedLaneOps, MaddMatchesScalarPerLaneBitwise)
{
    for (SemiringKind kind : kKinds) {
        const Semiring sr(kind);
        checkMaddAgainstScalar<1>(sr, 11);
        checkMaddAgainstScalar<3>(sr, 22);
        checkMaddAgainstScalar<4>(sr, 33);
        checkMaddAgainstScalar<8>(sr, 44);
    }
}

TEST(PackedLaneOps, AddMulMatchScalarPerLaneBitwise)
{
    for (SemiringKind kind : kKinds) {
        const Semiring sr(kind);
        ValueGen gen(7);
        for (int rep = 0; rep < 100; ++rep) {
            packed::PackedV<8> a, b;
            for (int l = 0; l < 8; ++l) {
                a.x[l] = gen.next();
                b.x[l] = gen.next();
            }
            const packed::PackedV<8> s = packed::add(sr, a, b);
            const packed::PackedV<8> m = packed::mul(sr, a, b);
            for (int l = 0; l < 8; ++l) {
                EXPECT_TRUE(sameBits(s.x[l], sr.add(a.x[l], b.x[l])));
                EXPECT_TRUE(sameBits(
                    m.x[l], sr.multiply(a.x[l], b.x[l])));
            }
        }
    }
}

TEST(PackedLaneOps, FnmaddMatchesScalarForRingSemirings)
{
    for (SemiringKind kind :
         {SemiringKind::MulAdd, SemiringKind::ArilAdd}) {
        const Semiring sr(kind);
        ValueGen gen(13);
        for (int rep = 0; rep < 100; ++rep) {
            packed::PackedV<4> acc, x, v;
            Value ref[4];
            for (int l = 0; l < 4; ++l) {
                acc.x[l] = gen.next();
                x.x[l] = gen.next();
                v.x[l] = gen.next();
                ref[l] = acc.x[l];
                if (!sr.annihilates(x.x[l]))
                    ref[l] = sr.add(
                        ref[l], -sr.multiply(x.x[l], v.x[l]));
            }
            packed::fnmadd(sr, acc, x, v);
            for (int l = 0; l < 4; ++l)
                EXPECT_TRUE(sameBits(acc.x[l], ref[l]));
        }
    }
}

TEST(PackedLaneOpsDeathTest, FnmaddPanicsWithoutAdditiveInverse)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    packed::PackedV<2> acc = packed::PackedV<2>::broadcast(0.0);
    const packed::PackedV<2> one = packed::PackedV<2>::broadcast(1.0);
    EXPECT_DEATH(
        packed::fnmadd(Semiring(SemiringKind::MinAdd), acc, one, one),
        "no additive");
}

TEST(PackedLaneOps, IdentityElementsPerSemiring)
{
    EXPECT_EQ(packed::addIdentity<4>(Semiring(SemiringKind::MinAdd))
                  .x[2],
              kInf);
    EXPECT_EQ(packed::addIdentity<4>(Semiring(SemiringKind::MaxMul))
                  .x[0],
              -kInf);
    EXPECT_TRUE(sameBits(
        packed::addIdentity<4>(Semiring(SemiringKind::MulAdd)).x[3],
        0.0));

    // The identity must be neutral under the lane add for every
    // finite operand: min(+inf, x) == x, max(-inf, x) == x, 0+x == x.
    ValueGen gen(99);
    for (SemiringKind kind : kKinds) {
        const Semiring sr(kind);
        for (int rep = 0; rep < 50; ++rep) {
            packed::PackedV<4> v;
            for (int l = 0; l < 4; ++l) {
                Value x = gen.next();
                while (std::isnan(x))
                    x = gen.next();
                // And-Or's add normalizes to {0, 1}; feed it its
                // own value domain.
                if (kind == SemiringKind::AndOr)
                    x = x != 0.0 ? 1.0 : 0.0;
                v.x[l] = x;
            }
            const packed::PackedV<4> r =
                packed::add(sr, packed::addIdentity<4>(sr), v);
            for (int l = 0; l < 4; ++l)
                EXPECT_EQ(r.x[l], v.x[l])
                    << sr.name() << " lane " << l;
        }
    }
}

// --- tail masking never touches memory behind an inactive lane ----
//
// Exactly-sized heap buffers: one element past the logical end is
// past the allocation, so a missing mask is a heap-buffer-overflow
// under ASan and at worst garbage-but-caught here.

TEST(PackedTailMask, LoadStoreMaskedStayInBounds)
{
    for (int act = 0; act <= 8; ++act) {
        std::vector<Value> in(static_cast<std::size_t>(act), 1.5);
        const auto p = packed::PackedV<8>::loadMasked(
            in.data(), act, -7.0);
        for (int l = 0; l < 8; ++l)
            EXPECT_EQ(p.x[l], l < act ? 1.5 : -7.0);

        std::vector<Value> out(static_cast<std::size_t>(act), 0.0);
        packed::PackedV<8>::broadcast(2.5).storeMasked(out.data(),
                                                       act);
        for (int l = 0; l < act; ++l)
            EXPECT_EQ(out[static_cast<std::size_t>(l)], 2.5);
    }
}

TEST(PackedTailMask, GatherSkipsInactiveLanes)
{
    // Base holds exactly 3 elements; inactive lanes carry an index
    // far outside it, so an unmasked gather would fault under ASan.
    std::vector<Value> base = {10.0, 20.0, 30.0};
    packed::Packed<Idx, 4> idx;
    idx.x[0] = 2;
    idx.x[1] = 1 << 20;
    idx.x[2] = 0;
    idx.x[3] = 1 << 20;
    const bool active[4] = {true, false, true, false};
    const auto g = packed::PackedV<4>::gather(base.data(), idx,
                                              active, -1.0);
    EXPECT_EQ(g.x[0], 30.0);
    EXPECT_EQ(g.x[1], -1.0);
    EXPECT_EQ(g.x[2], 10.0);
    EXPECT_EQ(g.x[3], -1.0);
}

// --- span kernels vs the element loop ------------------------------

/** The element-path column loop (mirrors RefExecutor's vxm). */
std::vector<Value>
vxmElement(const Semiring &sr, const CscMatrix &a,
           const std::vector<Value> &x)
{
    std::vector<Value> out(static_cast<std::size_t>(a.cols()),
                           sr.addIdentity());
    for (Idx c = 0; c < a.cols(); ++c) {
        Value acc = sr.addIdentity();
        auto rows = a.colRows(c);
        auto vals = a.colVals(c);
        for (std::size_t k = 0; k < rows.size(); ++k) {
            const Value xv = x[static_cast<std::size_t>(rows[k])];
            if (sr.annihilates(xv))
                continue;
            acc = sr.add(acc, sr.multiply(xv, vals[k]));
        }
        out[static_cast<std::size_t>(c)] = acc;
    }
    return out;
}

CscMatrix
raggedMatrix(Idx rows, Idx cols, std::uint64_t seed)
{
    // Column lengths vary wildly (0 .. rows) so packed groups always
    // contain masked tail lanes; values include FP specials.
    std::mt19937_64 rng(seed);
    ValueGen gen(seed ^ 0x9e3779b9);
    CooMatrix coo(rows, cols);
    for (Idx c = 0; c < cols; ++c) {
        const Idx len = static_cast<Idx>(
            rng() % static_cast<std::uint64_t>(rows + 1));
        for (Idx k = 0; k < len; ++k) {
            const Idx r = static_cast<Idx>(
                rng() % static_cast<std::uint64_t>(rows));
            Value v = gen.next();
            while (std::isnan(v))
                v = gen.next(); // COO dedup would make NaN ambiguous
            coo.add(r, c, v);
        }
    }
    return CscMatrix::fromCoo(std::move(coo));
}

TEST(PackedSpanKernels, VxmSpanBitIdenticalToElementLoop)
{
    const CscMatrix a = raggedMatrix(64, 37, 1234);
    ValueGen gen(555);
    std::vector<Value> x(static_cast<std::size_t>(a.rows()));
    for (Value &v : x)
        v = gen.next();

    for (SemiringKind kind : kKinds) {
        const Semiring sr(kind);
        const std::vector<Value> want = vxmElement(sr, a, x);
        for (Idx lanes : {1, 2, 3, 4, 5, 7, 8}) {
            std::vector<Value> got(
                static_cast<std::size_t>(a.cols()), kNan);
            packed::vxmSpan(sr, lanes, a.colPtr().data(),
                            a.rowIdx().data(), a.vals().data(),
                            x.data(), got.data(), 0, a.cols());
            for (std::size_t i = 0; i < got.size(); ++i)
                EXPECT_TRUE(sameBits(got[i], want[i]))
                    << sr.name() << " lanes=" << lanes << " col "
                    << i << ": got " << got[i] << " want "
                    << want[i];
        }
    }
}

TEST(PackedSpanKernels, VxmSpanExactlySizedBuffers)
{
    // Heap buffers sized to the byte: any kernel read past nnz, past
    // the x vector, or past the column range trips ASan.
    const CscMatrix a = raggedMatrix(32, 13, 77);
    std::vector<Idx> col_ptr(a.colPtr());
    std::vector<Idx> row_idx(a.rowIdx());
    std::vector<Value> vals(a.vals());
    std::vector<Value> x(static_cast<std::size_t>(a.rows()), 1.0);
    for (SemiringKind kind : kKinds) {
        const Semiring sr(kind);
        const std::vector<Value> want = vxmElement(sr, a, x);
        for (Idx lanes : {3, 4, 8}) {
            std::vector<Value> out(
                static_cast<std::size_t>(a.cols()));
            packed::vxmSpan(sr, lanes, col_ptr.data(),
                            row_idx.data(), vals.data(), x.data(),
                            out.data(), 0, a.cols());
            for (std::size_t i = 0; i < out.size(); ++i)
                EXPECT_TRUE(sameBits(out[i], want[i]));
        }
    }
}

TEST(PackedSpanKernels, SpmmRowBitIdentical)
{
    ValueGen gen(31);
    for (SemiringKind kind : kKinds) {
        const Semiring sr(kind);
        for (std::size_t n : {1u, 5u, 16u, 33u}) {
            std::vector<Value> h(n), base(n);
            for (std::size_t i = 0; i < n; ++i) {
                h[i] = gen.next();
                base[i] = gen.next();
            }
            const Value aij = gen.next();
            std::vector<Value> want = base;
            for (std::size_t i = 0; i < n; ++i)
                want[i] = sr.add(want[i], sr.multiply(aij, h[i]));
            std::vector<Value> got = base;
            packed::spmmRow(sr, 8, aij, h.data(), got.data(), n);
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_TRUE(sameBits(got[i], want[i]))
                    << sr.name() << " n=" << n << " i=" << i;
        }
    }
}

TEST(PackedSpanKernels, EwiseSpansBitIdentical)
{
    const BinaryOp bops[] = {
        BinaryOp::Add, BinaryOp::Sub, BinaryOp::Mul, BinaryOp::Div,
        BinaryOp::Min, BinaryOp::Max, BinaryOp::AbsDiff,
        BinaryOp::Select, BinaryOp::First, BinaryOp::Second,
        BinaryOp::NotEqual,
    };
    const UnaryOp uops[] = {
        UnaryOp::Identity, UnaryOp::Abs, UnaryOp::Negate,
        UnaryOp::Reciprocal, UnaryOp::Signum, UnaryOp::IsNonZero,
        UnaryOp::Relu, UnaryOp::Sqrt,
    };
    ValueGen gen(41);
    const std::size_t n = 37;
    std::vector<Value> a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
        a[i] = gen.next();
        b[i] = gen.next();
    }
    const Value as = 0.75, bs = -0.0;
    const packed::Operand ov_a{a.data(), 0.0};
    const packed::Operand ov_b{b.data(), 0.0};
    const packed::Operand os_a{nullptr, as};
    const packed::Operand os_b{nullptr, bs};

    for (BinaryOp op : bops) {
        const struct
        {
            packed::Operand lhs, rhs;
        } shapes[] = {{ov_a, ov_b}, {ov_a, os_b}, {os_a, ov_b},
                      {os_a, os_b}};
        for (const auto &s : shapes) {
            std::vector<Value> got(n, kNan);
            packed::ewiseBinarySpan(op, 8, s.lhs, s.rhs, got.data(),
                                    n);
            for (std::size_t i = 0; i < n; ++i) {
                const Value want = applyBinary(
                    op, s.lhs.vec ? s.lhs.vec[i] : s.lhs.scalar,
                    s.rhs.vec ? s.rhs.vec[i] : s.rhs.scalar);
                EXPECT_TRUE(sameBits(got[i], want))
                    << binaryOpName(op) << " i=" << i;
            }
        }
    }
    for (UnaryOp op : uops) {
        std::vector<Value> got(n, kNan);
        packed::ewiseUnarySpan(op, 8, ov_a, got.data(), n);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_TRUE(sameBits(got[i], applyUnary(op, a[i])))
                << unaryOpName(op) << " i=" << i;
    }
}

TEST(PackedBackend, LaneResolution)
{
    EXPECT_GE(packed::preferredLanes(), 4);
    EXPECT_LE(packed::preferredLanes(), packed::kMaxLanes);
    EXPECT_EQ(packed::resolveLanes(0), packed::preferredLanes());
    EXPECT_EQ(packed::resolveLanes(-3), packed::preferredLanes());
    EXPECT_EQ(packed::resolveLanes(1), 1);
    EXPECT_EQ(packed::resolveLanes(3), 3);
    EXPECT_EQ(packed::resolveLanes(100), packed::kMaxLanes);
    // The backend name is one of the two known strategies.
    const std::string name = packed::backendName();
    EXPECT_TRUE(name == "avx2" || name == "portable") << name;
}

} // namespace
} // namespace sparsepipe
