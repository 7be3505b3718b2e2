#include "check/case_gen.hh"

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "lang/builder.hh"
#include "sparse/generate.hh"
#include "util/random.hh"

namespace sparsepipe {

namespace {

/** Program shapes, one per scheduling regime of the simulator. */
enum class Archetype { Cross, Intra, Stream, Elementwise, Spmm };

/** Matrix distribution classes (mirrors the dataset registry). */
enum class Shape { Uniform, Rmat, Banded, Clustered, LowerSkew,
                   Poisson };

/**
 * Sample a square matrix of one of the six shape classes.  Poisson
 * snaps n to the nearest grid square.
 */
CooMatrix
sampleMatrix(Idx &n, Rng &rng)
{
    const Shape shape = static_cast<Shape>(rng.nextBelow(6));
    const Idx nnz = n * (2 + static_cast<Idx>(rng.nextBelow(5)));
    CooMatrix m;
    switch (shape) {
      case Shape::Uniform:
        m = generateUniform(n, nnz, rng);
        break;
      case Shape::Rmat:
        m = generateRmat(n, nnz, rng);
        break;
      case Shape::Banded: {
        const Idx band = 1 + static_cast<Idx>(
            rng.nextBelow(static_cast<std::uint64_t>(
                std::max<Idx>(1, n / 4))));
        m = generateBanded(n, band, rng.nextRange(1.0, 5.0), rng);
        break;
      }
      case Shape::Clustered:
        m = generateClustered(n, nnz,
                              2 + static_cast<Idx>(rng.nextBelow(4)),
                              rng.nextRange(0.6, 0.95), rng);
        break;
      case Shape::LowerSkew:
        m = generateLowerSkew(n, nnz, rng.nextRange(0.5, 0.95), rng);
        break;
      case Shape::Poisson: {
        const Idx grid = std::max<Idx>(
            3, static_cast<Idx>(std::sqrt(static_cast<double>(n))));
        n = grid * grid;
        m = generatePoisson2D(grid);
        break;
      }
    }
    m.canonicalize();
    return m;
}

/**
 * Replace matrix values with ones safe for the semiring: finite,
 * moderate, and inside the domain its reduction expects (AndOr wants
 * truthy, MaxMul wants non-negative).
 */
void
resampleMatrixValues(CooMatrix &m, SemiringKind kind, Rng &rng)
{
    for (Triplet &t : m.entries()) {
        switch (kind) {
          case SemiringKind::MulAdd:
          case SemiringKind::ArilAdd: {
            double v = rng.nextRange(-1.0, 1.0);
            t.val = v == 0.0 ? 0.5 : v;
            break;
          }
          case SemiringKind::AndOr:
            t.val = 1.0;
            break;
          case SemiringKind::MinAdd:
            t.val = rng.nextRange(0.0, 10.0);
            break;
          case SemiringKind::MaxMul:
            t.val = rng.nextRange(0.1, 2.0);
            break;
        }
    }
}

/** Sample one initial vector element for the semiring's domain. */
Value
sampleVecValue(SemiringKind kind, Rng &rng)
{
    switch (kind) {
      case SemiringKind::MulAdd:
      case SemiringKind::ArilAdd:
        return rng.nextRange(-1.0, 1.0);
      case SemiringKind::AndOr:
        return rng.nextBool(0.5) ? 1.0 : 0.0;
      case SemiringKind::MinAdd:
        // SSSP-style frontier: most nodes start unreached (+inf).
        return rng.nextBool(0.25)
            ? std::numeric_limits<Value>::infinity()
            : rng.nextRange(0.0, 10.0);
      case SemiringKind::MaxMul:
        return rng.nextRange(0.0, 2.0);
    }
    return 0.0;
}

DenseVector
sampleVector(Idx n, SemiringKind kind, Rng &rng)
{
    DenseVector v(static_cast<std::size_t>(n));
    for (Value &x : v)
        x = sampleVecValue(kind, rng);
    return v;
}

/**
 * Non-exploding binary ops usable on the producer-consumer chain.
 * Multiplication only happens against a damping-style scalar
 * constant in (0, 1), so carried values stay bounded across
 * iterations (growth per iteration is at most ~max-degree).
 */
BinaryOp
sampleChainBop(SemiringKind kind, Rng &rng)
{
    switch (kind) {
      case SemiringKind::MulAdd:
      case SemiringKind::ArilAdd: {
        static const BinaryOp ops[] = {BinaryOp::Add, BinaryOp::Min,
                                       BinaryOp::Max, BinaryOp::Select};
        return ops[rng.nextBelow(4)];
      }
      case SemiringKind::AndOr: {
        static const BinaryOp ops[] = {BinaryOp::Min, BinaryOp::Max,
                                       BinaryOp::Select};
        return ops[rng.nextBelow(3)];
      }
      case SemiringKind::MinAdd:
      case SemiringKind::MaxMul: {
        static const BinaryOp ops[] = {BinaryOp::Min, BinaryOp::Max};
        return ops[rng.nextBelow(2)];
      }
    }
    return BinaryOp::Min;
}

UnaryOp
sampleChainUop(SemiringKind kind, Rng &rng)
{
    switch (kind) {
      case SemiringKind::MulAdd:
      case SemiringKind::ArilAdd: {
        static const UnaryOp ops[] = {UnaryOp::Identity, UnaryOp::Abs,
                                      UnaryOp::Relu, UnaryOp::Signum};
        return ops[rng.nextBelow(4)];
      }
      case SemiringKind::AndOr: {
        static const UnaryOp ops[] = {UnaryOp::Identity,
                                      UnaryOp::IsNonZero};
        return ops[rng.nextBelow(2)];
      }
      case SemiringKind::MinAdd:
      case SemiringKind::MaxMul: {
        static const UnaryOp ops[] = {UnaryOp::Identity, UnaryOp::Abs};
        return ops[rng.nextBelow(2)];
      }
    }
    return UnaryOp::Identity;
}

/** True for the semirings whose vxm reduction reassociates (float +). */
bool
tolerantSemiring(SemiringKind kind)
{
    return kind == SemiringKind::MulAdd || kind == SemiringKind::ArilAdd;
}

/**
 * Emit 0..max_len element-wise ops transforming `cur`, reading only
 * `cur`, the loop input `x`, and fresh scalar constants (never a
 * stale temp, so all paths see identical operand values).
 * @return the final tensor of the chain
 */
TensorId
emitChain(ProgramBuilder &b, SemiringKind kind, Rng &rng, Idx n,
          TensorId cur, TensorId x, int max_len)
{
    const int len = static_cast<int>(
        rng.nextBelow(static_cast<std::uint64_t>(max_len + 1)));
    for (int i = 0; i < len; ++i) {
        const std::string tname = "t" + std::to_string(i);
        const TensorId out = b.vector(tname, n);
        const int pick = static_cast<int>(rng.nextBelow(3));
        if (pick == 0) {
            b.apply(out, sampleChainUop(kind, rng), cur);
        } else if (pick == 1 && tolerantSemiring(kind)) {
            // PageRank-style damping: scale by a constant in (0, 1).
            const TensorId d = b.constant(
                "d" + std::to_string(i), rng.nextRange(0.2, 0.95));
            b.eWise(out, BinaryOp::Mul, cur, d);
        } else {
            b.eWise(out, sampleChainBop(kind, rng), cur, x);
        }
        cur = out;
    }
    return cur;
}

/**
 * Optional residual + convergence, for AndOr, MinAdd and MaxMul
 * programs only.  Every path matches the reference bit for bit under
 * MulAdd and ArilAdd too, but widening the rule would change the
 * case every seed generates, and with it what the corpus and the CI
 * seeds pin.
 */
void
maybeEmitConvergence(ProgramBuilder &b, SemiringKind kind, Rng &rng,
                     Idx n, TensorId cur, TensorId x)
{
    if (tolerantSemiring(kind) || !rng.nextBool(0.5))
        return;
    const TensorId diff = b.vector("diff", n);
    b.eWise(diff, BinaryOp::NotEqual, cur, x);
    const TensorId res = b.scalar("res", 0.0);
    b.fold(res, BinaryOp::Add, diff);
    b.converge(res, 0.5); // stop once no element changed
}

} // anonymous namespace

FuzzCase
generateCase(std::uint64_t seed, const GenOptions &opts)
{
    Rng rng(mixSeed(seed, 0x66757a7aULL)); // "fuzz"

    FuzzCase fuzz;
    fuzz.name = "case-" + std::to_string(seed);
    fuzz.seed = seed;

    // ---- archetype / semiring / matrix -----------------------------
    Archetype arch;
    {
        const std::uint64_t r = rng.nextBelow(100);
        if (r < 35)      arch = Archetype::Cross;
        else if (r < 55) arch = Archetype::Intra;
        else if (r < 75) arch = Archetype::Stream;
        else if (r < 90) arch = Archetype::Elementwise;
        else             arch = opts.allow_spmm ? Archetype::Spmm
                                                : Archetype::Cross;
    }
    const SemiringKind kind = arch == Archetype::Spmm
        ? SemiringKind::MulAdd
        : static_cast<SemiringKind>(rng.nextBelow(5));
    const Semiring sr(kind);

    Idx n = opts.min_n + static_cast<Idx>(rng.nextBelow(
        static_cast<std::uint64_t>(opts.max_n - opts.min_n + 1)));
    fuzz.operand = sampleMatrix(n, rng);
    resampleMatrixValues(fuzz.operand, kind, rng);

    fuzz.iters = 2 + static_cast<Idx>(rng.nextBelow(
        static_cast<std::uint64_t>(opts.max_iters - 1)));
    fuzz.oei_sub_tensor = 1 + static_cast<Idx>(
        rng.nextBelow(static_cast<std::uint64_t>(n)));

    // ---- program ----------------------------------------------------
    ProgramBuilder b("fuzz-" + std::to_string(seed));
    const TensorId a = b.matrix("A", n, n);
    fuzz.matrix = a;
    const TensorId x = b.vector("x", n);
    fuzz.vec_init.emplace_back(x, sampleVector(n, kind, rng));

    switch (arch) {
      case Archetype::Cross: {
        const TensorId y = b.vector("y", n);
        b.vxm(y, x, a, sr);
        const TensorId fin = emitChain(b, kind, rng, n, y, x, 3);
        maybeEmitConvergence(b, kind, rng, n, fin, x);
        b.carry(x, fin);
        break;
      }
      case Archetype::Intra: {
        const TensorId y1 = b.vector("y1", n);
        b.vxm(y1, x, a, sr);
        const TensorId mid = emitChain(b, kind, rng, n, y1, x, 1);
        const TensorId y2 = b.vector("y2", n);
        b.vxm(y2, mid, a, sr);
        const TensorId fin = emitChain(b, kind, rng, n, y2, x, 1);
        b.carry(x, fin);
        break;
      }
      case Archetype::Stream: {
        // A full reduction ON the producer-consumer path blocks OEI
        // fusion (cg/bgs-style), forcing the stream fallback.
        const TensorId y = b.vector("y", n);
        b.vxm(y, x, a, sr);
        const TensorId s = b.scalar("s", 0.0);
        BinaryOp monoid = BinaryOp::Max;
        BinaryOp merge = BinaryOp::Min;
        switch (kind) {
          case SemiringKind::MinAdd:
            monoid = BinaryOp::Min; merge = BinaryOp::Max; break;
          case SemiringKind::MulAdd:
          case SemiringKind::ArilAdd:
          case SemiringKind::AndOr:
          case SemiringKind::MaxMul:
            monoid = BinaryOp::Max; merge = BinaryOp::Min; break;
        }
        if (kind == SemiringKind::MulAdd && rng.nextBool(0.4))
            b.dotOp(s, y, x);
        else
            b.fold(s, monoid, y);
        const TensorId y2 = b.vector("y2", n);
        b.eWise(y2, merge, y, s);
        b.carry(x, y2);
        break;
      }
      case Archetype::Elementwise: {
        const TensorId w = b.vector("w", n);
        fuzz.vec_init.emplace_back(w, sampleVector(n, kind, rng));
        TensorId cur = x;
        const int len =
            2 + static_cast<int>(rng.nextBelow(3));
        for (int i = 0; i < len; ++i) {
            const TensorId out =
                b.vector("e" + std::to_string(i), n);
            if (rng.nextBool(0.5))
                b.eWise(out, sampleChainBop(kind, rng), cur, w);
            else
                b.apply(out, sampleChainUop(kind, rng), cur);
            cur = out;
        }
        maybeEmitConvergence(b, kind, rng, n, cur, x);
        b.carry(x, cur);
        if (rng.nextBool(0.5))
            b.carry(w, x);
        break;
      }
      case Archetype::Spmm: {
        // GCN layer: Z = A x H, O = Z x W, H' = relu(O).  Weight
        // values are scaled by 1/f so carried features stay bounded.
        const Idx f = 2 + static_cast<Idx>(rng.nextBelow(3));
        const TensorId h = b.dense("H", n, f);
        const TensorId w = b.dense("W", f, f, /*constant=*/true);
        const TensorId z = b.dense("Z", n, f);
        const TensorId o = b.dense("O", n, f);
        b.spmm(z, a, h, sr);
        b.mm(o, z, w);
        const TensorId h2 = b.dense("H2", n, f);
        b.apply(h2, UnaryOp::Relu, o);
        b.carry(h, h2);

        std::vector<Value> hv(static_cast<std::size_t>(n * f));
        for (Value &v : hv)
            v = rng.nextRange(-1.0, 1.0);
        fuzz.den_init.emplace_back(h, std::move(hv));
        std::vector<Value> wv(static_cast<std::size_t>(f * f));
        for (Value &v : wv)
            v = rng.nextRange(-0.5, 0.5) / static_cast<double>(f);
        fuzz.den_init.emplace_back(w, std::move(wv));
        break;
      }
    }
    fuzz.program = b.build();

    // ---- simulator configuration ------------------------------------
    fuzz.config = SparsepipeConfig{};
    fuzz.config.buffer_bytes = static_cast<Idx>(
        std::exp2(rng.nextRange(12.0, 21.0))); // 4 KB .. 2 MB
    fuzz.config.bytes_per_nz = rng.nextRange(6.0, 12.0);
    fuzz.config.eager_csr = rng.nextBool(0.5);
    {
        static const Idx choices[] = {0, 0, 8, 32};
        fuzz.config.sub_tensor_cols = choices[rng.nextBelow(4)];
    }
    fuzz.config.lag = 1 + static_cast<Idx>(rng.nextBelow(4));
    if (rng.nextBool(0.2))
        fuzz.config.dram = DramConfig::ddr4();

    return fuzz;
}

} // namespace sparsepipe
