/**
 * @file
 * Packed-SIMD value lanes for the semiring executors.
 *
 * A Packed<T, k> is k values processed per step, in the style of
 * PackedCSparse's FloatArray: a plain `T x[k]` struct whose lane ops
 * have a portable scalar-loop definition and an AVX2 specialization
 * selected at build time (CMake probe) plus run time (cpuid).  The
 * crucial contract is *bit identity with the element path*: every
 * lane op is defined as "the scalar semiring op applied per lane",
 * the span kernels assign one output element per lane (so each
 * reduction keeps its sequential element order and no floating-point
 * reassociation ever happens), and the AVX2 TU is compiled without
 * FMA contraction so a*b+c rounds exactly like the scalar code.
 *
 * Tail policy: every masked/gathered op takes an explicit lane mask
 * and must not touch memory behind an inactive lane — ragged column
 * tails are handled by masking, never by over-reading.
 */

#ifndef SPARSEPIPE_SEMIRING_PACKED_HH
#define SPARSEPIPE_SEMIRING_PACKED_HH

#include <cstddef>

#include "semiring/ewise.hh"
#include "semiring/semiring.hh"
#include "sparse/types.hh"
#include "util/logging.hh"

namespace sparsepipe::packed {

/** Widest supported lane count (one AVX2 register pair). */
inline constexpr int kMaxLanes = 8;

/** A register's worth of values: k lanes of T. */
template <typename T, int K>
struct Packed
{
    static_assert(K >= 1 && K <= kMaxLanes, "unsupported lane count");

    T x[K];

    static constexpr int lanes() { return K; }

    static Packed broadcast(T v)
    {
        Packed p;
        for (int l = 0; l < K; ++l)
            p.x[l] = v;
        return p;
    }

    /** Unmasked contiguous load of K elements. */
    static Packed load(const T *p)
    {
        Packed r;
        for (int l = 0; l < K; ++l)
            r.x[l] = p[l];
        return r;
    }

    /**
     * Tail-masked load: lanes [0, act) read p, lanes [act, K) hold
     * `fill` and do not touch memory.
     */
    static Packed loadMasked(const T *p, int act, T fill)
    {
        Packed r;
        for (int l = 0; l < K; ++l)
            r.x[l] = l < act ? p[l] : fill;
        return r;
    }

    /**
     * Masked gather: active lanes read base[idx.x[l]], inactive
     * lanes hold `fill` and do not touch memory.
     */
    static Packed gather(const T *base, const Packed<Idx, K> &idx,
                         const bool *active, T fill)
    {
        Packed r;
        for (int l = 0; l < K; ++l)
            r.x[l] = active[l]
                ? base[static_cast<std::size_t>(idx.x[l])] : fill;
        return r;
    }

    void store(T *p) const
    {
        for (int l = 0; l < K; ++l)
            p[l] = x[l];
    }

    /** Tail-masked store: only lanes [0, act) are written. */
    void storeMasked(T *p, int act) const
    {
        for (int l = 0; l < K && l < act; ++l)
            p[l] = x[l];
    }
};

template <int K>
using PackedV = Packed<Value, K>;

// ---- per-semiring lane operations ---------------------------------
//
// Each op is the scalar Semiring op applied lane-wise; a null
// `active` mask means all lanes.  Inactive lanes keep the
// accumulator / left operand unchanged.

/** Additive identity broadcast into every lane. */
template <int K>
inline PackedV<K>
addIdentity(const Semiring &sr)
{
    return PackedV<K>::broadcast(sr.addIdentity());
}

/** Lane-wise additive monoid. */
template <int K>
inline PackedV<K>
add(const Semiring &sr, const PackedV<K> &a, const PackedV<K> &b,
    const bool *active = nullptr)
{
    PackedV<K> r = a;
    for (int l = 0; l < K; ++l)
        if (!active || active[l])
            r.x[l] = sr.add(a.x[l], b.x[l]);
    return r;
}

/** Lane-wise multiplicative map. */
template <int K>
inline PackedV<K>
mul(const Semiring &sr, const PackedV<K> &a, const PackedV<K> &b,
    const bool *active = nullptr)
{
    PackedV<K> r = a;
    for (int l = 0; l < K; ++l)
        if (!active || active[l])
            r.x[l] = sr.multiply(a.x[l], b.x[l]);
    return r;
}

/**
 * The gated accumulate every sparse executor loop is built from:
 *
 *   acc[l] = add(acc[l], multiply(x[l], v[l]))
 *
 * for lanes that are active and whose x does not annihilate; all
 * other lanes keep acc unchanged.  The annihilation gate must be a
 * *conditional update*, not compute-then-discard: And-Or's add
 * normalizes to {0, 1} and Mul-Add's -0.0 + 0.0 would otherwise
 * differ from the skipped scalar iteration.
 */
template <int K>
inline void
madd(const Semiring &sr, PackedV<K> &acc, const PackedV<K> &x,
     const PackedV<K> &v, const bool *active = nullptr)
{
    for (int l = 0; l < K; ++l) {
        if (active && !active[l])
            continue;
        if (sr.annihilates(x.x[l]))
            continue;
        acc.x[l] = sr.add(acc.x[l], sr.multiply(x.x[l], v.x[l]));
    }
}

/**
 * Fused negative multiply-add, acc = add(acc, -multiply(x, v)), for
 * the arithmetic (ring-like) semirings where the additive monoid has
 * inverses, with the same annihilation gate as madd().  Panics for
 * And-Or / Min-Add / Max-Mul, which have none.
 */
template <int K>
inline void
fnmadd(const Semiring &sr, PackedV<K> &acc, const PackedV<K> &x,
       const PackedV<K> &v, const bool *active = nullptr)
{
    if (sr.kind() != SemiringKind::MulAdd &&
        sr.kind() != SemiringKind::ArilAdd)
        sp_panic("packed::fnmadd: semiring '%s' has no additive "
                 "inverse", sr.name());
    for (int l = 0; l < K; ++l) {
        if (active && !active[l])
            continue;
        if (sr.annihilates(x.x[l]))
            continue;
        acc.x[l] = sr.add(acc.x[l], -sr.multiply(x.x[l], v.x[l]));
    }
}

// ---- backend selection --------------------------------------------

/** True when the AVX2 backend is compiled in and the CPU has it. */
bool simdActive();

/** Auto lane width: 4, on the AVX2 and the portable backend. */
Idx preferredLanes();

/** Resolve a config knob: <= 0 is auto, otherwise clamp to kMaxLanes. */
Idx resolveLanes(Idx requested);

/** Backend name for logs / bench metadata ("avx2" / "portable"). */
const char *backendName();

// ---- span kernels -------------------------------------------------
//
// These are the k-lane versions of the executor element loops.  They
// operate on raw CSC-layout arrays so both the OS stage (columns of
// the producer operand) and the IS stage (the scatter rewritten as a
// pull over the consumer operand's CSC twin) use the same kernel.

/**
 * Column-block semiring reduction, `lanes` columns per step:
 *
 *   out[c] = fold_k add(acc, multiply(x[row_idx[k]], vals[k]))
 *
 * over column c's entries in ascending order, skipping annihilated
 * x just like the element loop, for c in [c0, c1).  Each lane owns
 * one column, so per-column reduction order — and therefore every
 * bit of the result — matches lanes = 1 exactly.
 */
void vxmSpan(const Semiring &sr, Idx lanes, const Idx *col_ptr,
             const Idx *row_idx, const Value *vals, const Value *x,
             Value *out, Idx c0, Idx c1);

/**
 * Dense SpMM row update: out[f] = add(out[f], multiply(aij, h[f]))
 * for f in [0, n).  Elementwise over distinct indices, so any lane
 * width is trivially bit-identical.
 */
void spmmRow(const Semiring &sr, Idx lanes, Value aij, const Value *h,
             Value *out, std::size_t n);

/** Broadcastable slab operand: null vec means scalar broadcast. */
struct Operand
{
    const Value *vec = nullptr;
    Value scalar = 0.0;
};

/** Element-wise binary opcode over a slab. */
void ewiseBinarySpan(BinaryOp op, Idx lanes, Operand a, Operand b,
                     Value *out, std::size_t n);

/** Element-wise unary opcode over a slab. */
void ewiseUnarySpan(UnaryOp op, Idx lanes, Operand a, Value *out,
                    std::size_t n);

} // namespace sparsepipe::packed

#endif // SPARSEPIPE_SEMIRING_PACKED_HH
