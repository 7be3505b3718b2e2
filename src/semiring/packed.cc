#include "semiring/packed.hh"

#include <algorithm>

#include "semiring/packed_detail.hh"

namespace sparsepipe::packed {

namespace {

#include "semiring/packed_loops.inc"

/**
 * Portable K-column group step: lane l owns column c0 + l.  The
 * per-column entry walk is exactly the element loop (ascending
 * entries, annihilation skip, sequential accumulate), so each out[c]
 * is bit-identical to lanes = 1; lanes whose column is shorter than
 * the group's longest simply mask off (the tail-lane mask).
 */
template <SemiringKind SK, int K>
void
vxmGroup(const Idx *col_ptr, const Idx *row_idx, const Value *vals,
         const Value *x, Value *out, Idx c0)
{
    namespace det = detail;
    Idx ptr[K];
    Idx len[K];
    Value acc[K];
    Idx maxlen = 0;
    for (int l = 0; l < K; ++l) {
        ptr[l] = col_ptr[c0 + l];
        len[l] = col_ptr[c0 + l + 1] - ptr[l];
        acc[l] = det::identityOf<SK>();
        maxlen = std::max(maxlen, len[l]);
    }
    for (Idx t = 0; t < maxlen; ++t) {
        for (int l = 0; l < K; ++l) {
            if (t >= len[l])
                continue; // tail-lane mask: no loads behind the end
            const Idx k = ptr[l] + t;
            const Value xv =
                x[static_cast<std::size_t>(row_idx[k])];
            if (det::annihilatesOf<SK>(xv))
                continue;
            acc[l] = det::addOf<SK>(
                acc[l], det::mulOf<SK>(xv, vals[k]));
        }
    }
    for (int l = 0; l < K; ++l)
        out[c0 + l] = acc[l];
}

/** Scalar (element-path) column loop — the reference inner loop. */
template <SemiringKind SK>
void
vxmScalar(const Idx *col_ptr, const Idx *row_idx, const Value *vals,
          const Value *x, Value *out, Idx c0, Idx c1)
{
    namespace det = detail;
    for (Idx c = c0; c < c1; ++c) {
        Value acc = det::identityOf<SK>();
        for (Idx k = col_ptr[c]; k < col_ptr[c + 1]; ++k) {
            const Value xv =
                x[static_cast<std::size_t>(row_idx[k])];
            if (det::annihilatesOf<SK>(xv))
                continue;
            acc = det::addOf<SK>(acc, det::mulOf<SK>(xv, vals[k]));
        }
        out[c] = acc;
    }
}

template <SemiringKind SK>
void
vxmPortable(Idx lanes, const Idx *col_ptr, const Idx *row_idx,
            const Value *vals, const Value *x, Value *out, Idx c0,
            Idx c1)
{
    Idx c = c0;
    switch (lanes) {
#define SP_VXM_GROUPS(K)                                             \
      case K:                                                        \
        for (; c + K <= c1; c += K)                                  \
            vxmGroup<SK, K>(col_ptr, row_idx, vals, x, out, c);      \
        break
      SP_VXM_GROUPS(2);
      SP_VXM_GROUPS(3);
      SP_VXM_GROUPS(4);
      SP_VXM_GROUPS(5);
      SP_VXM_GROUPS(6);
      SP_VXM_GROUPS(7);
      SP_VXM_GROUPS(8);
#undef SP_VXM_GROUPS
      default:
        break; // lanes == 1: the scalar loop below takes it all
    }
    vxmScalar<SK>(col_ptr, row_idx, vals, x, out, c, c1);
}

bool
avx2Runtime()
{
#ifdef SPARSEPIPE_HAVE_AVX2
    static const bool ok = __builtin_cpu_supports("avx2") != 0;
    return ok;
#else
    return false;
#endif
}

} // anonymous namespace

bool
simdActive()
{
    return avx2Runtime();
}

const char *
backendName()
{
    return simdActive() ? "avx2" : "portable";
}

Idx
preferredLanes()
{
    // One cache line of values per group step.  On AVX2 too, 4 lanes
    // measured faster than 8 (DESIGN.md section 10).
    return 4;
}

Idx
resolveLanes(Idx requested)
{
    if (requested <= 0)
        return preferredLanes();
    return std::min<Idx>(requested, kMaxLanes);
}

void
vxmSpan(const Semiring &sr, Idx lanes, const Idx *col_ptr,
        const Idx *row_idx, const Value *vals, const Value *x,
        Value *out, Idx c0, Idx c1)
{
    lanes = std::clamp<Idx>(lanes, 1, kMaxLanes);
    Idx main = c0;
#ifdef SPARSEPIPE_HAVE_AVX2
    if (avx2Runtime() && (lanes == 4 || lanes == 8)) {
        main = c0 + (c1 - c0) / lanes * lanes;
        detail::vxmSpanAvx2(sr.kind(), lanes, col_ptr, row_idx, vals,
                            x, out, c0, main);
        lanes = 1; // tail columns run the scalar loop
    }
#endif
    detail::withKind(sr.kind(), [&]<auto SK>() {
        vxmPortable<SK>(lanes, col_ptr, row_idx, vals, x, out, main,
                        c1);
    });
}

void
spmmRow(const Semiring &sr, Idx lanes, Value aij, const Value *h,
        Value *out, std::size_t n)
{
#ifdef SPARSEPIPE_HAVE_AVX2
    if (lanes > 1 && avx2Runtime()) {
        detail::spmmRowAvx2(sr.kind(), aij, h, out, n);
        return;
    }
#endif
    (void)lanes;
    spmmRowLoop(sr.kind(), aij, h, out, n);
}

void
ewiseBinarySpan(BinaryOp op, Idx lanes, Operand a, Operand b,
                Value *out, std::size_t n)
{
#ifdef SPARSEPIPE_HAVE_AVX2
    if (lanes > 1 && avx2Runtime()) {
        detail::ewiseBinaryAvx2(op, a, b, out, n);
        return;
    }
#endif
    (void)lanes;
    ewiseBinaryEntry(op, a, b, out, n);
}

void
ewiseUnarySpan(UnaryOp op, Idx lanes, Operand a, Value *out,
               std::size_t n)
{
#ifdef SPARSEPIPE_HAVE_AVX2
    if (lanes > 1 && avx2Runtime()) {
        detail::ewiseUnaryAvx2(op, a, out, n);
        return;
    }
#endif
    (void)lanes;
    ewiseUnaryEntry(op, a, out, n);
}

} // namespace sparsepipe::packed
