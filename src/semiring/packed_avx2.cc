/**
 * @file
 * AVX2 specialization of the packed span kernels.
 *
 * Compiled with -mavx2 -ffp-contract=off (and *without* -mfma): the
 * element path rounds a*b then acc+ab in two steps, so the vector
 * path must too — a contracted FMA would change the last bit.
 *
 * Bit-identity notes per semiring:
 *  - lane = column, so each reduction keeps its sequential order;
 *  - the annihilation gate is a blend (conditional update), never
 *    compute-then-discard;
 *  - vminpd/vmaxpd with the fresh term as the first operand and the
 *    accumulator as the second reproduce std::min(acc, t) /
 *    std::max(acc, t) exactly, including NaN (returns acc) and
 *    signed-zero ordering;
 *  - masked gathers never touch memory behind an inactive lane, so
 *    ragged column tails cannot over-read (ASan-clean by design).
 */

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "semiring/packed_detail.hh"

namespace sparsepipe::packed::detail {

namespace {

#include "semiring/packed_loops.inc"

/** Lanes that are active *and* whose x passes the annihilation gate. */
template <SemiringKind SK>
inline __m256d
contribMask(__m256d xv, __m256d active)
{
    if constexpr (SK == SemiringKind::MaxMul) {
        return active; // never annihilates
    } else if constexpr (SK == SemiringKind::MinAdd) {
        const __m256d inf = _mm256_set1_pd(
            std::numeric_limits<Value>::infinity());
        // NEQ_UQ: unordered (NaN) compares true, matching x == inf
        // being false for NaN in the scalar gate.
        return _mm256_and_pd(active,
                             _mm256_cmp_pd(xv, inf, _CMP_NEQ_UQ));
    } else {
        return _mm256_and_pd(
            active,
            _mm256_cmp_pd(xv, _mm256_setzero_pd(), _CMP_NEQ_UQ));
    }
}

/**
 * add(acc, multiply(xv, vv)) per lane, assuming the lane already
 * passed contribMask (so xv != 0 for the gated semirings).
 */
template <SemiringKind SK>
inline __m256d
laneUpdate(__m256d acc, __m256d xv, __m256d vv)
{
    if constexpr (SK == SemiringKind::MulAdd) {
        return _mm256_add_pd(acc, _mm256_mul_pd(xv, vv));
    } else if constexpr (SK == SemiringKind::AndOr) {
        // Gated lanes have xv != 0, so multiply reduces to vv != 0
        // and add(acc, m) to (acc != 0 || vv != 0) ? 1 : 0.
        const __m256d zero = _mm256_setzero_pd();
        const __m256d nz = _mm256_or_pd(
            _mm256_cmp_pd(acc, zero, _CMP_NEQ_UQ),
            _mm256_cmp_pd(vv, zero, _CMP_NEQ_UQ));
        return _mm256_and_pd(nz, _mm256_set1_pd(1.0));
    } else if constexpr (SK == SemiringKind::MinAdd) {
        return _mm256_min_pd(_mm256_add_pd(xv, vv), acc);
    } else if constexpr (SK == SemiringKind::ArilAdd) {
        // Gated lanes have xv != 0, so multiply(xv, vv) == vv.
        return _mm256_add_pd(acc, vv);
    } else { // MaxMul
        return _mm256_max_pd(_mm256_mul_pd(xv, vv), acc);
    }
}

/**
 * V * 4 columns per group (V = 1 or 2 register chains), lane l of
 * chain v owning column c + 4v + l.  Column entries stream in step
 * order t; lanes whose column is shorter mask off and their gathers
 * touch no memory.
 */
template <SemiringKind SK, int V>
void
vxmGroups(const Idx *col_ptr, const Idx *row_idx, const Value *vals,
          const Value *x, Value *out, Idx c0, Idx c1)
{
    const auto *rows_ll = reinterpret_cast<const long long *>(row_idx);
    const Idx G = 4 * V;
    for (Idx c = c0; c + G <= c1; c += G) {
        __m256i ptr[V];
        __m256i len[V];
        __m256d acc[V];
        Idx maxlen = 0;
        for (int v = 0; v < V; ++v) {
            const Idx *p = col_ptr + c + 4 * v;
            ptr[v] = _mm256_setr_epi64x(p[0], p[1], p[2], p[3]);
            len[v] = _mm256_setr_epi64x(p[1] - p[0], p[2] - p[1],
                                        p[3] - p[2], p[4] - p[3]);
            acc[v] = _mm256_set1_pd(identityOf<SK>());
            for (int l = 0; l < 4; ++l)
                maxlen = std::max(maxlen, p[l + 1] - p[l]);
        }
        for (Idx t = 0; t < maxlen; ++t) {
            const __m256i tv = _mm256_set1_epi64x(t);
            for (int v = 0; v < V; ++v) {
                const __m256i act_i = _mm256_cmpgt_epi64(len[v], tv);
                const __m256d act = _mm256_castsi256_pd(act_i);
                if (!_mm256_movemask_pd(act))
                    continue; // chain fully drained at this step
                const __m256i idx = _mm256_add_epi64(ptr[v], tv);
                const __m256i rows = _mm256_mask_i64gather_epi64(
                    _mm256_setzero_si256(), rows_ll, idx, act_i, 8);
                const __m256d xv = _mm256_mask_i64gather_pd(
                    _mm256_setzero_pd(), x, rows, act, 8);
                const __m256d vv = _mm256_mask_i64gather_pd(
                    _mm256_setzero_pd(), vals, idx, act, 8);
                const __m256d m = contribMask<SK>(xv, act);
                acc[v] = _mm256_blendv_pd(
                    acc[v], laneUpdate<SK>(acc[v], xv, vv), m);
            }
        }
        for (int v = 0; v < V; ++v)
            _mm256_storeu_pd(out + c + 4 * v, acc[v]);
    }
}

} // anonymous namespace

void
vxmSpanAvx2(SemiringKind kind, Idx lanes, const Idx *col_ptr,
            const Idx *row_idx, const Value *vals, const Value *x,
            Value *out, Idx c0, Idx c1)
{
    withKind(kind, [&]<auto SK>() {
        if (lanes == 8)
            vxmGroups<SK, 2>(col_ptr, row_idx, vals, x, out, c0, c1);
        else
            vxmGroups<SK, 1>(col_ptr, row_idx, vals, x, out, c0, c1);
    });
}

void
spmmRowAvx2(SemiringKind kind, Value aij, const Value *h, Value *out,
            std::size_t n)
{
    spmmRowLoop(kind, aij, h, out, n);
}

void
ewiseBinaryAvx2(BinaryOp op, Operand a, Operand b, Value *out,
                std::size_t n)
{
    ewiseBinaryEntry(op, a, b, out, n);
}

void
ewiseUnaryAvx2(UnaryOp op, Operand a, Value *out, std::size_t n)
{
    ewiseUnaryEntry(op, a, out, n);
}

} // namespace sparsepipe::packed::detail
