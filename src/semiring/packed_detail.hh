/**
 * @file
 * Internals shared by the portable and AVX2 packed-kernel TUs.
 *
 * The kind-templated scalar ops here must mirror Semiring / ewise
 * exactly — they exist so the kernel inner loops specialize per
 * semiring at compile time instead of switching per element.
 */

#ifndef SPARSEPIPE_SEMIRING_PACKED_DETAIL_HH
#define SPARSEPIPE_SEMIRING_PACKED_DETAIL_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

#include "semiring/packed.hh"

namespace sparsepipe::packed::detail {

template <SemiringKind SK>
constexpr Value
identityOf()
{
    if constexpr (SK == SemiringKind::MinAdd)
        return std::numeric_limits<Value>::infinity();
    else if constexpr (SK == SemiringKind::MaxMul)
        return -std::numeric_limits<Value>::infinity();
    else
        return 0.0;
}

template <SemiringKind SK>
inline bool
annihilatesOf(Value x)
{
    if constexpr (SK == SemiringKind::MinAdd)
        return x == std::numeric_limits<Value>::infinity();
    else if constexpr (SK == SemiringKind::MaxMul)
        return false;
    else
        return x == 0.0;
}

template <SemiringKind SK>
inline Value
addOf(Value a, Value b)
{
    if constexpr (SK == SemiringKind::AndOr)
        return (a != 0.0 || b != 0.0) ? 1.0 : 0.0;
    else if constexpr (SK == SemiringKind::MinAdd)
        return std::min(a, b);
    else if constexpr (SK == SemiringKind::MaxMul)
        return std::max(a, b);
    else
        return a + b;
}

template <SemiringKind SK>
inline Value
mulOf(Value a, Value b)
{
    if constexpr (SK == SemiringKind::AndOr)
        return (a != 0.0 && b != 0.0) ? 1.0 : 0.0;
    else if constexpr (SK == SemiringKind::MinAdd)
        return a + b;
    else if constexpr (SK == SemiringKind::ArilAdd)
        return a != 0.0 ? b : 0.0;
    else
        return a * b;
}

/** Dispatch a callable templated on SemiringKind. */
template <typename Fn>
inline void
withKind(SemiringKind kind, Fn &&fn)
{
    switch (kind) {
      case SemiringKind::MulAdd:
        fn.template operator()<SemiringKind::MulAdd>();
        return;
      case SemiringKind::AndOr:
        fn.template operator()<SemiringKind::AndOr>();
        return;
      case SemiringKind::MinAdd:
        fn.template operator()<SemiringKind::MinAdd>();
        return;
      case SemiringKind::ArilAdd:
        fn.template operator()<SemiringKind::ArilAdd>();
        return;
      case SemiringKind::MaxMul:
        fn.template operator()<SemiringKind::MaxMul>();
        return;
    }
    sp_panic("packed: bad semiring kind");
}

#ifdef SPARSEPIPE_HAVE_AVX2
// Entry points of the AVX2 TU (compiled with -mavx2 and
// -ffp-contract=off; callers must check the cpuid gate first).
// vxmSpanAvx2 requires lanes in {4, 8} and (c1 - c0) % lanes == 0.
void vxmSpanAvx2(SemiringKind kind, Idx lanes, const Idx *col_ptr,
                 const Idx *row_idx, const Value *vals,
                 const Value *x, Value *out, Idx c0, Idx c1);
void spmmRowAvx2(SemiringKind kind, Value aij, const Value *h,
                 Value *out, std::size_t n);
void ewiseBinaryAvx2(BinaryOp op, Operand a, Operand b, Value *out,
                     std::size_t n);
void ewiseUnaryAvx2(UnaryOp op, Operand a, Value *out,
                    std::size_t n);
#endif

} // namespace sparsepipe::packed::detail

#endif // SPARSEPIPE_SEMIRING_PACKED_DETAIL_HH
