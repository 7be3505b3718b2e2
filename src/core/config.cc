#include "core/config.hh"

#include <algorithm>
#include <cmath>

namespace sparsepipe {

Idx
SparsepipeConfig::resolveSubTensor(Idx cols, Idx nnz) const
{
    if (sub_tensor_cols > 0)
        return sub_tensor_cols;
    // Enough steps to software-pipeline the four stages, but at
    // least ~2k non-zeros of work per step so fixed per-step costs
    // (dispatch, reduction drain) stay negligible.
    Idx steps = 512;
    if (nnz > 0)
        steps = std::clamp<Idx>(nnz / 2048, 32, 512);
    Idx t = (cols + steps - 1) / steps;
    return std::clamp<Idx>(t, 16, 16384);
}

Idx
SparsepipeConfig::bytesPerElem() const
{
    return std::max<Idx>(1, static_cast<Idx>(std::ceil(bytes_per_nz)));
}

Idx
SparsepipeConfig::bufferCapacityElems() const
{
    return buffer_bytes / bytesPerElem();
}

} // namespace sparsepipe
