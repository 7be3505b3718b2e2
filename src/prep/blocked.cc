#include "prep/blocked.hh"

#include <vector>

namespace sparsepipe {

Idx
BlockedLayout::sharedBytes() const
{
    // 8-byte value + two 1-byte in-block coordinates per non-zero,
    // shared between both orientations.
    return nnz * (value_bytes + 2);
}

Idx
BlockedLayout::indexBytes() const
{
    // Per non-empty block and per orientation: a 4-byte block
    // coordinate and a 4-byte pointer into the shared payload;
    // plus the two block-grid pointer arrays.
    Idx per_block = nonzero_blocks * (4 + 4) * 2;
    Idx grids = (grid_rows + 1 + grid_cols + 1) * 4;
    return per_block + grids;
}

double
BlockedLayout::bytesPerNonzero() const
{
    if (nnz == 0)
        return 0.0;
    return static_cast<double>(totalBytes()) /
           static_cast<double>(nnz);
}

Idx
dualStorageBytes(Idx nnz, Idx rows, Idx cols)
{
    // CSC and CSR each store value + 4-byte coordinate per non-zero
    // plus their pointer array.
    Idx per_format_payload = nnz * (value_bytes + coord_bytes);
    Idx ptrs = (rows + 1 + cols + 1) * 4;
    return 2 * per_format_payload + ptrs;
}

StatusOr<BlockedLayout>
buildBlockedLayout(const CsrMatrix &matrix, Idx block_size)
{
    if (block_size <= 0 || block_size > 256)
        return invalidInput(
            "buildBlockedLayout: block size %lld must be in (0, 256] "
            "for 1-byte in-block coordinates",
            static_cast<long long>(block_size));

    BlockedLayout layout;
    layout.block_size = block_size;
    layout.nnz = matrix.nnz();
    layout.grid_rows = (matrix.rows() + block_size - 1) / block_size;
    layout.grid_cols = (matrix.cols() + block_size - 1) / block_size;

    // Rows are visited in order, so block rows arrive in order too:
    // a block (br, bc) is new exactly when block column bc has not
    // yet been seen in block row br.
    std::vector<Idx> last_block_row(
        static_cast<std::size_t>(layout.grid_cols), -1);
    for (Idx r = 0; r < matrix.rows(); ++r) {
        const Idx br = r / block_size;
        for (Idx c : matrix.rowCols(r)) {
            Idx &seen = last_block_row[static_cast<std::size_t>(
                c / block_size)];
            if (seen != br) {
                seen = br;
                ++layout.nonzero_blocks;
            }
        }
    }
    return layout;
}

} // namespace sparsepipe
