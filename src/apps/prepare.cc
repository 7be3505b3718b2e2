#include "apps/apps.hh"

#include <algorithm>
#include <cmath>

#include "sparse/generate.hh"
#include "util/logging.hh"

namespace sparsepipe {

Idx
resolveSource(const CsrMatrix &matrix, Idx source)
{
    if (source >= 0)
        return source;
    Idx best = 0, best_deg = -1;
    for (Idx r = 0; r < matrix.rows(); ++r) {
        if (matrix.rowNnz(r) > best_deg) {
            best_deg = matrix.rowNnz(r);
            best = r;
        }
    }
    return best;
}

CsrMatrix
Prepare::operator()(CooMatrix m) const
{
    switch (kind) {
      case PrepareKind::Boolean:    return prepareBoolean(std::move(m));
      case PrepareKind::Stochastic: return prepareStochastic(std::move(m));
      case PrepareKind::Weighted:   return prepareWeighted(std::move(m));
      case PrepareKind::Spd:        return prepareSpd(std::move(m));
    }
    sp_panic("Prepare: bad kind %d", static_cast<int>(kind));
    __builtin_unreachable();
}

CsrMatrix
prepareBoolean(CooMatrix m)
{
    for (Triplet &t : m.entries())
        t.val = 1.0;
    return CsrMatrix::fromCoo(std::move(m));
}

CsrMatrix
prepareStochastic(CooMatrix m)
{
    return CsrMatrix::fromCoo(rowStochastic(std::move(m)));
}

CsrMatrix
prepareWeighted(CooMatrix m)
{
    for (Triplet &t : m.entries()) {
        if (t.val <= 0.0)
            t.val = 0.1;
    }
    return CsrMatrix::fromCoo(std::move(m));
}

CsrMatrix
prepareSpd(CooMatrix m)
{
    if (m.rows() != m.cols())
        sp_panic("prepareSpd: matrix must be square");
    // Generators, reorders and the MatrixMarket reader all hand over
    // canonical matrices, so fromCoo is one scan plus the compress.
    const CsrMatrix a = CsrMatrix::fromCoo(std::move(m));
    const CscMatrix a_cols = CscMatrix::fromCsr(a);
    const Idx n = a.rows();

    // Row r of B = (A + A^T) / 2 merges row r of A with column r of
    // A.  Each half is rounded before the add, upper-triangle source
    // first, and exact zeros drop — the same arithmetic as summing
    // the two COO halves in stable row-major order.  The diagonal is
    // replaced by 1 + sum_j |b_rj| (column order) for dominance; its
    // slot sits between the two merge passes and is filled last.
    std::vector<Idx> row_ptr(static_cast<std::size_t>(n) + 1, 0);
    std::vector<Idx> col_idx;
    std::vector<Value> vals;
    const std::size_t bound =
        2 * static_cast<std::size_t>(a.nnz()) + static_cast<std::size_t>(n);
    col_idx.reserve(bound);
    vals.reserve(bound);
    for (Idx r = 0; r < n; ++r) {
        const auto row_cols = a.rowCols(r);
        const auto row_vals = a.rowVals(r);
        const auto col_rows = a_cols.colRows(r);
        const auto col_vals = a_cols.colVals(r);
        std::size_t i = 0, k = 0;
        Value abs_sum = 0.0;
        // Merge both sources' entries with column < end (an
        // exhausted source reads as column n).
        const auto merge_below = [&](Idx end) {
            for (;;) {
                const Idx jr = i < row_cols.size() ? row_cols[i] : n;
                const Idx jc = k < col_rows.size() ? col_rows[k] : n;
                const Idx j = std::min(jr, jc);
                if (j >= end)
                    return;
                const Value *in_row = jr == j ? &row_vals[i++] : nullptr;
                const Value *in_col = jc == j ? &col_vals[k++] : nullptr;
                Value b = 0.5 * (in_row ? *in_row : *in_col);
                if (in_row && in_col) {
                    const Value upper_half =
                        0.5 * (j > r ? *in_row : *in_col);
                    const Value lower_half =
                        0.5 * (j > r ? *in_col : *in_row);
                    b = upper_half + lower_half;
                }
                if (b == 0.0)
                    continue;
                col_idx.push_back(j);
                vals.push_back(b);
                abs_sum += std::abs(b);
            }
        };
        merge_below(r);
        // A stored diagonal is replaced, not merged.
        if (i < row_cols.size() && row_cols[i] == r)
            ++i;
        if (k < col_rows.size() && col_rows[k] == r)
            ++k;
        const std::size_t diag = col_idx.size();
        col_idx.push_back(r);
        vals.push_back(0.0);
        merge_below(n);
        vals[diag] = 1.0 + abs_sum;
        row_ptr[static_cast<std::size_t>(r) + 1] =
            static_cast<Idx>(col_idx.size());
    }
    return CsrMatrix::fromParts(n, n, std::move(row_ptr),
                                std::move(col_idx), std::move(vals));
}

} // namespace sparsepipe
