#include "apps/apps.hh"

#include <algorithm>
#include <cmath>

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

namespace {

/**
 * The value an operand of a value kind (Boolean, Stochastic,
 * Weighted) stores for an entry `val` of a row of `row_nnz` entries.
 */
Value
kindValue(PrepareKind kind, Value val, Idx row_nnz)
{
    switch (kind) {
      case PrepareKind::Boolean:    return 1.0;
      case PrepareKind::Stochastic: return 1.0 / static_cast<Value>(row_nnz);
      case PrepareKind::Weighted:   return val <= 0.0 ? 0.1 : val;
      case PrepareKind::Spd:        break;
    }
    sp_panic("Prepare: kind %d changes coordinates, not only values",
             static_cast<int>(kind));
    __builtin_unreachable();
}

/** kindValue of each entry of canonical `a`, in its row order. */
std::vector<Value>
rowValues(PrepareKind kind, const CsrMatrix &a)
{
    std::vector<Value> out(a.vals().size());
    const std::vector<Idx> &ptr = a.rowPtr();
    for (Idx r = 0; r < a.rows(); ++r) {
        const Idx row_nnz = a.rowNnz(r);
        for (Idx k = ptr[r]; k < ptr[r + 1]; ++k)
            out[k] = kindValue(kind, a.vals()[k], row_nnz);
    }
    return out;
}

/** The same values in the column order of `a_cols`, a's CSC twin. */
std::vector<Value>
colValues(PrepareKind kind, const CsrMatrix &a, const CscMatrix &a_cols)
{
    std::vector<Value> out(a_cols.vals().size());
    const std::vector<Idx> &rows = a_cols.rowIdx();
    for (std::size_t k = 0; k < out.size(); ++k)
        out[k] = kindValue(kind, a_cols.vals()[k], a.rowNnz(rows[k]));
    return out;
}

} // anonymous namespace

CsrMatrix
Prepare::operator()(CooMatrix m) const
{
    if (kind == PrepareKind::Spd)
        return prepareSpd(std::move(m));
    // Boolean and Weighted map each triplet before fromCoo merges
    // duplicates and drops zeros; Stochastic counts each row after.
    // On a canonical matrix both orders give operator()(a, a_cols).
    if (kind != PrepareKind::Stochastic)
        for (Triplet &t : m.entries())
            t.val = kindValue(kind, t.val, 0);
    CsrMatrix a = CsrMatrix::fromCoo(m);
    if (kind == PrepareKind::Stochastic)
        return a.withValues(rowValues(kind, a));
    return a;
}

std::pair<CsrMatrix, CscMatrix>
Prepare::operator()(const CsrMatrix &a, const CscMatrix &a_cols) const
{
    if (kind == PrepareKind::Spd) {
        CsrMatrix spd = prepareSpd(a, a_cols);
        CscMatrix twin = CscMatrix::fromSymmetric(spd);
        return {std::move(spd), std::move(twin)};
    }
    return {a.withValues(rowValues(kind, a)),
            a_cols.withValues(colValues(kind, a, a_cols))};
}

CsrMatrix
prepareBoolean(CooMatrix m)
{
    return Prepare{PrepareKind::Boolean}(std::move(m));
}

CsrMatrix
prepareStochastic(CooMatrix m)
{
    return Prepare{PrepareKind::Stochastic}(std::move(m));
}

CsrMatrix
prepareWeighted(CooMatrix m)
{
    return Prepare{PrepareKind::Weighted}(std::move(m));
}

CsrMatrix
prepareSpd(CooMatrix m)
{
    const CsrMatrix a = CsrMatrix::fromCoo(m);
    return prepareSpd(a, CscMatrix::fromCsr(a));
}

CsrMatrix
prepareSpd(const CsrMatrix &a, const CscMatrix &a_cols)
{
    if (a.rows() != a.cols())
        sp_panic("prepareSpd: matrix must be square");
    if (a_cols.rows() != a.rows() || a_cols.cols() != a.cols() ||
        a_cols.nnz() != a.nnz())
        sp_panic("prepareSpd: the CSC form is not the CSR's twin");
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
