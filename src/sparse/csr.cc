#include "sparse/csr.hh"

#include "util/logging.hh"

namespace sparsepipe {

namespace {

/**
 * Build compressed pointers/indices from sorted triplets.
 * @param major    extent of the compressed dimension
 * @param entries  canonical triplets sorted by (major, minor)
 * @param majorOf  functor extracting the compressed coordinate
 * @param minorOf  functor extracting the in-run coordinate
 */
template <typename MajorFn, typename MinorFn>
void
compress(Idx major, const std::vector<Triplet> &entries,
         MajorFn majorOf, MinorFn minorOf,
         std::vector<Idx> &ptr, std::vector<Idx> &idx,
         std::vector<Value> &vals)
{
    ptr.assign(static_cast<std::size_t>(major) + 1, 0);
    idx.clear();
    vals.clear();
    idx.reserve(entries.size());
    vals.reserve(entries.size());

    for (const Triplet &t : entries)
        ++ptr[static_cast<std::size_t>(majorOf(t)) + 1];
    for (std::size_t i = 1; i < ptr.size(); ++i)
        ptr[i] += ptr[i - 1];
    for (const Triplet &t : entries) {
        idx.push_back(minorOf(t));
        vals.push_back(t.val);
    }
}

/**
 * Stable counting-sort transpose between the compressed layouts.
 * Walking the source majors in order keeps the destination's minor
 * indices ascending inside each run, so the result is canonical —
 * identical to the COO round-trip it replaces, without materializing
 * (and comparison-sorting) the triplet view.
 */
void
transposeCompressed(Idx src_major, Idx dst_major,
                    const std::vector<Idx> &src_ptr,
                    const std::vector<Idx> &src_idx,
                    const std::vector<Value> &src_vals,
                    std::vector<Idx> &dst_ptr,
                    std::vector<Idx> &dst_idx,
                    std::vector<Value> &dst_vals)
{
    dst_ptr.assign(static_cast<std::size_t>(dst_major) + 1, 0);
    dst_idx.resize(src_idx.size());
    dst_vals.resize(src_vals.size());
    for (Idx m : src_idx)
        ++dst_ptr[static_cast<std::size_t>(m) + 1];
    for (std::size_t i = 1; i < dst_ptr.size(); ++i)
        dst_ptr[i] += dst_ptr[i - 1];
    std::vector<Idx> cursor(dst_ptr.begin(), dst_ptr.end() - 1);
    for (Idx s = 0; s < src_major; ++s) {
        for (Idx k = src_ptr[static_cast<std::size_t>(s)];
             k < src_ptr[static_cast<std::size_t>(s) + 1]; ++k) {
            const auto d = static_cast<std::size_t>(
                src_idx[static_cast<std::size_t>(k)]);
            const auto at = static_cast<std::size_t>(cursor[d]++);
            dst_idx[at] = s;
            dst_vals[at] = src_vals[static_cast<std::size_t>(k)];
        }
    }
}

} // anonymous namespace

CsrMatrix
CsrMatrix::fromCoo(CooMatrix coo)
{
    coo.canonicalize();
    CsrMatrix out;
    out.rows_ = coo.rows();
    out.cols_ = coo.cols();
    compress(coo.rows(), coo.entries(),
             [](const Triplet &t) { return t.row; },
             [](const Triplet &t) { return t.col; },
             out.rowPtr_, out.colIdx_, out.vals_);
    return out;
}

CsrMatrix
CsrMatrix::fromCsc(const CscMatrix &csc)
{
    CsrMatrix out;
    out.rows_ = csc.rows();
    out.cols_ = csc.cols();
    transposeCompressed(csc.cols(), csc.rows(), csc.colPtr_,
                        csc.rowIdx_, csc.vals_, out.rowPtr_,
                        out.colIdx_, out.vals_);
    return out;
}

CsrMatrix
CsrMatrix::fromParts(Idx rows, Idx cols, std::vector<Idx> row_ptr,
                     std::vector<Idx> col_idx, std::vector<Value> vals)
{
    CsrMatrix out;
    out.rows_ = rows;
    out.cols_ = cols;
    out.rowPtr_ = std::move(row_ptr);
    out.colIdx_ = std::move(col_idx);
    out.vals_ = std::move(vals);
    if (!out.validate())
        sp_panic("CsrMatrix::fromParts: arrays do not form a "
                 "canonical %lld x %lld CSR matrix",
                 static_cast<long long>(rows),
                 static_cast<long long>(cols));
    return out;
}

CooMatrix
CsrMatrix::toCoo() const
{
    CooMatrix out(rows_, cols_);
    for (Idx r = 0; r < rows_; ++r) {
        auto cols = rowCols(r);
        auto vals = rowVals(r);
        for (std::size_t k = 0; k < cols.size(); ++k)
            out.add(r, cols[k], vals[k]);
    }
    return out;
}

bool
CsrMatrix::validate() const
{
    if (static_cast<Idx>(rowPtr_.size()) != rows_ + 1)
        return false;
    if (rowPtr_.front() != 0 ||
        rowPtr_.back() != static_cast<Idx>(vals_.size()))
        return false;
    if (colIdx_.size() != vals_.size())
        return false;
    for (Idx r = 0; r < rows_; ++r) {
        if (rowPtr_[r] > rowPtr_[r + 1])
            return false;
        Idx prev = -1;
        for (Idx k = rowPtr_[r]; k < rowPtr_[r + 1]; ++k) {
            Idx c = colIdx_[k];
            if (c < 0 || c >= cols_ || c <= prev)
                return false;
            prev = c;
        }
    }
    return true;
}

CscMatrix
CscMatrix::fromCoo(CooMatrix coo)
{
    coo.canonicalize();
    // The entries are now row-major canonical; a stable counting
    // sort by column lands them in (col, row) order without the
    // comparison sort the old sortColMajor() path paid.
    CscMatrix out;
    out.rows_ = coo.rows();
    out.cols_ = coo.cols();
    const auto &entries = coo.entries();
    out.colPtr_.assign(static_cast<std::size_t>(coo.cols()) + 1, 0);
    out.rowIdx_.resize(entries.size());
    out.vals_.resize(entries.size());
    for (const Triplet &t : entries)
        ++out.colPtr_[static_cast<std::size_t>(t.col) + 1];
    for (std::size_t i = 1; i < out.colPtr_.size(); ++i)
        out.colPtr_[i] += out.colPtr_[i - 1];
    std::vector<Idx> cursor(out.colPtr_.begin(),
                            out.colPtr_.end() - 1);
    for (const Triplet &t : entries) {
        const auto at = static_cast<std::size_t>(
            cursor[static_cast<std::size_t>(t.col)]++);
        out.rowIdx_[at] = t.row;
        out.vals_[at] = t.val;
    }
    return out;
}

CscMatrix
CscMatrix::fromCsr(const CsrMatrix &csr)
{
    CscMatrix out;
    out.rows_ = csr.rows();
    out.cols_ = csr.cols();
    transposeCompressed(csr.rows(), csr.cols(), csr.rowPtr_,
                        csr.colIdx_, csr.vals_, out.colPtr_,
                        out.rowIdx_, out.vals_);
    return out;
}

CooMatrix
CscMatrix::toCoo() const
{
    CooMatrix out(rows_, cols_);
    for (Idx c = 0; c < cols_; ++c) {
        auto rows = colRows(c);
        auto vals = colVals(c);
        for (std::size_t k = 0; k < rows.size(); ++k)
            out.add(rows[k], c, vals[k]);
    }
    out.sortRowMajor();
    return out;
}

bool
CscMatrix::validate() const
{
    if (static_cast<Idx>(colPtr_.size()) != cols_ + 1)
        return false;
    if (colPtr_.front() != 0 ||
        colPtr_.back() != static_cast<Idx>(vals_.size()))
        return false;
    if (rowIdx_.size() != vals_.size())
        return false;
    for (Idx c = 0; c < cols_; ++c) {
        if (colPtr_[c] > colPtr_[c + 1])
            return false;
        Idx prev = -1;
        for (Idx k = colPtr_[c]; k < colPtr_[c + 1]; ++k) {
            Idx r = rowIdx_[k];
            if (r < 0 || r >= rows_ || r <= prev)
                return false;
            prev = r;
        }
    }
    return true;
}

} // namespace sparsepipe
