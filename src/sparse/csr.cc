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
 * @param src_major  extent of the source's compressed dimension
 * @param dst_major  extent of the destination's
 */
detail::CompressedArrays
transposeCompressed(Idx src_major, Idx dst_major,
                    const std::vector<Idx> &src_ptr,
                    const std::vector<Idx> &src_idx,
                    const std::vector<Value> &src_vals)
{
    detail::CompressedArrays dst;
    std::vector<Idx> &dst_ptr = dst.ptr;
    dst_ptr.assign(static_cast<std::size_t>(dst_major) + 1, 0);
    dst.idx.resize(src_idx.size());
    dst.vals.resize(src_vals.size());
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
            dst.idx[at] = s;
            dst.vals[at] = src_vals[static_cast<std::size_t>(k)];
        }
    }
    return dst;
}

/**
 * Internal-consistency check shared by both forms: `major` + 1
 * monotone pointers, in-bounds and strictly ascending minor indices
 * below `minor`.
 */
bool
validCompressed(const detail::CompressedArrays &a, Idx major, Idx minor)
{
    if (static_cast<Idx>(a.ptr.size()) != major + 1)
        return false;
    if (a.ptr.front() != 0 ||
        a.ptr.back() != static_cast<Idx>(a.vals.size()))
        return false;
    if (a.idx.size() != a.vals.size())
        return false;
    for (Idx m = 0; m < major; ++m) {
        if (a.ptr[m] > a.ptr[m + 1])
            return false;
        Idx prev = -1;
        for (Idx k = a.ptr[m]; k < a.ptr[m + 1]; ++k) {
            Idx i = a.idx[k];
            if (i < 0 || i >= minor || i <= prev)
                return false;
            prev = i;
        }
    }
    return true;
}

/** The arrays every default-constructed matrix shares. */
const std::shared_ptr<const detail::CompressedArrays> &
emptyArrays()
{
    static const auto empty =
        std::make_shared<const detail::CompressedArrays>();
    return empty;
}

} // anonymous namespace

CsrMatrix::CsrMatrix() : a_(emptyArrays()) {}

CsrMatrix::CsrMatrix(detail::CompressedArrays arrays)
    : a_(std::make_shared<const detail::CompressedArrays>(
          std::move(arrays)))
{
}

CsrMatrix
CsrMatrix::fromCoo(CooMatrix coo)
{
    coo.canonicalize();
    detail::CompressedArrays out;
    out.rows = coo.rows();
    out.cols = coo.cols();
    compress(coo.rows(), coo.entries(),
             [](const Triplet &t) { return t.row; },
             [](const Triplet &t) { return t.col; },
             out.ptr, out.idx, out.vals);
    return CsrMatrix(std::move(out));
}

CsrMatrix
CsrMatrix::fromCsc(const CscMatrix &csc)
{
    detail::CompressedArrays out =
        transposeCompressed(csc.cols(), csc.rows(), csc.colPtr(),
                            csc.rowIdx(), csc.vals());
    out.rows = csc.rows();
    out.cols = csc.cols();
    return CsrMatrix(std::move(out));
}

CsrMatrix
CsrMatrix::fromParts(Idx rows, Idx cols, std::vector<Idx> row_ptr,
                     std::vector<Idx> col_idx, std::vector<Value> vals)
{
    CsrMatrix out(detail::CompressedArrays{
        rows, cols, std::move(row_ptr), std::move(col_idx),
        std::move(vals)});
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
    CooMatrix out(rows(), cols());
    for (Idx r = 0; r < rows(); ++r) {
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
    return validCompressed(*a_, rows(), cols());
}

CscMatrix::CscMatrix() : a_(emptyArrays()) {}

CscMatrix::CscMatrix(detail::CompressedArrays arrays)
    : a_(std::make_shared<const detail::CompressedArrays>(
          std::move(arrays)))
{
}

CscMatrix
CscMatrix::fromCoo(CooMatrix coo)
{
    coo.canonicalize();
    // The entries are now row-major canonical; a stable counting
    // sort by column lands them in (col, row) order without the
    // comparison sort the old sortColMajor() path paid.
    detail::CompressedArrays out;
    out.rows = coo.rows();
    out.cols = coo.cols();
    const auto &entries = coo.entries();
    out.ptr.assign(static_cast<std::size_t>(coo.cols()) + 1, 0);
    out.idx.resize(entries.size());
    out.vals.resize(entries.size());
    for (const Triplet &t : entries)
        ++out.ptr[static_cast<std::size_t>(t.col) + 1];
    for (std::size_t i = 1; i < out.ptr.size(); ++i)
        out.ptr[i] += out.ptr[i - 1];
    std::vector<Idx> cursor(out.ptr.begin(), out.ptr.end() - 1);
    for (const Triplet &t : entries) {
        const auto at = static_cast<std::size_t>(
            cursor[static_cast<std::size_t>(t.col)]++);
        out.idx[at] = t.row;
        out.vals[at] = t.val;
    }
    return CscMatrix(std::move(out));
}

CscMatrix
CscMatrix::fromCsr(const CsrMatrix &csr)
{
    detail::CompressedArrays out =
        transposeCompressed(csr.rows(), csr.cols(), csr.rowPtr(),
                            csr.colIdx(), csr.vals());
    out.rows = csr.rows();
    out.cols = csr.cols();
    return CscMatrix(std::move(out));
}

CooMatrix
CscMatrix::toCoo() const
{
    CooMatrix out(rows(), cols());
    for (Idx c = 0; c < cols(); ++c) {
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
    return validCompressed(*a_, cols(), rows());
}

} // namespace sparsepipe
