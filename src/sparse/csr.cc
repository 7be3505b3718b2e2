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
 * `coo` when it is canonical, as generators and reorders hand it
 * over; else `copy`, assigned a canonicalized copy of it.
 */
const CooMatrix &
canonicalOf(const CooMatrix &coo, CooMatrix &copy)
{
    if (coo.isCanonical())
        return coo;
    copy = coo;
    copy.canonicalize();
    return copy;
}

/**
 * Stable counting-sort transpose between the compressed layouts, of
 * the pattern and, when `src_vals` is given, of the values into
 * `dst_vals`.  Walking the source majors in order keeps the
 * destination's minor indices ascending inside each run, so the
 * result is canonical — identical to the COO round-trip it replaces,
 * without materializing (and comparison-sorting) the triplet view.
 * @param src_major  extent of the source's compressed dimension
 * @param dst_major  extent of the destination's
 */
SparsityPattern
transposeCompressed(Idx src_major, Idx dst_major,
                    const SparsityPattern &src,
                    const std::vector<Value> *src_vals,
                    std::vector<Value> *dst_vals)
{
    SparsityPattern dst;
    dst.rows = src.rows;
    dst.cols = src.cols;
    std::vector<Idx> &dst_ptr = dst.ptr;
    dst_ptr.assign(static_cast<std::size_t>(dst_major) + 1, 0);
    dst.idx.resize(src.idx.size());
    if (src_vals)
        dst_vals->resize(src_vals->size());
    for (Idx m : src.idx)
        ++dst_ptr[static_cast<std::size_t>(m) + 1];
    for (std::size_t i = 1; i < dst_ptr.size(); ++i)
        dst_ptr[i] += dst_ptr[i - 1];
    std::vector<Idx> cursor(dst_ptr.begin(), dst_ptr.end() - 1);
    for (Idx s = 0; s < src_major; ++s) {
        for (Idx k = src.ptr[static_cast<std::size_t>(s)];
             k < src.ptr[static_cast<std::size_t>(s) + 1]; ++k) {
            const auto d = static_cast<std::size_t>(
                src.idx[static_cast<std::size_t>(k)]);
            const auto at = static_cast<std::size_t>(cursor[d]++);
            dst.idx[at] = s;
            if (src_vals)
                (*dst_vals)[at] = (*src_vals)[static_cast<std::size_t>(k)];
        }
    }
    return dst;
}

/**
 * Internal-consistency check shared by both forms: `major` + 1
 * monotone pointers, in-bounds and strictly ascending minor indices
 * below `minor`, one value per index.
 */
bool
validCompressed(const SparsityPattern &p, const std::vector<Value> &vals,
                Idx major, Idx minor)
{
    if (static_cast<Idx>(p.ptr.size()) != major + 1)
        return false;
    if (p.ptr.front() != 0 ||
        p.ptr.back() != static_cast<Idx>(vals.size()))
        return false;
    if (p.idx.size() != vals.size())
        return false;
    for (Idx m = 0; m < major; ++m) {
        if (p.ptr[m] > p.ptr[m + 1])
            return false;
        Idx prev = -1;
        for (Idx k = p.ptr[m]; k < p.ptr[m + 1]; ++k) {
            Idx i = p.idx[k];
            if (i < 0 || i >= minor || i <= prev)
                return false;
            prev = i;
        }
    }
    return true;
}

/** Same coordinates: the same storage, or equal contents. */
bool
samePattern(const PatternPtr &a, const PatternPtr &b)
{
    return a == b || *a == *b;
}

/** Same values: the same storage, or equal contents. */
bool
sameValues(const std::shared_ptr<const std::vector<Value>> &a,
           const std::shared_ptr<const std::vector<Value>> &b)
{
    return a == b || *a == *b;
}

/** The pattern every default-constructed matrix shares. */
const PatternPtr &
emptyPattern()
{
    static const auto empty = std::make_shared<const SparsityPattern>();
    return empty;
}

/** The values every default-constructed matrix shares. */
const std::shared_ptr<const std::vector<Value>> &
emptyValues()
{
    static const auto empty =
        std::make_shared<const std::vector<Value>>();
    return empty;
}

/** `vals` as a value array for `pattern` (fatal on a count mismatch). */
std::shared_ptr<const std::vector<Value>>
valuesFor(const SparsityPattern &pattern, std::vector<Value> vals,
          const char *who)
{
    if (vals.size() != pattern.idx.size())
        sp_panic("%s: %zu values for %zu stored entries", who,
                 vals.size(), pattern.idx.size());
    return std::make_shared<const std::vector<Value>>(std::move(vals));
}

} // anonymous namespace

CsrMatrix::CsrMatrix() : p_(emptyPattern()), v_(emptyValues()) {}

CsrMatrix::CsrMatrix(PatternPtr pattern,
                     std::shared_ptr<const std::vector<Value>> vals)
    : p_(std::move(pattern)), v_(std::move(vals))
{
}

CsrMatrix::CsrMatrix(SparsityPattern pattern, std::vector<Value> vals)
    : p_(std::make_shared<const SparsityPattern>(std::move(pattern))),
      v_(std::make_shared<const std::vector<Value>>(std::move(vals)))
{
}

CsrMatrix
CsrMatrix::fromCoo(const CooMatrix &input)
{
    CooMatrix copy;
    const CooMatrix &coo = canonicalOf(input, copy);
    SparsityPattern pattern;
    std::vector<Value> vals;
    pattern.rows = coo.rows();
    pattern.cols = coo.cols();
    compress(coo.rows(), coo.entries(),
             [](const Triplet &t) { return t.row; },
             [](const Triplet &t) { return t.col; },
             pattern.ptr, pattern.idx, vals);
    return CsrMatrix(std::move(pattern), std::move(vals));
}

CsrMatrix
CsrMatrix::fromCsc(const CscMatrix &csc)
{
    std::vector<Value> vals;
    SparsityPattern pattern =
        transposeCompressed(csc.cols(), csc.rows(), *csc.pattern(),
                            &csc.vals(), &vals);
    return CsrMatrix(std::move(pattern), std::move(vals));
}

CsrMatrix
CsrMatrix::fromParts(Idx rows, Idx cols, std::vector<Idx> row_ptr,
                     std::vector<Idx> col_idx, std::vector<Value> vals)
{
    CsrMatrix out(SparsityPattern{rows, cols, std::move(row_ptr),
                                  std::move(col_idx)},
                  std::move(vals));
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

CsrMatrix
CsrMatrix::withValues(std::vector<Value> vals) const
{
    return CsrMatrix(p_, valuesFor(*p_, std::move(vals),
                                   "CsrMatrix::withValues"));
}

bool
CsrMatrix::validate() const
{
    return validCompressed(*p_, *v_, rows(), cols());
}

bool
CsrMatrix::operator==(const CsrMatrix &other) const
{
    return samePattern(p_, other.p_) && sameValues(v_, other.v_);
}

CscMatrix::CscMatrix() : p_(emptyPattern()), v_(emptyValues()) {}

CscMatrix::CscMatrix(PatternPtr pattern,
                     std::shared_ptr<const std::vector<Value>> vals)
    : p_(std::move(pattern)), v_(std::move(vals))
{
}

CscMatrix::CscMatrix(SparsityPattern pattern, std::vector<Value> vals)
    : p_(std::make_shared<const SparsityPattern>(std::move(pattern))),
      v_(std::make_shared<const std::vector<Value>>(std::move(vals)))
{
}

CscMatrix
CscMatrix::fromCoo(const CooMatrix &input)
{
    CooMatrix copy;
    const CooMatrix &coo = canonicalOf(input, copy);
    // The entries are row-major canonical; a stable counting
    // sort by column lands them in (col, row) order without the
    // comparison sort the old sortColMajor() path paid.
    SparsityPattern out;
    std::vector<Value> vals;
    out.rows = coo.rows();
    out.cols = coo.cols();
    const auto &entries = coo.entries();
    out.ptr.assign(static_cast<std::size_t>(coo.cols()) + 1, 0);
    out.idx.resize(entries.size());
    vals.resize(entries.size());
    for (const Triplet &t : entries)
        ++out.ptr[static_cast<std::size_t>(t.col) + 1];
    for (std::size_t i = 1; i < out.ptr.size(); ++i)
        out.ptr[i] += out.ptr[i - 1];
    std::vector<Idx> cursor(out.ptr.begin(), out.ptr.end() - 1);
    for (const Triplet &t : entries) {
        const auto at = static_cast<std::size_t>(
            cursor[static_cast<std::size_t>(t.col)]++);
        out.idx[at] = t.row;
        vals[at] = t.val;
    }
    return CscMatrix(std::move(out), std::move(vals));
}

CscMatrix
CscMatrix::fromCsr(const CsrMatrix &csr)
{
    std::vector<Value> vals;
    SparsityPattern pattern =
        transposeCompressed(csr.rows(), csr.cols(), *csr.pattern(),
                            &csr.vals(), &vals);
    return CscMatrix(std::move(pattern), std::move(vals));
}

CscMatrix
CscMatrix::fromSymmetric(const CsrMatrix &csr)
{
    if (csr.rows() != csr.cols())
        sp_panic("CscMatrix::fromSymmetric: %lld x %lld is not square",
                 static_cast<long long>(csr.rows()),
                 static_cast<long long>(csr.cols()));
    return CscMatrix(csr.p_, csr.v_);
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

CscMatrix
CscMatrix::withValues(std::vector<Value> vals) const
{
    return CscMatrix(p_, valuesFor(*p_, std::move(vals),
                                   "CscMatrix::withValues"));
}

bool
CscMatrix::validate() const
{
    return validCompressed(*p_, *v_, cols(), rows());
}

bool
CscMatrix::operator==(const CscMatrix &other) const
{
    return samePattern(p_, other.p_) && sameValues(v_, other.v_);
}

} // namespace sparsepipe
