#include "sparse/coo.hh"

#include <algorithm>

#include "util/logging.hh"

namespace sparsepipe {

CooMatrix::CooMatrix(Idx rows, Idx cols)
    : rows_(rows), cols_(cols)
{
    if (rows < 0 || cols < 0)
        sp_panic("CooMatrix: negative shape %lld x %lld",
                 static_cast<long long>(rows),
                 static_cast<long long>(cols));
}

void
CooMatrix::addOutOfRange(Idx row, Idx col) const
{
    sp_panic("CooMatrix::add: (%lld, %lld) outside %lld x %lld",
             static_cast<long long>(row),
             static_cast<long long>(col),
             static_cast<long long>(rows_),
             static_cast<long long>(cols_));
    __builtin_unreachable();
}

void
CooMatrix::sortRowMajor()
{
    // Two-pass stable counting sort (LSD radix: columns first, then
    // rows): O(nnz + rows + cols) with two sequential scatter passes
    // instead of the comparison sort's O(nnz log nnz).  Stability
    // keeps duplicate (row, col) entries in insertion order, which
    // fixes the accumulation order canonicalize() merges them in.
    if (entries_.empty())
        return;
    bool sorted = true;
    for (std::size_t i = 1; i < entries_.size(); ++i) {
        const Triplet &a = entries_[i - 1];
        const Triplet &b = entries_[i];
        if (a.row > b.row || (a.row == b.row && a.col > b.col)) {
            sorted = false;
            break;
        }
    }
    if (sorted)
        return;

    std::vector<Triplet> tmp(entries_.size());
    std::vector<Idx> cnt(
        static_cast<std::size_t>(std::max(rows_, cols_)) + 1, 0);

    for (const Triplet &t : entries_)
        ++cnt[static_cast<std::size_t>(t.col)];
    Idx run = 0;
    for (Idx c = 0; c <= cols_ - 1; ++c) {
        const Idx n = cnt[static_cast<std::size_t>(c)];
        cnt[static_cast<std::size_t>(c)] = run;
        run += n;
    }
    for (const Triplet &t : entries_)
        tmp[static_cast<std::size_t>(
            cnt[static_cast<std::size_t>(t.col)]++)] = t;

    std::fill(cnt.begin(),
              cnt.begin() + static_cast<std::ptrdiff_t>(rows_), 0);
    for (const Triplet &t : tmp)
        ++cnt[static_cast<std::size_t>(t.row)];
    run = 0;
    for (Idx r = 0; r <= rows_ - 1; ++r) {
        const Idx n = cnt[static_cast<std::size_t>(r)];
        cnt[static_cast<std::size_t>(r)] = run;
        run += n;
    }
    for (const Triplet &t : tmp)
        entries_[static_cast<std::size_t>(
            cnt[static_cast<std::size_t>(t.row)]++)] = t;
}

void
CooMatrix::sortColMajor()
{
    std::sort(entries_.begin(), entries_.end(),
              [](const Triplet &a, const Triplet &b) {
                  return a.col != b.col ? a.col < b.col : a.row < b.row;
              });
}

void
CooMatrix::canonicalize()
{
    // Fast path: generators and format round-trips usually hand us
    // entries that are already sorted, duplicate-free, and zero-free;
    // one linear scan then replaces the O(n log n) sort.
    if (isCanonical())
        return;
    sortRowMajor();
    std::vector<Triplet> merged;
    merged.reserve(entries_.size());
    for (const Triplet &t : entries_) {
        if (!merged.empty() && merged.back().row == t.row &&
            merged.back().col == t.col) {
            merged.back().val += t.val;
        } else {
            merged.push_back(t);
        }
    }
    // Drop explicit zeros produced by cancellation.
    std::erase_if(merged, [](const Triplet &t) { return t.val == 0.0; });
    entries_ = std::move(merged);
}

CooMatrix
CooMatrix::transposed() const
{
    CooMatrix out(cols_, rows_);
    out.entries_.reserve(entries_.size());
    for (const Triplet &t : entries_)
        out.entries_.push_back({t.col, t.row, t.val});
    return out;
}

CooMatrix
CooMatrix::topLeft(Idx rows, Idx cols) const
{
    CooMatrix out(rows, cols);
    for (const Triplet &t : entries_)
        if (t.row < rows && t.col < cols)
            out.entries_.push_back(t);
    return out;
}

bool
CooMatrix::isCanonical() const
{
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        if (entries_[i].val == 0.0)
            return false;
        if (i == 0)
            continue;
        const Triplet &a = entries_[i - 1];
        const Triplet &b = entries_[i];
        if (a.row > b.row || (a.row == b.row && a.col >= b.col))
            return false;
    }
    return true;
}

} // namespace sparsepipe
