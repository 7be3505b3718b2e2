#include "prep/reorder.hh"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <queue>

#include "util/logging.hh"

namespace sparsepipe {

const char *
reorderKindName(ReorderKind kind)
{
    switch (kind) {
      case ReorderKind::None:     return "none";
      case ReorderKind::Vanilla:  return "vanilla";
      case ReorderKind::Locality: return "locality";
    }
    return "?";
}

std::vector<Idx>
identityOrder(Idx n)
{
    std::vector<Idx> perm(static_cast<std::size_t>(n));
    std::iota(perm.begin(), perm.end(), 0);
    return perm;
}

namespace {

/** A reorder relabels rows and columns alike, so it needs n x n. */
void
requireSquare(const CsrMatrix &matrix, const char *who)
{
    if (matrix.rows() != matrix.cols())
        sp_panic("%s: matrix must be square, got %lld x %lld", who,
                 static_cast<long long>(matrix.rows()),
                 static_cast<long long>(matrix.cols()));
}

/**
 * Binary min-heap of the vertices [0, n) keyed by (key, vertex),
 * indexed by vertex so a key can decrease in place: it holds at most
 * n entries, where a lazy heap re-pushes a vertex per decrement.  An
 * entry packs key and vertex into one word, key high, so one integer
 * compare orders both; keys are in-degrees, at most n.
 */
class VertexHeap
{
  public:
    explicit VertexHeap(const std::vector<Idx> &keys)
        : heap_(keys.size()), slot_(keys.size())
    {
        if (keys.size() > kVertexMask)
            sp_panic("vanillaReorder: %zu vertices exceed 32-bit ids",
                     keys.size());
        for (std::size_t v = 0; v < keys.size(); ++v)
            place(v, static_cast<std::uint64_t>(keys[v]) << 32 | v);
        for (std::size_t i = heap_.size() / 2; i-- > 0;)
            siftDown(i);
    }

    bool empty() const { return heap_.empty(); }

    bool
    contains(Idx v) const
    {
        return slot_[static_cast<std::size_t>(v)] != kPopped;
    }

    /** Remove and return the vertex of least (key, vertex). */
    Idx
    pop()
    {
        const std::uint64_t top = heap_.front();
        const std::uint64_t last = heap_.back();
        heap_.pop_back();
        if (!heap_.empty()) {
            place(0, last);
            siftDown(0);
        }
        slot_[top & kVertexMask] = kPopped;
        return static_cast<Idx>(top & kVertexMask);
    }

    /** Decrement the key of `v`, which must still be in the heap. */
    void
    decrement(Idx v)
    {
        std::size_t i = slot_[static_cast<std::size_t>(v)];
        const std::uint64_t e = heap_[i] - (std::uint64_t{1} << 32);
        while (i > 0 && e < heap_[(i - 1) / 2]) {
            place(i, heap_[(i - 1) / 2]);
            i = (i - 1) / 2;
        }
        place(i, e);
    }

  private:
    static constexpr std::uint64_t kVertexMask = 0xffffffffu;
    static constexpr std::uint32_t kPopped = 0xffffffffu;

    void
    place(std::size_t i, std::uint64_t e)
    {
        heap_[i] = e;
        slot_[e & kVertexMask] = static_cast<std::uint32_t>(i);
    }

    void
    siftDown(std::size_t i)
    {
        const std::uint64_t e = heap_[i];
        for (;;) {
            std::size_t child = 2 * i + 1;
            if (child >= heap_.size())
                break;
            if (child + 1 < heap_.size() && heap_[child + 1] < heap_[child])
                ++child;
            if (heap_[child] >= e)
                break;
            place(i, heap_[child]);
            i = child;
        }
        place(i, e);
    }

    std::vector<std::uint64_t> heap_;
    /** Heap index of each vertex, kPopped once it has left. */
    std::vector<std::uint32_t> slot_;
};

} // anonymous namespace

std::vector<Idx>
vanillaReorder(const CsrMatrix &matrix)
{
    requireSquare(matrix, "vanillaReorder");
    const Idx n = matrix.rows();
    // In-degree per column: count of stored entries in that column.
    std::vector<Idx> indeg(static_cast<std::size_t>(n), 0);
    for (Idx c : matrix.colIdx())
        ++indeg[static_cast<std::size_t>(c)];

    // Always emit the unplaced vertex of least remaining in-degree
    // (ties to the lower id); emitting one decrements the in-degree
    // of its unplaced out-neighbours (Kahn's algorithm generalised
    // to cyclic graphs by always taking the current minimum).
    VertexHeap heap(indeg);
    std::vector<Idx> perm(static_cast<std::size_t>(n), -1);
    Idx next_label = 0;
    while (!heap.empty()) {
        const Idx v = heap.pop();
        perm[static_cast<std::size_t>(v)] = next_label++;
        for (Idx c : matrix.rowCols(v))
            if (heap.contains(c))
                heap.decrement(c);
    }
    return perm;
}

std::vector<Idx>
localityReorder(const CsrMatrix &matrix)
{
    requireSquare(matrix, "localityReorder");
    const Idx n = matrix.rows();
    std::vector<Idx> degree(static_cast<std::size_t>(n), 0);
    for (Idx r = 0; r < n; ++r)
        degree[static_cast<std::size_t>(r)] = matrix.rowNnz(r);

    std::vector<char> visited(static_cast<std::size_t>(n), 0);
    std::vector<Idx> perm(static_cast<std::size_t>(n), -1);
    Idx next_label = 0;

    // BFS from successive minimum-degree seeds; within a frontier,
    // visit neighbours in ascending degree (Cuthill-McKee).
    std::vector<Idx> seeds = identityOrder(n);
    std::sort(seeds.begin(), seeds.end(), [&](Idx a, Idx b) {
        return degree[static_cast<std::size_t>(a)] <
               degree[static_cast<std::size_t>(b)];
    });

    std::queue<Idx> frontier;
    std::vector<Idx> nbrs;
    for (Idx seed : seeds) {
        if (visited[static_cast<std::size_t>(seed)])
            continue;
        visited[static_cast<std::size_t>(seed)] = 1;
        frontier.push(seed);
        while (!frontier.empty()) {
            Idx v = frontier.front();
            frontier.pop();
            perm[static_cast<std::size_t>(v)] = next_label++;
            nbrs.clear();
            for (Idx c : matrix.rowCols(v)) {
                if (!visited[static_cast<std::size_t>(c)]) {
                    visited[static_cast<std::size_t>(c)] = 1;
                    nbrs.push_back(c);
                }
            }
            std::sort(nbrs.begin(), nbrs.end(), [&](Idx a, Idx b) {
                return degree[static_cast<std::size_t>(a)] <
                       degree[static_cast<std::size_t>(b)];
            });
            for (Idx c : nbrs)
                frontier.push(c);
        }
    }
    return perm;
}

std::vector<Idx>
makeReorder(ReorderKind kind, const CsrMatrix &matrix)
{
    requireSquare(matrix, "makeReorder");
    switch (kind) {
      case ReorderKind::None:     return identityOrder(matrix.rows());
      case ReorderKind::Vanilla:  return vanillaReorder(matrix);
      case ReorderKind::Locality: return localityReorder(matrix);
    }
    sp_panic("makeReorder: bad kind");
    __builtin_unreachable();
}

StatusOr<CsrMatrix>
permuteSymmetric(const CsrMatrix &matrix, const std::vector<Idx> &perm)
{
    if (matrix.rows() != matrix.cols())
        return invalidInput(
            "permuteSymmetric: matrix must be square, got %lld x %lld",
            static_cast<long long>(matrix.rows()),
            static_cast<long long>(matrix.cols()));
    if (static_cast<Idx>(perm.size()) != matrix.rows())
        return invalidInput(
            "permuteSymmetric: permutation length %zu does not match "
            "%lld rows", perm.size(),
            static_cast<long long>(matrix.rows()));
    if (!isPermutation(perm))
        return invalidInput(
            "permuteSymmetric: not a bijection on [0, %zu)", perm.size());
    const Idx n = matrix.rows();
    const auto label = [&](Idx v) {
        return perm[static_cast<std::size_t>(v)];
    };
    // Row perm[r] of the result is row r relabelled: its length is
    // known up front, and only its columns need sorting again.
    std::vector<Idx> row_ptr(static_cast<std::size_t>(n) + 1, 0);
    for (Idx r = 0; r < n; ++r)
        row_ptr[static_cast<std::size_t>(label(r)) + 1] = matrix.rowNnz(r);
    for (std::size_t i = 1; i < row_ptr.size(); ++i)
        row_ptr[i] += row_ptr[i - 1];
    std::vector<Idx> col_idx(static_cast<std::size_t>(matrix.nnz()));
    std::vector<Value> vals(col_idx.size());
    std::vector<std::pair<Idx, Value>> row;
    for (Idx r = 0; r < n; ++r) {
        const auto cols = matrix.rowCols(r);
        const auto row_vals = matrix.rowVals(r);
        row.clear();
        for (std::size_t k = 0; k < cols.size(); ++k)
            row.emplace_back(label(cols[k]), row_vals[k]);
        // A canonical row relabels to distinct columns: no ties.
        std::sort(row.begin(), row.end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });
        auto at = static_cast<std::size_t>(
            row_ptr[static_cast<std::size_t>(label(r))]);
        for (const auto &[c, v] : row) {
            col_idx[at] = c;
            vals[at++] = v;
        }
    }
    return CsrMatrix::fromParts(n, n, std::move(row_ptr),
                                std::move(col_idx), std::move(vals));
}

StatusOr<CooMatrix>
applySymmetricPermutation(const CooMatrix &matrix,
                          const std::vector<Idx> &perm)
{
    StatusOr<CsrMatrix> out =
        permuteSymmetric(CsrMatrix::fromCoo(matrix), perm);
    if (!out.ok())
        return out.status();
    return out->toCoo();
}

bool
isPermutation(const std::vector<Idx> &perm)
{
    std::vector<char> seen(perm.size(), 0);
    for (Idx p : perm) {
        if (p < 0 || p >= static_cast<Idx>(perm.size()))
            return false;
        auto i = static_cast<std::size_t>(p);
        if (seen[i])
            return false;
        seen[i] = 1;
    }
    return true;
}

} // namespace sparsepipe
