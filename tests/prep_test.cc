/**
 * @file
 * Tests of the offline preprocessing: row reorders (permutation
 * validity and their effect on the OEI residency window) and the
 * blocked dual sparse storage accounting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <set>
#include <utility>

#include "core/buckets.hh"
#include "prep/blocked.hh"
#include "prep/reorder.hh"
#include "sparse/datasets.hh"
#include "test_helpers.hh"

namespace sparsepipe {
namespace {

/**
 * vanillaReorder as it was before the indexed heap: a lazy binary
 * heap of (in-degree, vertex) pairs that re-pushes a vertex on every
 * decrement and skips stale pairs.  Kept as the reference order.
 */
std::vector<Idx>
lazyHeapVanillaReorder(const CsrMatrix &matrix)
{
    const Idx n = matrix.rows();
    std::vector<Idx> indeg(static_cast<std::size_t>(n), 0);
    for (Idx r = 0; r < n; ++r)
        for (Idx c : matrix.rowCols(r))
            ++indeg[static_cast<std::size_t>(c)];
    using Entry = std::pair<Idx, Idx>; // (indegree, vertex)
    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>>
        heap;
    for (Idx v = 0; v < n; ++v)
        heap.push({indeg[static_cast<std::size_t>(v)], v});
    std::vector<char> placed(static_cast<std::size_t>(n), 0);
    std::vector<Idx> perm(static_cast<std::size_t>(n), -1);
    Idx next_label = 0;
    while (!heap.empty()) {
        auto [deg, v] = heap.top();
        heap.pop();
        auto vi = static_cast<std::size_t>(v);
        if (placed[vi] || deg != indeg[vi])
            continue; // stale entry
        placed[vi] = 1;
        perm[vi] = next_label++;
        for (Idx c : matrix.rowCols(v)) {
            auto ci = static_cast<std::size_t>(c);
            if (!placed[ci]) {
                --indeg[ci];
                heap.push({indeg[ci], c});
            }
        }
    }
    return perm;
}

/** n x n matrix of the given (row, col) entries, value 1. */
CsrMatrix
squareOf(Idx n, const std::vector<std::pair<Idx, Idx>> &entries)
{
    CooMatrix m(n, n);
    for (const auto &[r, c] : entries)
        m.add(r, c, 1.0);
    return CsrMatrix::fromCoo(std::move(m));
}

TEST(Reorder, VanillaMatchesTheLazyHeapOnEveryStandIn)
{
    for (std::uint64_t seed : {std::uint64_t{0x5eed5eed}, std::uint64_t{777}}) {
        for (const DatasetSpec &spec : datasetSpecs()) {
            const CsrMatrix csr =
                CsrMatrix::fromCoo(generateDataset(spec, seed));
            EXPECT_EQ(vanillaReorder(csr), lazyHeapVanillaReorder(csr))
                << spec.name << " seed " << seed;
        }
    }
}

TEST(Reorder, VanillaMatchesTheLazyHeapOnEdgeShapes)
{
    std::vector<std::pair<Idx, Idx>> star, self_loops, full, ragged;
    for (Idx v = 1; v < 40; ++v) {
        star.emplace_back(0, v);
        star.emplace_back(v, 0);
    }
    for (Idx v = 0; v < 20; v += 2)
        self_loops.emplace_back(v, v);
    for (Idx r = 0; r < 64; ++r)
        for (Idx c = 0; c < 64; ++c)
            full.emplace_back(r, c);
    // Rows 0, 3 and 7 and columns 1, 5 and 7 store nothing.
    for (Idx r : {1, 2, 4, 5, 6})
        for (Idx c : {0, 2, 3, 4, 6})
            if ((r + c) % 3 != 0)
                ragged.emplace_back(r, c);
    const std::vector<CsrMatrix> shapes = {
        CsrMatrix::fromCoo(CooMatrix(0, 0)),
        CsrMatrix::fromCoo(CooMatrix(1, 1)),
        squareOf(1, {{0, 0}}),
        CsrMatrix::fromCoo(CooMatrix(9, 9)),
        squareOf(8, ragged),
        squareOf(20, self_loops),
        squareOf(40, star),
        squareOf(64, full),
        CsrMatrix::fromCoo(testing::smallRmat(300, 2500, 9)),
    };
    for (const CsrMatrix &m : shapes) {
        const std::vector<Idx> perm = vanillaReorder(m);
        EXPECT_TRUE(isPermutation(perm)) << m.rows() << " x " << m.cols();
        EXPECT_EQ(perm, lazyHeapVanillaReorder(m))
            << m.rows() << " x " << m.cols() << ", " << m.nnz()
            << " entries";
    }
}

TEST(ReorderDeathTest, NonSquareMatrixIsFatalBeforeAnyIndex)
{
    // A column index past the last row would index the per-vertex
    // arrays out of bounds.
    CooMatrix wide(2, 5);
    wide.add(0, 4, 1.0);
    wide.add(1, 2, 1.0);
    const CsrMatrix csr = CsrMatrix::fromCoo(std::move(wide));
    for (ReorderKind kind : {ReorderKind::None, ReorderKind::Vanilla,
                             ReorderKind::Locality})
        EXPECT_DEATH(makeReorder(kind, csr), "must be square, got 2 x 5")
            << reorderKindName(kind);
    EXPECT_DEATH(vanillaReorder(csr), "2 x 5");
    EXPECT_DEATH(localityReorder(csr), "2 x 5");
}

/**
 * The symmetric permutation the obvious way: relabel every triplet,
 * sort stably row-major, add duplicates in insertion order, drop
 * zeros.
 */
std::vector<Triplet>
bruteForcePermutation(const CooMatrix &m, const std::vector<Idx> &perm)
{
    std::vector<Triplet> out;
    for (const Triplet &t : m.entries())
        out.push_back({perm[static_cast<std::size_t>(t.row)],
                       perm[static_cast<std::size_t>(t.col)], t.val});
    std::stable_sort(out.begin(), out.end(),
                     [](const Triplet &a, const Triplet &b) {
                         return a.row != b.row ? a.row < b.row
                                               : a.col < b.col;
                     });
    std::vector<Triplet> merged;
    for (const Triplet &t : out) {
        if (!merged.empty() && merged.back().row == t.row &&
            merged.back().col == t.col)
            merged.back().val += t.val;
        else
            merged.push_back(t);
    }
    std::erase_if(merged, [](const Triplet &t) { return t.val == 0.0; });
    return merged;
}

TEST(Reorder, SymmetricPermutationMatchesBruteForceOnMessyInput)
{
    // Unsorted entries with duplicates (merged in insertion order,
    // where float addition does not associate), explicit zeros, pairs
    // that cancel to zero and signed zeros.
    Rng rng(31);
    const Idx n = 60;
    CooMatrix m(n, n);
    for (int k = 0; k < 900; ++k) {
        const auto r = static_cast<Idx>(rng.nextBelow(60));
        const auto c = static_cast<Idx>(rng.nextBelow(60));
        const std::uint64_t kind = rng.nextBelow(8);
        const Value v = kind == 0   ? 0.0
                        : kind == 1 ? -0.0
                                    : rng.nextDouble() * 2e3 - 1e3;
        m.add(r, c, v);
        if (kind == 2)
            m.add(r, c, -v); // cancels
        if (kind == 3)
            m.add(r, c, v * 1e-17); // lost or kept by add order
    }
    std::vector<Idx> perm = identityOrder(n);
    for (std::size_t i = perm.size(); i > 1; --i)
        std::swap(perm[i - 1], perm[rng.nextBelow(i)]);
    ASSERT_FALSE(m.isCanonical());

    const std::vector<Triplet> want = bruteForcePermutation(m, perm);
    const std::vector<Triplet> got =
        applySymmetricPermutation(m, perm).value().entries();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].row, want[i].row) << i;
        EXPECT_EQ(got[i].col, want[i].col) << i;
        EXPECT_TRUE(testing::sameBits(got[i].val, want[i].val))
            << i << ": " << got[i].val << " vs " << want[i].val;
    }
    // The CSR form agrees with the COO one.
    EXPECT_EQ(permuteSymmetric(CsrMatrix::fromCoo(m), perm).value(),
              CsrMatrix::fromCoo(applySymmetricPermutation(m, perm).value()));
}

TEST(Reorder, IdentityIsPermutation)
{
    auto perm = identityOrder(10);
    EXPECT_TRUE(isPermutation(perm));
    EXPECT_EQ(perm[7], 7);
}

TEST(Reorder, VanillaAndLocalityArePermutations)
{
    CooMatrix raw = testing::smallRmat(120, 1000, 4);
    CsrMatrix csr = CsrMatrix::fromCoo(raw);
    EXPECT_TRUE(isPermutation(vanillaReorder(csr)));
    EXPECT_TRUE(isPermutation(localityReorder(csr)));
    EXPECT_TRUE(isPermutation(makeReorder(ReorderKind::None, csr)));
}

TEST(Reorder, IsPermutationRejectsBadVectors)
{
    EXPECT_FALSE(isPermutation({0, 0, 1}));
    EXPECT_FALSE(isPermutation({0, 3, 1}));
    EXPECT_TRUE(isPermutation({2, 0, 1}));
}

TEST(Reorder, SymmetricPermutationPreservesStructure)
{
    CooMatrix raw = testing::smallGraph(50, 300, 6);
    raw.canonicalize();
    CsrMatrix csr = CsrMatrix::fromCoo(raw);
    auto perm = localityReorder(csr);
    CooMatrix renum = applySymmetricPermutation(raw, perm).value();

    EXPECT_EQ(renum.nnz(), raw.nnz());
    // Degree multiset is preserved.
    auto degrees = [](const CooMatrix &m) {
        std::vector<Idx> d(static_cast<std::size_t>(m.rows()), 0);
        for (const Triplet &t : m.entries())
            ++d[static_cast<std::size_t>(t.row)];
        std::sort(d.begin(), d.end());
        return d;
    };
    EXPECT_EQ(degrees(renum), degrees(raw));
    // Applying the inverse restores the matrix.
    std::vector<Idx> inv(perm.size());
    for (std::size_t i = 0; i < perm.size(); ++i)
        inv[static_cast<std::size_t>(perm[i])] = static_cast<Idx>(i);
    CooMatrix back = applySymmetricPermutation(renum, inv).value();
    CooMatrix canon = raw;
    canon.canonicalize();
    EXPECT_EQ(back.entries(), canon.entries());
}

TEST(Reorder, VanillaPushesMassAboveDiagonal)
{
    Rng rng(10);
    CooMatrix raw = generateLowerSkew(300, 3000, 0.9, rng);
    raw.canonicalize();
    CsrMatrix csr = CsrMatrix::fromCoo(raw);
    auto below = [](const CooMatrix &m) {
        Idx count = 0;
        for (const Triplet &t : m.entries())
            if (t.row > t.col)
                ++count;
        return count;
    };
    CooMatrix reord =
        applySymmetricPermutation(raw, vanillaReorder(csr)).value();
    EXPECT_LT(below(reord), below(raw));
}

TEST(Reorder, LocalityShrinksResidencyOnSkewedGraphs)
{
    Rng rng(20);
    CooMatrix raw = generateClustered(400, 4000, 16, 0.85, rng);
    // Scramble vertex ids so the generator's block locality is lost.
    Rng rng2(21);
    std::vector<Idx> scramble = identityOrder(400);
    for (std::size_t i = scramble.size(); i > 1; --i)
        std::swap(scramble[i - 1],
                  scramble[rng2.nextBelow(i)]);
    CooMatrix scrambled =
        applySymmetricPermutation(raw, scramble).value();

    auto avg_resident = [](const CooMatrix &m) {
        StepBuckets b =
            StepBuckets::build(CscMatrix::fromCoo(m), 16);
        return residencySweep(b, 2).avg_resident;
    };
    CsrMatrix csr = CsrMatrix::fromCoo(scrambled);
    CooMatrix reord =
        applySymmetricPermutation(scrambled, localityReorder(csr))
            .value();
    EXPECT_LT(avg_resident(reord), avg_resident(scrambled));
}

TEST(Reorder, BadShapesAreInvalidInput)
{
    const CsrMatrix wide = CsrMatrix::fromCoo(CooMatrix(2, 3));
    StatusOr<CsrMatrix> csr_non_square = permuteSymmetric(wide, {0, 1});
    ASSERT_FALSE(csr_non_square.ok());
    EXPECT_NE(csr_non_square.status().toString().find("2 x 3"),
              std::string::npos);

    CooMatrix m(2, 3);
    StatusOr<CooMatrix> non_square =
        applySymmetricPermutation(m, {0, 1});
    ASSERT_FALSE(non_square.ok());
    EXPECT_EQ(non_square.status().code(), StatusCode::InvalidInput);
    EXPECT_NE(non_square.status().toString().find("must be square"),
              std::string::npos);

    CooMatrix sq(3, 3);
    StatusOr<CooMatrix> short_perm =
        applySymmetricPermutation(sq, {0, 1});
    ASSERT_FALSE(short_perm.ok());
    EXPECT_EQ(short_perm.status().code(), StatusCode::InvalidInput);

    StatusOr<CooMatrix> not_bijection =
        applySymmetricPermutation(sq, {0, 0, 1});
    ASSERT_FALSE(not_bijection.ok());
    EXPECT_EQ(not_bijection.status().code(),
              StatusCode::InvalidInput);
    EXPECT_NE(not_bijection.status().toString().find("bijection"),
              std::string::npos);
}

TEST(Blocked, DualStorageBytesFormula)
{
    // 2 formats x nnz x 12B + pointer arrays.
    EXPECT_EQ(dualStorageBytes(100, 10, 10),
              2 * 100 * 12 + (11 + 11) * 4);
}

TEST(Blocked, LayoutCountsNonzeroBlocks)
{
    CooMatrix m(512, 512);
    m.add(0, 0, 1.0);     // block (0,0)
    m.add(255, 255, 1.0); // block (0,0)
    m.add(256, 0, 1.0);   // block (1,0)
    m.add(511, 511, 1.0); // block (1,1)
    BlockedLayout layout =
        buildBlockedLayout(CsrMatrix::fromCoo(m), 256).value();
    EXPECT_EQ(layout.nonzero_blocks, 3);
    EXPECT_EQ(layout.nnz, 4);
    EXPECT_EQ(layout.grid_rows, 2);
}

/** Non-empty blocks counted the obvious way: a set of block ids. */
Idx
bruteForceBlocks(const CsrMatrix &m, Idx block_size)
{
    std::set<std::pair<Idx, Idx>> blocks;
    for (Idx r = 0; r < m.rows(); ++r)
        for (Idx c : m.rowCols(r))
            blocks.emplace(r / block_size, c / block_size);
    return static_cast<Idx>(blocks.size());
}

/** Random rows x cols matrix with about `nnz` entries. */
CsrMatrix
randomRect(Idx rows, Idx cols, Idx nnz, std::uint64_t seed)
{
    Rng rng(seed);
    CooMatrix m(rows, cols);
    for (Idx k = 0; k < nnz; ++k)
        m.add(static_cast<Idx>(rng.nextBelow(
                  static_cast<std::uint64_t>(rows))),
              static_cast<Idx>(rng.nextBelow(
                  static_cast<std::uint64_t>(cols))),
              1.0);
    return CsrMatrix::fromCoo(std::move(m));
}

TEST(Blocked, CountMatchesBruteForceOnRaggedShapes)
{
    // Rectangular shapes whose edges leave partial blocks at every
    // tested block size, dense and sparse fills, and an empty matrix.
    const std::vector<CsrMatrix> matrices = {
        randomRect(300, 700, 5000, 1), randomRect(700, 300, 5000, 2),
        randomRect(1000, 1000, 200, 3), randomRect(7, 5, 30, 4),
        randomRect(1, 900, 40, 5), randomRect(900, 1, 40, 6),
        CsrMatrix::fromCoo(CooMatrix(513, 257)),
        CsrMatrix::fromCoo(CooMatrix(0, 0)),
    };
    for (const CsrMatrix &m : matrices) {
        for (Idx block_size : {1, 3, 256}) {
            const BlockedLayout layout =
                buildBlockedLayout(m, block_size).value();
            EXPECT_EQ(layout.nonzero_blocks,
                      bruteForceBlocks(m, block_size))
                << m.rows() << " x " << m.cols() << ", block "
                << block_size;
            EXPECT_EQ(layout.nnz, m.nnz());
        }
    }
}

TEST(Blocked, CompressesDualStorageSubstantially)
{
    CooMatrix raw = testing::smallGraph(2048, 40000, 12);
    CsrMatrix csr = CsrMatrix::fromCoo(raw);
    BlockedLayout layout = buildBlockedLayout(csr).value();
    Idx dual = dualStorageBytes(csr.nnz(), csr.rows(), csr.cols());
    double ratio = static_cast<double>(layout.totalBytes()) /
                   static_cast<double>(dual);
    // Paper Fig. 20a: blocked dual storage ~39.2% of unblocked.
    EXPECT_LT(ratio, 0.6);
    EXPECT_GT(ratio, 0.3);
    EXPECT_LT(layout.bytesPerNonzero(), 12.0);
    EXPECT_GT(layout.bytesPerNonzero(), 9.0);
}

TEST(Blocked, OversizedBlockIsInvalidInput)
{
    CooMatrix raw = testing::smallGraph(64, 100);
    CsrMatrix csr = CsrMatrix::fromCoo(raw);
    StatusOr<BlockedLayout> too_big = buildBlockedLayout(csr, 512);
    ASSERT_FALSE(too_big.ok());
    EXPECT_EQ(too_big.status().code(), StatusCode::InvalidInput);
    EXPECT_NE(too_big.status().toString().find("1-byte"),
              std::string::npos);
    StatusOr<BlockedLayout> zero = buildBlockedLayout(csr, 0);
    ASSERT_FALSE(zero.ok());
    EXPECT_EQ(zero.status().code(), StatusCode::InvalidInput);
}

TEST(Reorder, KindNamesStable)
{
    EXPECT_STREQ(reorderKindName(ReorderKind::None), "none");
    EXPECT_STREQ(reorderKindName(ReorderKind::Vanilla), "vanilla");
    EXPECT_STREQ(reorderKindName(ReorderKind::Locality), "locality");
}

} // namespace
} // namespace sparsepipe
