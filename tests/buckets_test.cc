/**
 * @file
 * Tests of the sub-tensor bucket decomposition and the Table I
 * residency sweep, checked against brute-force recomputation over
 * generated matrices.
 */

#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/buckets.hh"
#include "test_helpers.hh"

namespace sparsepipe {
namespace {

TEST(StepBuckets, CountsMatchBruteForce)
{
    CooMatrix raw = testing::smallGraph(100, 900, 3);
    CscMatrix csc = CscMatrix::fromCoo(raw);
    const Idx t = 16;
    StepBuckets b = StepBuckets::build(csc, t);

    EXPECT_EQ(b.steps(), (100 + t - 1) / t);
    EXPECT_EQ(b.bands(), (100 + t - 1) / t);
    EXPECT_EQ(b.nnz(), csc.nnz());

    CooMatrix canon = raw;
    canon.canonicalize();
    for (Idx cs = 0; cs < b.steps(); ++cs) {
        for (Idx rs = 0; rs < b.bands(); ++rs) {
            Idx expect = 0;
            for (const Triplet &e : canon.entries())
                if (e.col / t == cs && e.row / t == rs)
                    ++expect;
            EXPECT_EQ(b.count(cs, rs), expect);
        }
        Idx col_expect = 0;
        for (const Triplet &e : canon.entries())
            if (e.col / t == cs)
                ++col_expect;
        EXPECT_EQ(b.colStepNnz(cs), col_expect);
    }
}

TEST(StepBuckets, TransposedSwapsRoles)
{
    CooMatrix raw = testing::smallGraph(64, 400, 9);
    CsrMatrix csr = CsrMatrix::fromCoo(raw);
    CscMatrix csc = CscMatrix::fromCoo(raw);
    const Idx t = 8;
    StepBuckets fwd = StepBuckets::build(csc, t);
    StepBuckets swp = StepBuckets::buildTransposed(csr, t);
    for (Idx cs = 0; cs < fwd.steps(); ++cs)
        for (Idx rs = 0; rs < fwd.bands(); ++rs)
            EXPECT_EQ(fwd.count(cs, rs), swp.count(rs, cs));
}

TEST(StepBuckets, BandLoadedThroughIsPrefix)
{
    CooMatrix raw = testing::smallRmat(80, 700, 5);
    StepBuckets b = StepBuckets::build(CscMatrix::fromCoo(raw), 16);
    for (Idx rs = 0; rs < b.bands(); ++rs) {
        Idx acc = 0;
        for (Idx cs = 0; cs < b.steps(); ++cs) {
            acc += b.count(cs, rs);
            EXPECT_EQ(b.bandLoadedThrough(cs, rs), acc);
        }
        EXPECT_EQ(b.bandLoadedThrough(b.steps() + 5, rs), acc);
        EXPECT_EQ(b.bandLoadedThrough(-1, rs), 0);
        EXPECT_EQ(b.bandNnz(rs), acc);
    }
}

/** Random rows x cols pattern with up to `nnz` distinct entries. */
CooMatrix
randomPattern(Idx rows, Idx cols, Idx nnz, std::uint64_t seed)
{
    Rng rng(seed);
    CooMatrix m(rows, cols);
    for (Idx k = 0; k < nnz; ++k)
        m.add(static_cast<Idx>(
                  rng.nextBelow(static_cast<std::uint64_t>(rows))),
              static_cast<Idx>(
                  rng.nextBelow(static_cast<std::uint64_t>(cols))),
              1.0);
    m.canonicalize();
    return m;
}

/**
 * Check the span slabs, the column prefix and the dense counts of `b`
 * against a brute-force grid over `m`'s entries; `transposed` swaps
 * which coordinate picks the column step.
 */
void
expectSlabsMatchGrid(const StepBuckets &b, const CooMatrix &m,
                     bool transposed, const std::string &label)
{
    const Idx t = b.t();
    std::vector<std::vector<Idx>> grid(
        static_cast<std::size_t>(b.steps()),
        std::vector<Idx>(static_cast<std::size_t>(b.bands()), 0));
    for (const Triplet &e : m.entries()) {
        const Idx cs = (transposed ? e.row : e.col) / t;
        const Idx rs = (transposed ? e.col : e.row) / t;
        ++grid[static_cast<std::size_t>(cs)]
              [static_cast<std::size_t>(rs)];
    }
    const auto cell = [&](Idx cs, Idx rs) {
        return grid[static_cast<std::size_t>(cs)]
                   [static_cast<std::size_t>(rs)];
    };

    using Spans = std::vector<std::pair<Idx, Idx>>;
    for (Idx cs = 0; cs < b.steps(); ++cs) {
        Spans want, got;
        Idx prefix = 0;
        EXPECT_EQ(b.colLoadedThrough(cs, -1), 0) << label;
        for (Idx rs = 0; rs < b.bands(); ++rs) {
            EXPECT_EQ(b.count(cs, rs), cell(cs, rs)) << label;
            if (cell(cs, rs) > 0)
                want.emplace_back(rs, cell(cs, rs));
            prefix += cell(cs, rs);
            EXPECT_EQ(b.colLoadedThrough(cs, rs), prefix)
                << label << " cs=" << cs << " rs=" << rs;
        }
        EXPECT_EQ(b.colLoadedThrough(cs, b.bands()), prefix) << label;
        EXPECT_EQ(b.colLoadedThrough(cs, b.bands() + 7), prefix)
            << label;
        for (const BucketSpan &sp : b.colSpans(cs))
            got.emplace_back(sp.at, sp.cnt);
        EXPECT_EQ(got, want) << label << " colSpans(" << cs << ")";
    }
    for (Idx rs = 0; rs < b.bands(); ++rs) {
        Spans want, got;
        for (Idx cs = 0; cs < b.steps(); ++cs)
            if (cell(cs, rs) > 0)
                want.emplace_back(cs, cell(cs, rs));
        for (const BucketSpan &sp : b.bandSpans(rs))
            got.emplace_back(sp.at, sp.cnt);
        EXPECT_EQ(got, want) << label << " bandSpans(" << rs << ")";
    }
}

TEST(StepBuckets, SpansAndColumnPrefixMatchTheDenseGrid)
{
    struct Shape
    {
        const char *name;
        Idx rows, cols, nnz;
    };
    const Shape shapes[] = {
        {"square", 90, 90, 700},
        {"wide", 37, 150, 600},
        {"tall", 150, 37, 600},
        {"empty", 40, 24, 0},
        {"zero", 0, 0, 0},
    };
    std::uint64_t seed = 11;
    for (const Shape &shape : shapes) {
        const CooMatrix m =
            randomPattern(shape.rows, shape.cols, shape.nnz, ++seed);
        for (Idx t : {1, 7, 16, 1000}) {
            const std::string label = std::string(shape.name) +
                                      " t=" + std::to_string(t);
            expectSlabsMatchGrid(
                StepBuckets::build(CscMatrix::fromCoo(m), t), m, false,
                label + " build");
            expectSlabsMatchGrid(
                StepBuckets::buildTransposed(CsrMatrix::fromCoo(m), t),
                m, true, label + " buildTransposed");
        }
    }
}

/** Brute-force residency: elements loaded (cs <= j) in bands not
 *  yet unlocked (rs > j - lag). */
Idx
bruteResident(const CooMatrix &m, Idx t, Idx lag, Idx j)
{
    Idx resident = 0;
    for (const Triplet &e : m.entries())
        if (e.col / t <= j && e.row / t > j - lag)
            ++resident;
    return resident;
}

class ResidencyProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(ResidencyProperty, SweepMatchesBruteForce)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    CooMatrix raw = GetParam() % 2 == 0
        ? generateUniform(90, 700, rng)
        : generateRmat(90, 700, rng);
    raw.canonicalize();
    const Idx t = 8, lag = 2;
    StepBuckets b = StepBuckets::build(CscMatrix::fromCoo(raw), t);
    ResidencyStats stats = residencySweep(b, lag);

    Idx brute_max = 0;
    double brute_sum = 0.0;
    for (Idx j = 0; j < b.steps(); ++j) {
        Idx r = bruteResident(raw, t, lag, j);
        brute_max = std::max(brute_max, r);
        brute_sum += static_cast<double>(r);
    }
    EXPECT_EQ(stats.max_resident, brute_max);
    EXPECT_NEAR(stats.avg_resident,
                brute_sum / static_cast<double>(b.steps()), 1e-9);
    EXPECT_NEAR(stats.maxPercent(raw.nnz()),
                100.0 * static_cast<double>(brute_max) /
                    static_cast<double>(raw.nnz()), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResidencyProperty,
                         ::testing::Range(1, 9));

TEST(Residency, LowerTriangleDominatesUpperTriangle)
{
    // The OEI window holds elements below the diagonal much longer,
    // so a lower-triangular matrix needs far more on-chip space
    // than its transpose — the motivation for the vanilla reorder.
    Rng rng(77);
    CooMatrix lower = generateLowerSkew(200, 3000, 0.95, rng);
    CooMatrix upper = lower.transposed();

    const Idx t = 8, lag = 2;
    auto max_pct = [&](const CooMatrix &m) {
        StepBuckets b = StepBuckets::build(CscMatrix::fromCoo(m), t);
        return residencySweep(b, lag).maxPercent(m.nnz());
    };
    EXPECT_GT(max_pct(lower), 2.0 * max_pct(upper));
}

TEST(Residency, BandedNeedsLessThanUniform)
{
    Rng rng(88);
    CooMatrix banded = generateBanded(400, 10, 4.0, rng);
    CooMatrix uniform = generateUniform(400, banded.nnz(), rng);
    const Idx t = 16, lag = 2;
    auto avg_pct = [&](const CooMatrix &m) {
        StepBuckets b = StepBuckets::build(CscMatrix::fromCoo(m), t);
        return residencySweep(b, lag).avgPercent(m.nnz());
    };
    EXPECT_LT(avg_pct(banded), avg_pct(uniform));
}

TEST(StepBuckets, BadSubTensorIsFatal)
{
    CooMatrix raw = testing::smallGraph(16, 50);
    CscMatrix csc = CscMatrix::fromCoo(raw);
    EXPECT_DEATH(StepBuckets::build(csc, 0), "positive");
}

TEST(StepBuckets, HeldBytesStayUnderTheBound)
{
    for (const Idx t : {4, 16, 64}) {
        const CooMatrix raw = testing::smallRmat(200, 3000, 11);
        const CsrMatrix csr = CsrMatrix::fromCoo(raw);
        const CscMatrix csc = CscMatrix::fromCsr(csr);
        const std::uint64_t bound =
            StepBuckets::boundBytes(csr.rows(), csr.cols(), csr.nnz(), t);
        EXPECT_LE(StepBuckets::build(csc, t).heldBytes(), bound) << t;
        EXPECT_LE(StepBuckets::buildTransposed(csr, t).heldBytes(), bound)
            << t;
    }
}

/** A CSR / CSC pair and a counted memo of its pattern. */
struct MemoFixture
{
    CsrMatrix csr = CsrMatrix::fromCoo(testing::smallRmat(120, 1500, 21));
    CscMatrix csc = CscMatrix::fromCsr(csr);
    std::shared_ptr<BucketMemoCounters> counters =
        std::make_shared<BucketMemoCounters>();
    BucketMemo memo{csr.pattern(), csc.pattern(), counters};
};

TEST(BucketMemo, HitsReturnTheBuiltBucketsOfEachOrientation)
{
    MemoFixture f;
    const auto cols = f.memo.build(f.csc, 16);
    const auto rows = f.memo.buildTransposed(f.csr, 16);
    EXPECT_TRUE(*cols == StepBuckets::build(f.csc, 16));
    EXPECT_TRUE(*rows == StepBuckets::buildTransposed(f.csr, 16));
    EXPECT_EQ(f.memo.build(f.csc, 16), cols);
    EXPECT_EQ(f.memo.buildTransposed(f.csr, 16), rows);
    // Copies of the matrices read the same pattern arrays.
    const CscMatrix csc_copy = f.csc;
    EXPECT_EQ(f.memo.build(csc_copy, 16), cols);
    EXPECT_EQ(f.counters->misses.load(), 2u);
    EXPECT_EQ(f.counters->hits.load(), 3u);
    EXPECT_EQ(f.memo.heldBytes(), cols->heldBytes() + rows->heldBytes());

    // A copied memo serves the same pattern and starts empty.
    BucketMemo copy(f.memo);
    EXPECT_EQ(copy.heldBytes(), 0u);
    EXPECT_NE(copy.build(f.csc, 16), cols);
    EXPECT_EQ(f.counters->misses.load(), 3u);
}

TEST(BucketMemo, ServesOnlyItsOwnPatternArrays)
{
    // Equal coordinates in other arrays, and other coordinates of the
    // same shape, both get buckets built for the call, uncounted.
    MemoFixture f;
    const CscMatrix rebuilt = CscMatrix::fromCoo(f.csr.toCoo());
    ASSERT_EQ(rebuilt, f.csc);
    ASSERT_NE(rebuilt.pattern(), f.csc.pattern());
    const CscMatrix other =
        CscMatrix::fromCoo(testing::smallRmat(120, 1500, 22));
    const auto own = f.memo.build(f.csc, 8);
    const auto same_coords = f.memo.build(rebuilt, 8);
    EXPECT_NE(same_coords, own);
    EXPECT_TRUE(*same_coords == *own);
    EXPECT_TRUE(*f.memo.build(other, 8) == StepBuckets::build(other, 8));
    EXPECT_TRUE(*f.memo.buildTransposed(CsrMatrix::fromCsc(other), 8) ==
                StepBuckets::buildTransposed(CsrMatrix::fromCsc(other), 8));
    EXPECT_EQ(f.counters->misses.load(), 1u);
    EXPECT_EQ(f.counters->hits.load(), 0u);

    // A memo of no pattern builds every time.
    BucketMemo none;
    EXPECT_NE(none.build(f.csc, 8), none.build(f.csc, 8));
    EXPECT_EQ(none.heldBytes(), 0u);
}

TEST(BucketMemo, FullMemoDropsItsOldestEntry)
{
    MemoFixture f;
    std::vector<std::shared_ptr<const StepBuckets>> built;
    for (Idx t = 1; t <= static_cast<Idx>(BucketMemo::kCapacity) + 1; ++t)
        built.push_back(f.memo.build(f.csc, 4 * t));
    EXPECT_EQ(f.counters->evictions.load(), 1u);
    // The newest widths are held; the oldest (t = 4) was dropped,
    // while the holder of its buckets keeps them.
    EXPECT_EQ(f.memo.build(f.csc, 4 * static_cast<Idx>(
                                      BucketMemo::kCapacity + 1)),
              built.back());
    EXPECT_EQ(f.memo.build(f.csc, 8), built[1]);
    EXPECT_TRUE(*built.front() == StepBuckets::build(f.csc, 4));
    const auto rebuilt = f.memo.build(f.csc, 4);
    EXPECT_NE(rebuilt, built.front());
    EXPECT_TRUE(*rebuilt == *built.front());
    EXPECT_EQ(f.counters->misses.load(), BucketMemo::kCapacity + 2);
    EXPECT_EQ(f.counters->evictions.load(), 2u);
}

TEST(BucketMemo, ConcurrentLookupsBuildOnce)
{
    // Runs under the TSan CI job.
    MemoFixture f;
    constexpr int kThreads = 8;
    std::vector<std::shared_ptr<const StepBuckets>> got(kThreads);
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i)
        threads.emplace_back([&f, &got, i] {
            got[static_cast<std::size_t>(i)] =
                i % 2 ? f.memo.build(f.csc, 8)
                      : f.memo.buildTransposed(f.csr, 8);
        });
    for (std::thread &t : threads)
        t.join();
    for (int i = 2; i < kThreads; ++i)
        EXPECT_EQ(got[static_cast<std::size_t>(i)],
                  got[static_cast<std::size_t>(i % 2)]);
    EXPECT_EQ(f.counters->misses.load(), 2u);
    EXPECT_EQ(f.counters->hits.load(), kThreads - 2u);
}

} // namespace
} // namespace sparsepipe
