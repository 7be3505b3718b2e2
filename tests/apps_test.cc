/**
 * @file
 * Semantic tests of the application suite: each dataflow program is
 * checked against an independent, direct implementation of the
 * algorithm (queue BFS, Bellman-Ford, dense power iteration, peeling
 * k-core, CG residual reduction, ...).
 */

#include <algorithm>
#include <limits>
#include <map>
#include <queue>

#include <gtest/gtest.h>

#include "apps/apps.hh"
#include "ref/executor.hh"
#include "test_helpers.hh"

namespace sparsepipe {
namespace {

constexpr Value inf = std::numeric_limits<Value>::infinity();

/** Run an app on a raw matrix and return the final workspace. */
Workspace
runApp(const AppInstance &app, const CooMatrix &raw, Idx iters = 0)
{
    Workspace ws(app.program);
    ws.bindMatrix(app.matrix, app.prepare(raw));
    app.init(ws);
    RefExecutor().run(ws, iters > 0 ? iters : app.default_iters);
    return ws;
}

TEST(PageRank, SumsToOneAndMatchesPowerIteration)
{
    const Idx n = 64;
    CooMatrix raw = testing::smallGraph(n, 700);
    AppInstance app = makePageRank(n, 0.85);
    Workspace ws = runApp(app, raw, 40);

    const DenseVector &pr = ws.vec(app.result);
    Value sum = 0.0;
    for (Value v : pr)
        sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-6);

    // Independent dense power iteration with dangling handling.
    CsrMatrix l = prepareStochastic(raw);
    DenseVector x(static_cast<std::size_t>(n), 1.0 / n);
    for (int it = 0; it < 40; ++it) {
        Value dang = 0.0;
        for (Idx r = 0; r < n; ++r)
            if (l.rowNnz(r) == 0)
                dang += x[static_cast<std::size_t>(r)];
        DenseVector next(static_cast<std::size_t>(n), 0.0);
        for (Idx r = 0; r < n; ++r) {
            auto cols = l.rowCols(r);
            auto vals = l.rowVals(r);
            for (std::size_t k = 0; k < cols.size(); ++k)
                next[static_cast<std::size_t>(cols[k])] +=
                    x[static_cast<std::size_t>(r)] * vals[k];
        }
        for (Idx j = 0; j < n; ++j)
            next[static_cast<std::size_t>(j)] =
                0.85 * next[static_cast<std::size_t>(j)] +
                (0.85 * dang + 0.15) / static_cast<Value>(n);
        x = next;
    }
    for (Idx i = 0; i < n; ++i)
        EXPECT_NEAR(pr[static_cast<std::size_t>(i)],
                    x[static_cast<std::size_t>(i)], 1e-9);
}

TEST(Bfs, MatchesQueueBfsReachability)
{
    const Idx n = 80;
    CooMatrix raw = testing::smallRmat(n, 600);
    AppInstance app = makeBfs(n, /*source=*/0);
    Workspace ws = runApp(app, raw, n); // enough rounds to finish

    // Queue BFS over out-edges (vxm spreads along row -> col).
    CsrMatrix a = prepareBoolean(raw);
    std::vector<char> seen(static_cast<std::size_t>(n), 0);
    std::queue<Idx> q;
    q.push(0);
    seen[0] = 1;
    while (!q.empty()) {
        Idx v = q.front();
        q.pop();
        for (Idx c : a.rowCols(v)) {
            if (!seen[static_cast<std::size_t>(c)]) {
                seen[static_cast<std::size_t>(c)] = 1;
                q.push(c);
            }
        }
    }
    const DenseVector &visited = ws.vec(app.result);
    for (Idx i = 0; i < n; ++i)
        EXPECT_EQ(visited[static_cast<std::size_t>(i)] != 0.0,
                  seen[static_cast<std::size_t>(i)] != 0)
            << "vertex " << i;
}

TEST(Sssp, MatchesBellmanFord)
{
    const Idx n = 60;
    CooMatrix raw = testing::smallGraph(n, 500, 77);
    AppInstance app = makeSssp(n, 0);
    Workspace ws = runApp(app, raw, n);

    CsrMatrix w = prepareWeighted(raw);
    DenseVector dist(static_cast<std::size_t>(n), inf);
    dist[0] = 0.0;
    for (Idx round = 0; round < n; ++round) {
        for (Idx r = 0; r < n; ++r) {
            if (dist[static_cast<std::size_t>(r)] == inf)
                continue;
            auto cols = w.rowCols(r);
            auto vals = w.rowVals(r);
            for (std::size_t k = 0; k < cols.size(); ++k) {
                auto c = static_cast<std::size_t>(cols[k]);
                dist[c] = std::min(
                    dist[c],
                    dist[static_cast<std::size_t>(r)] + vals[k]);
            }
        }
    }
    const DenseVector &got = ws.vec(app.result);
    for (Idx i = 0; i < n; ++i) {
        auto idx = static_cast<std::size_t>(i);
        if (dist[idx] == inf)
            EXPECT_EQ(got[idx], inf);
        else
            EXPECT_NEAR(got[idx], dist[idx], 1e-9);
    }
}

TEST(Kcore, MatchesIterativePeeling)
{
    const Idx n = 64;
    const Value k = 3.0;
    CooMatrix raw = testing::smallGraph(n, 600, 5);
    AppInstance app = makeKcore(n, k);
    Workspace ws = runApp(app, raw, 64);

    // Direct synchronous peeling on in-degrees.
    CsrMatrix a = prepareBoolean(raw);
    std::vector<char> active(static_cast<std::size_t>(n), 1);
    for (Idx round = 0; round < n; ++round) {
        std::vector<Idx> deg(static_cast<std::size_t>(n), 0);
        for (Idx r = 0; r < n; ++r) {
            if (!active[static_cast<std::size_t>(r)])
                continue;
            for (Idx c : a.rowCols(r))
                ++deg[static_cast<std::size_t>(c)];
        }
        bool changed = false;
        for (Idx v = 0; v < n; ++v) {
            auto idx = static_cast<std::size_t>(v);
            if (active[idx] && static_cast<Value>(deg[idx]) < k) {
                active[idx] = 0;
                changed = true;
            }
        }
        if (!changed)
            break;
    }
    const DenseVector &got = ws.vec(app.result);
    for (Idx i = 0; i < n; ++i)
        EXPECT_EQ(got[static_cast<std::size_t>(i)] != 0.0,
                  active[static_cast<std::size_t>(i)] != 0)
            << "vertex " << i;
}

TEST(Cg, SolvesPoissonSystem)
{
    CooMatrix raw = generatePoisson2D(8); // 64 unknowns, SPD as-is
    AppInstance app = makeCg(64);
    Workspace ws(app.program);
    CsrMatrix a = app.prepare(raw);
    ws.bindMatrix(app.matrix, a);
    app.init(ws);

    // Capture b = r0 before iterating.
    TensorId r_id = invalid_tensor;
    for (TensorId id = 0;
         id < static_cast<TensorId>(app.program.tensors().size());
         ++id) {
        if (app.program.tensor(id).name == "r")
            r_id = id;
    }
    ASSERT_NE(r_id, invalid_tensor);
    DenseVector rhs = ws.vec(r_id);

    RunResult rr = RefExecutor().run(ws, 200);
    EXPECT_TRUE(rr.converged);

    // Check A x ~= b.
    const DenseVector &x = ws.vec(app.result);
    DenseVector ax(x.size(), 0.0);
    for (Idx r = 0; r < a.rows(); ++r) {
        auto cols = a.rowCols(r);
        auto vals = a.rowVals(r);
        // Solution satisfies x A = b for the vxm orientation; the
        // prepared matrix is symmetric so A x == x A.
        for (std::size_t k = 0; k < cols.size(); ++k)
            ax[static_cast<std::size_t>(cols[k])] +=
                x[static_cast<std::size_t>(r)] * vals[k];
    }
    for (std::size_t i = 0; i < rhs.size(); ++i)
        EXPECT_NEAR(ax[i], rhs[i], 1e-6);
}

TEST(Bgs, ResidualDropsMonotonicallyEnough)
{
    CooMatrix raw = testing::smallGraph(64, 500, 21);
    AppInstance app = makeBgs(64);
    Workspace ws(app.program);
    ws.bindMatrix(app.matrix, app.prepare(raw));
    app.init(ws);
    RunResult rr = RefExecutor().run(ws, 60);
    EXPECT_TRUE(rr.converged);
}

TEST(Gmres, StaysBoundedUnderLaggedNormalisation)
{
    CooMatrix raw = testing::smallGraph(64, 500, 31);
    AppInstance app = makeGmres(64);
    Workspace ws = runApp(app, raw, 50);
    const DenseVector &v = ws.vec(app.result);
    Value norm = 0.0;
    for (Value e : v)
        norm += e * e;
    norm = std::sqrt(norm);
    EXPECT_GT(norm, 1e-6);
    EXPECT_LT(norm, 1e6); // lagged normalisation keeps it bounded
}

TEST(Knn, ReachesTwoHopNeighbourhoodPerIteration)
{
    const Idx n = 50;
    CooMatrix raw = testing::smallGraph(n, 300, 9);
    AppInstance app = makeKnn(n, 0);
    Workspace ws = runApp(app, raw, 1);

    // One iteration covers distance <= 2 from the source.
    CsrMatrix a = prepareBoolean(raw);
    std::vector<int> dist(static_cast<std::size_t>(n), -1);
    std::queue<Idx> q;
    q.push(0);
    dist[0] = 0;
    while (!q.empty()) {
        Idx v = q.front();
        q.pop();
        for (Idx c : a.rowCols(v)) {
            if (dist[static_cast<std::size_t>(c)] < 0) {
                dist[static_cast<std::size_t>(c)] =
                    dist[static_cast<std::size_t>(v)] + 1;
                q.push(c);
            }
        }
    }
    const DenseVector &visited = ws.vec(app.result);
    for (Idx i = 0; i < n; ++i) {
        auto idx = static_cast<std::size_t>(i);
        bool within2 = dist[idx] >= 0 && dist[idx] <= 2;
        EXPECT_EQ(visited[idx] != 0.0, within2) << "vertex " << i;
    }
}

TEST(Kpp, MinDistanceIsMonotoneNonIncreasing)
{
    const Idx n = 64;
    CooMatrix raw = testing::smallGraph(n, 600, 15);
    AppInstance app = makeKpp(n, 0);
    Workspace ws(app.program);
    ws.bindMatrix(app.matrix, app.prepare(raw));
    app.init(ws);

    RefExecutor ref;
    DenseVector prev = ws.vec(app.result);
    for (int it = 0; it < 8; ++it) {
        ref.runBody(ws);
        ref.applyCarries(ws);
        const DenseVector &cur = ws.vec(app.result);
        for (std::size_t i = 0; i < cur.size(); ++i)
            EXPECT_LE(cur[i], prev[i] + 1e-12);
        prev = cur;
    }
}

TEST(LabelProp, SeedsKeepHighestScores)
{
    const Idx n = 64;
    CooMatrix raw = testing::smallGraph(n, 800, 25);
    AppInstance app = makeLabelProp(n, 0.8);
    Workspace ws = runApp(app, raw, 30);
    const DenseVector &score = ws.vec(app.result);
    // Scores are bounded by the fixed point of s = 0.8 s + 0.2 seed.
    for (Value v : score) {
        EXPECT_GE(v, 0.0);
        EXPECT_LE(v, 1.0 + 1e-9);
    }
    // Seed vertices (every 16th) retain above-average score.
    Value avg = 0.0;
    for (Value v : score)
        avg += v;
    avg /= static_cast<Value>(n);
    EXPECT_GT(score[0], avg);
}

TEST(Gcn, ActivationsAreNonNegativeAndChange)
{
    const Idx n = 48;
    CooMatrix raw = testing::smallGraph(n, 400, 33);
    AppInstance app = makeGcn(n, 8);
    Workspace ws(app.program);
    ws.bindMatrix(app.matrix, app.prepare(raw));
    app.init(ws);
    DenseMatrix before = ws.den(app.result);
    RefExecutor().run(ws, 2);
    const DenseMatrix &h = ws.den(app.result);
    bool changed = false;
    for (std::size_t i = 0; i < h.data().size(); ++i) {
        EXPECT_GE(h.data()[i], 0.0); // ReLU output
        changed = changed || h.data()[i] != before.data()[i];
    }
    EXPECT_TRUE(changed);
}

TEST(Prepare, SpdIsSymmetricAndDominant)
{
    CooMatrix raw = testing::smallGraph(32, 200, 41);
    CsrMatrix a = prepareSpd(raw);
    EXPECT_EQ(a.rows(), 32);
    // Symmetry via transpose comparison.
    CooMatrix c = a.toCoo();
    CooMatrix t = c.transposed();
    t.canonicalize();
    EXPECT_EQ(t.entries(), c.entries());
    // Dominance.
    for (Idx r = 0; r < 32; ++r) {
        Value diag = 0.0, off = 0.0;
        auto cols = a.rowCols(r);
        auto vals = a.rowVals(r);
        for (std::size_t k = 0; k < cols.size(); ++k) {
            if (cols[k] == r)
                diag = vals[k];
            else
                off += std::abs(vals[k]);
        }
        EXPECT_GT(diag, off);
    }
}

/**
 * The COO assembly prepareSpd used before it merged rows with
 * columns directly in CSR: every half pushed as a triplet, stable
 * row-major sort + merge, row sums, diagonal, second canonicalize.
 * Kept here as the bit-exact reference.
 */
CsrMatrix
referenceSpd(const CooMatrix &m)
{
    CooMatrix sym(m.rows(), m.cols());
    for (const Triplet &t : m.entries()) {
        if (t.row == t.col)
            continue;
        Value half = 0.5 * t.val;
        sym.add(t.row, t.col, half);
        sym.add(t.col, t.row, half);
    }
    sym.canonicalize();
    std::vector<Value> row_abs(static_cast<std::size_t>(m.rows()), 0.0);
    for (const Triplet &t : sym.entries())
        row_abs[static_cast<std::size_t>(t.row)] += std::abs(t.val);
    for (Idx r = 0; r < m.rows(); ++r)
        sym.add(r, r, 1.0 + row_abs[static_cast<std::size_t>(r)]);
    sym.canonicalize();
    return CsrMatrix::fromCoo(std::move(sym));
}

/** prepareSpd(raw) against referenceSpd(raw), array by array. */
::testing::AssertionResult
matchesReferenceSpd(const CooMatrix &raw)
{
    const CsrMatrix got = prepareSpd(raw);
    const CsrMatrix want = referenceSpd(raw);
    if (!got.validate())
        return ::testing::AssertionFailure() << "invalid CSR";
    if (got.rows() != want.rows() || got.cols() != want.cols())
        return ::testing::AssertionFailure() << "shape differs";
    if (got.rowPtr() != want.rowPtr())
        return ::testing::AssertionFailure() << "row pointers differ";
    if (got.colIdx() != want.colIdx())
        return ::testing::AssertionFailure() << "columns differ";
    for (std::size_t i = 0; i < want.vals().size(); ++i) {
        if (!testing::sameBits(got.vals()[i], want.vals()[i]))
            return ::testing::AssertionFailure()
                   << "value " << i << ": " << got.vals()[i]
                   << " vs reference " << want.vals()[i];
    }
    return ::testing::AssertionSuccess();
}

/** Canonical n x n matrix from (row, col, val) entries. */
CooMatrix
squareFrom(Idx n, std::initializer_list<Triplet> entries)
{
    CooMatrix m(n, n);
    for (const Triplet &t : entries)
        m.add(t.row, t.col, t.val);
    m.sortRowMajor();
    EXPECT_TRUE(m.isCanonical());
    return m;
}

/** Row r of a CSR matrix as (col -> value). */
std::map<Idx, Value>
rowOf(const CsrMatrix &a, Idx r)
{
    std::map<Idx, Value> row;
    for (std::size_t k = 0; k < a.rowCols(r).size(); ++k)
        row[a.rowCols(r)[k]] = a.rowVals(r)[k];
    return row;
}

TEST(Prepare, SpdMatchesCooAssemblyOnGeneratedShapes)
{
    EXPECT_TRUE(matchesReferenceSpd(testing::smallGraph()));
    EXPECT_TRUE(matchesReferenceSpd(testing::smallGraph(32, 200, 41)));
    EXPECT_TRUE(matchesReferenceSpd(testing::smallGraph(300, 4000, 7)));
    EXPECT_TRUE(matchesReferenceSpd(testing::smallRmat()));
    EXPECT_TRUE(matchesReferenceSpd(testing::smallRmat(512, 9000, 5)));
    EXPECT_TRUE(matchesReferenceSpd(CooMatrix(0, 0)));
    EXPECT_TRUE(matchesReferenceSpd(CooMatrix(5, 5)));
}

TEST(Prepare, SpdCancellationDropsTheEntryAndItsRowSum)
{
    // a_12 = -a_21: b_12 = 1.5 + -1.5 = 0 drops from both rows and
    // from both row sums; a_13 survives.
    const CooMatrix raw = squareFrom(
        4, {{1, 2, 3.0}, {1, 3, 2.0}, {2, 1, -3.0}});
    ASSERT_TRUE(matchesReferenceSpd(raw));
    const CsrMatrix a = prepareSpd(raw);
    EXPECT_EQ(rowOf(a, 1), (std::map<Idx, Value>{{1, 2.0}, {3, 1.0}}));
    EXPECT_EQ(rowOf(a, 2), (std::map<Idx, Value>{{2, 1.0}}));
    EXPECT_EQ(rowOf(a, 3), (std::map<Idx, Value>{{1, 1.0}, {3, 2.0}}));
}

TEST(Prepare, SpdIgnoresStoredDiagonalAndFillsEmptyRows)
{
    // Row 2 is empty in A and A^T; rows 0 and 3 store diagonals.
    const CooMatrix raw = squareFrom(
        5, {{0, 0, 9.0}, {0, 1, 4.0}, {3, 3, -7.0}, {3, 4, -2.0},
            {4, 0, 6.0}});
    ASSERT_TRUE(matchesReferenceSpd(raw));
    const CsrMatrix a = prepareSpd(raw);
    EXPECT_EQ(rowOf(a, 0),
              (std::map<Idx, Value>{{0, 6.0}, {1, 2.0}, {4, 3.0}}));
    EXPECT_EQ(rowOf(a, 2), (std::map<Idx, Value>{{2, 1.0}}));
    EXPECT_EQ(rowOf(a, 3), (std::map<Idx, Value>{{3, 2.0}, {4, -1.0}}));
}

TEST(Prepare, SpdRowsWithEntriesOnOneSideOfTheDiagonal)
{
    // Strictly lower / upper triangular inputs: B's first row has
    // entries only right of its diagonal, its last only left.
    CooMatrix lower(6, 6), upper(6, 6);
    for (Idx r = 0; r < 6; ++r) {
        for (Idx c = 0; c < r; ++c) {
            lower.add(r, c, static_cast<Value>(r * 10 + c));
            upper.add(c, r, static_cast<Value>(r * 10 + c));
        }
    }
    upper.sortRowMajor();
    EXPECT_TRUE(matchesReferenceSpd(lower));
    EXPECT_TRUE(matchesReferenceSpd(upper));
    // One-sided rows of A itself: row 0 stores only right of the
    // diagonal, row 3 only left, and nothing mirrors them.
    EXPECT_TRUE(matchesReferenceSpd(
        squareFrom(4, {{0, 2, 1.0}, {0, 3, 5.0}, {3, 1, -4.0}})));
}

TEST(Prepare, SpdSubnormalHalvesThatRoundToZeroDrop)
{
    const Value tiny = std::numeric_limits<Value>::denorm_min();
    // (0,1)/(1,0): both halves round to zero, so the pair drops even
    // though 0.5 * (tiny + tiny) would not.  (2,3): one-sided, drops.
    // (4,5)/(5,4): 0.5 * 3 tiny rounds to 2 tiny, 0.5 * tiny to 0,
    // and the 2 tiny row sum vanishes in the diagonal's 1 + sum.
    const CooMatrix raw = squareFrom(
        6, {{0, 1, tiny}, {1, 0, tiny}, {2, 3, tiny},
            {4, 5, 3 * tiny}, {5, 4, tiny}});
    ASSERT_TRUE(matchesReferenceSpd(raw));
    const CsrMatrix a = prepareSpd(raw);
    EXPECT_EQ(rowOf(a, 0), (std::map<Idx, Value>{{0, 1.0}}));
    EXPECT_EQ(rowOf(a, 2), (std::map<Idx, Value>{{2, 1.0}}));
    EXPECT_EQ(rowOf(a, 4),
              (std::map<Idx, Value>{{4, 1.0}, {5, 2 * tiny}}));
}

TEST(Prepare, SpdCarriesInfinitiesAndNaNs)
{
    const Value inf_v = std::numeric_limits<Value>::infinity();
    const Value nan_v = std::numeric_limits<Value>::quiet_NaN();
    // inf + -inf is NaN (kept: only exact zeros drop); a one-sided
    // inf or NaN poisons its rows' sums and diagonals.
    const CooMatrix raw = squareFrom(
        7, {{0, 1, inf_v}, {1, 0, -inf_v}, {2, 3, nan_v},
            {4, 5, -inf_v}, {5, 6, 1.0}, {6, 5, nan_v}});
    ASSERT_TRUE(matchesReferenceSpd(raw));
    const CsrMatrix a = prepareSpd(raw);
    EXPECT_TRUE(std::isnan(rowOf(a, 0).at(1)));
    EXPECT_TRUE(std::isnan(rowOf(a, 0).at(0)));
    EXPECT_TRUE(std::isnan(rowOf(a, 3).at(3)));
    EXPECT_EQ(rowOf(a, 4).at(5), -inf_v);
    EXPECT_EQ(rowOf(a, 4).at(4), inf_v);
}

/**
 * The value kinds' COO bodies from before they shared one value
 * function with the two-form Prepare, kept as the reference: Boolean
 * and Weighted map each triplet before fromCoo merges duplicates and
 * drops zeros, Stochastic counts each row after.
 */
CsrMatrix
referenceValueKind(PrepareKind kind, CooMatrix m)
{
    if (kind == PrepareKind::Stochastic)
        return CsrMatrix::fromCoo(rowStochastic(std::move(m)));
    for (Triplet &t : m.entries())
        t.val = kind == PrepareKind::Boolean ? 1.0
                : t.val <= 0.0               ? 0.1
                                             : t.val;
    return CsrMatrix::fromCoo(std::move(m));
}

/** Unsorted entries with duplicates, explicit zeros and negatives. */
CooMatrix
messyCoo()
{
    Rng rng(17);
    CooMatrix m(30, 30);
    for (int k = 0; k < 400; ++k) {
        const auto r = static_cast<Idx>(rng.nextBelow(30));
        const auto c = static_cast<Idx>(rng.nextBelow(30));
        const Value v = k % 6 == 0 ? 0.0 : rng.nextDouble() * 4.0 - 1.0;
        m.add(r, c, v);
        if (k % 7 == 0)
            m.add(r, c, -v); // cancels once merged
    }
    return m;
}

TEST(Prepare, CooHelpersMapBeforeMergingAsBefore)
{
    const CooMatrix messy = messyCoo();
    ASSERT_FALSE(messy.isCanonical());
    const std::vector<std::pair<PrepareKind, CsrMatrix (*)(CooMatrix)>>
        helpers = {{PrepareKind::Boolean, prepareBoolean},
                   {PrepareKind::Stochastic, prepareStochastic},
                   {PrepareKind::Weighted, prepareWeighted}};
    for (const auto &[kind, helper] : helpers) {
        const CsrMatrix want = referenceValueKind(kind, messy);
        EXPECT_TRUE(testing::sameArrays(helper(messy), want))
            << static_cast<int>(kind);
        EXPECT_TRUE(testing::sameArrays(Prepare{kind}(messy), want))
            << static_cast<int>(kind);
    }
    // A duplicate stores 2 in the boolean operand, and a cancelled
    // pair or an explicit zero stays an entry of the boolean and
    // weighted operands, which the stochastic one drops.
    const CsrMatrix boolean = prepareBoolean(messy);
    const CsrMatrix stochastic = prepareStochastic(messy);
    EXPECT_GT(boolean.nnz(), stochastic.nnz());
    EXPECT_NE(std::find(boolean.vals().begin(), boolean.vals().end(), 2.0),
              boolean.vals().end());
    EXPECT_EQ(prepareWeighted(messy).nnz(), boolean.nnz());

    // SPD merges the canonical matrix, as its COO assembly did.
    CooMatrix canonical = messy;
    canonical.canonicalize();
    EXPECT_TRUE(testing::sameArrays(prepareSpd(messy),
                                    referenceSpd(canonical)));
    EXPECT_TRUE(testing::sameArrays(Prepare{PrepareKind::Spd}(messy),
                                    referenceSpd(canonical)));
}

TEST(Prepare, TwoFormCallMatchesTheCooCallOnACanonicalMatrix)
{
    CooMatrix m = messyCoo();
    m.canonicalize();
    const CsrMatrix a = CsrMatrix::fromCoo(m);
    const CscMatrix a_cols = CscMatrix::fromCsr(a);
    for (PrepareKind kind : {PrepareKind::Boolean, PrepareKind::Stochastic,
                             PrepareKind::Weighted, PrepareKind::Spd}) {
        const auto [csr, csc] = Prepare{kind}(a, a_cols);
        const CsrMatrix want = Prepare{kind}(m);
        EXPECT_TRUE(testing::sameArrays(csr, want)) << static_cast<int>(kind);
        EXPECT_TRUE(testing::sameArrays(csc, CscMatrix::fromCsr(want)))
            << static_cast<int>(kind);
        // The value kinds keep a's patterns; SPD's CSC reads its CSR.
        const bool spd = kind == PrepareKind::Spd;
        EXPECT_EQ(csr.pattern() == a.pattern(), !spd);
        EXPECT_EQ(csc.pattern() == a_cols.pattern(), !spd);
        EXPECT_EQ(csc.vals().data() == csr.vals().data(), spd);
    }
}

TEST(Registry, AllAppsInstantiate)
{
    for (const AppInfo &info : appInfos()) {
        AppInstance app = makeApp(info.name, 32);
        EXPECT_EQ(app.program.name(), info.name);
        EXPECT_NE(app.matrix, invalid_tensor);
        EXPECT_NE(app.result, invalid_tensor);
        EXPECT_GT(app.default_iters, 0);
    }
    EXPECT_DEATH(makeApp("nope", 32), "unknown application");
}

} // namespace
} // namespace sparsepipe
