/**
 * @file
 * Tests for the synthetic matrix generators and the Table I dataset
 * registry.
 */

#include <gtest/gtest.h>

#include "sparse/datasets.hh"
#include "sparse/generate.hh"
#include "test_helpers.hh"

namespace sparsepipe {
namespace {

TEST(Generators, UniformShapeAndDeterminism)
{
    Rng a(99), b(99);
    CooMatrix m1 = generateUniform(100, 800, a);
    CooMatrix m2 = generateUniform(100, 800, b);
    EXPECT_EQ(m1.entries(), m2.entries());
    EXPECT_EQ(m1.rows(), 100);
    EXPECT_LE(m1.nnz(), 800);
    EXPECT_GT(m1.nnz(), 700); // few collisions at 8% density
}

TEST(Generators, RmatIsSkewed)
{
    Rng rng(7);
    CooMatrix m = generateRmat(256, 4000, rng);
    // Row degree distribution should be heavy-tailed: the busiest
    // row holds far more than the mean.
    std::vector<Idx> deg(256, 0);
    for (const Triplet &t : m.entries())
        ++deg[static_cast<std::size_t>(t.row)];
    Idx max_deg = *std::max_element(deg.begin(), deg.end());
    double mean_deg =
        static_cast<double>(m.nnz()) / 256.0;
    EXPECT_GT(static_cast<double>(max_deg), 4.0 * mean_deg);
}

TEST(Generators, BandedStaysInBand)
{
    Rng rng(11);
    const Idx band = 8;
    CooMatrix m = generateBanded(200, band, 4.0, rng);
    for (const Triplet &t : m.entries())
        EXPECT_LE(std::abs(t.row - t.col), band);
    EXPECT_GT(m.nnz(), 200 * 3);
}

TEST(Generators, ClusteredConcentratesInBlocks)
{
    Rng rng(13);
    const Idx n = 256, clusters = 8;
    CooMatrix m = generateClustered(n, 4000, clusters, 0.9, rng);
    const Idx block = n / clusters;
    Idx inside = 0;
    for (const Triplet &t : m.entries())
        if (t.row / block == t.col / block)
            ++inside;
    EXPECT_GT(static_cast<double>(inside),
              0.7 * static_cast<double>(m.nnz()));
}

TEST(Generators, LowerSkewPutsMassBelowDiagonal)
{
    Rng rng(17);
    CooMatrix m = generateLowerSkew(256, 4000, 0.85, rng);
    Idx lower = 0;
    for (const Triplet &t : m.entries())
        if (t.row > t.col)
            ++lower;
    EXPECT_GT(static_cast<double>(lower),
              0.8 * static_cast<double>(m.nnz()));
}

TEST(Generators, Poisson2DIsSymmetricDiagonallyDominant)
{
    CooMatrix m = generatePoisson2D(6);
    EXPECT_EQ(m.rows(), 36);
    // Symmetry.
    CooMatrix t = m.transposed();
    t.canonicalize();
    CooMatrix c = m;
    c.canonicalize();
    EXPECT_EQ(t.entries(), c.entries());
    // Diagonal dominance (4 >= sum of |-1| neighbours).
    std::vector<Value> diag(36, 0.0), off(36, 0.0);
    for (const Triplet &e : m.entries()) {
        if (e.row == e.col)
            diag[static_cast<std::size_t>(e.row)] = e.val;
        else
            off[static_cast<std::size_t>(e.row)] += std::abs(e.val);
    }
    for (Idx i = 0; i < 36; ++i)
        EXPECT_GE(diag[static_cast<std::size_t>(i)],
                  off[static_cast<std::size_t>(i)]);
}

TEST(Generators, RowStochasticRowsSumToOne)
{
    CooMatrix m = testing::smallGraph(64, 600);
    CooMatrix s = rowStochastic(m);
    std::vector<Value> sums(64, 0.0);
    std::vector<Idx> counts(64, 0);
    for (const Triplet &t : s.entries()) {
        sums[static_cast<std::size_t>(t.row)] += t.val;
        ++counts[static_cast<std::size_t>(t.row)];
    }
    for (Idx r = 0; r < 64; ++r) {
        if (counts[static_cast<std::size_t>(r)] > 0) {
            EXPECT_NEAR(sums[static_cast<std::size_t>(r)], 1.0, 1e-12);
        }
    }
}

TEST(Generators, InvalidParametersAreFatal)
{
    Rng rng(1);
    EXPECT_DEATH(generateUniform(0, 10, rng), "positive");
    EXPECT_DEATH(generateBanded(10, 0, 1.0, rng), "invalid");
    EXPECT_DEATH(generateClustered(10, 10, 0, 0.5, rng), "invalid");
    EXPECT_DEATH(generateRmat(10, 10, rng, 0.5, 0.3, 0.3),
                 "exceed");
    EXPECT_DEATH(generatePoisson2D(0), "positive");
}

TEST(Datasets, RegistryMatchesTableI)
{
    const auto &specs = datasetSpecs();
    ASSERT_EQ(specs.size(), 9u);
    EXPECT_EQ(specs.front().name, "ca");
    EXPECT_EQ(specs.back().name, "eu");
    // Paper shapes preserved in the registry.
    EXPECT_EQ(datasetSpec("wi").paper_nnz, 45030389);
    EXPECT_EQ(datasetSpec("eu").paper_rows, 50912018);
    EXPECT_DEATH(datasetSpec("zz"), "unknown dataset");
}

TEST(Datasets, GenerationIsDeterministicAndSized)
{
    const DatasetSpec &spec = datasetSpec("gy");
    CooMatrix a = generateDataset(spec, 1);
    CooMatrix b = generateDataset(spec, 1);
    CooMatrix c = generateDataset(spec, 2);
    EXPECT_EQ(a.entries(), b.entries());
    EXPECT_NE(a.entries(), c.entries());
    EXPECT_EQ(a.rows(), spec.rows);
    // Dedup shrinks nnz slightly; stay within 15%.
    EXPECT_GT(static_cast<double>(a.nnz()),
              0.85 * static_cast<double>(spec.nnz));
}

TEST(Datasets, StandInsKeepNnzPerRowRatio)
{
    for (const DatasetSpec &spec : datasetSpecs()) {
        double paper_ratio = static_cast<double>(spec.paper_nnz) /
                             static_cast<double>(spec.paper_rows);
        double ours = static_cast<double>(spec.nnz) /
                      static_cast<double>(spec.rows);
        EXPECT_NEAR(ours / paper_ratio, 1.0, 0.35)
            << "dataset " << spec.name;
    }
}

} // namespace
} // namespace sparsepipe
