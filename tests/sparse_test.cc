/**
 * @file
 * Unit and property tests for the sparse-format substrate: COO
 * canonicalisation, CSR/CSC construction and round-trips, dense
 * helpers, and MatrixMarket I/O.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "sparse/csr.hh"
#include "sparse/dense.hh"
#include "sparse/io.hh"
#include "test_helpers.hh"

namespace sparsepipe {
namespace {

TEST(CooMatrix, AddAndCanonicalize)
{
    CooMatrix m(4, 4);
    m.add(2, 1, 1.0);
    m.add(0, 3, 2.0);
    m.add(2, 1, 3.0); // duplicate -> merged
    m.add(1, 1, -1.0);
    m.add(1, 1, 1.0); // cancels to zero -> dropped
    m.canonicalize();

    ASSERT_EQ(m.nnz(), 2);
    EXPECT_TRUE(m.isCanonical());
    EXPECT_EQ(m.entries()[0], (Triplet{0, 3, 2.0}));
    EXPECT_EQ(m.entries()[1], (Triplet{2, 1, 4.0}));
}

TEST(CooMatrix, OutOfBoundsIsFatal)
{
    CooMatrix m(2, 2);
    EXPECT_DEATH(m.add(2, 0, 1.0), "outside");
    EXPECT_DEATH(m.add(0, -1, 1.0), "outside");
}

TEST(CooMatrix, NegativeShapeIsFatal)
{
    EXPECT_DEATH(CooMatrix(-1, 3), "negative shape");
}

TEST(CooMatrix, Transposed)
{
    CooMatrix m(2, 3);
    m.add(0, 2, 5.0);
    m.add(1, 0, 7.0);
    CooMatrix t = m.transposed();
    EXPECT_EQ(t.rows(), 3);
    EXPECT_EQ(t.cols(), 2);
    t.canonicalize();
    EXPECT_EQ(t.entries()[0], (Triplet{0, 1, 7.0}));
    EXPECT_EQ(t.entries()[1], (Triplet{2, 0, 5.0}));
}

TEST(CsrMatrix, FromCooBasics)
{
    CooMatrix coo(3, 3);
    coo.add(0, 1, 1.0);
    coo.add(2, 0, 2.0);
    coo.add(2, 2, 3.0);
    CsrMatrix csr = CsrMatrix::fromCoo(coo);

    EXPECT_TRUE(csr.validate());
    EXPECT_EQ(csr.nnz(), 3);
    EXPECT_EQ(csr.rowNnz(0), 1);
    EXPECT_EQ(csr.rowNnz(1), 0);
    EXPECT_EQ(csr.rowNnz(2), 2);
    EXPECT_EQ(csr.rowCols(2)[0], 0);
    EXPECT_EQ(csr.rowVals(2)[1], 3.0);
}

TEST(CsrMatrix, FromPartsAdoptsOnlyCanonicalArrays)
{
    const CsrMatrix a = CsrMatrix::fromCoo(testing::smallGraph(16, 60));
    EXPECT_EQ(CsrMatrix::fromParts(a.rows(), a.cols(), a.rowPtr(),
                                   a.colIdx(), a.vals()),
              a);
    // Descending columns in a row, a short pointer array, and a
    // column past the shape are all rejected.
    EXPECT_DEATH(CsrMatrix::fromParts(2, 2, {0, 2, 2}, {1, 0},
                                      {1.0, 2.0}),
                 "canonical");
    EXPECT_DEATH(CsrMatrix::fromParts(2, 2, {0, 1}, {0}, {1.0}),
                 "canonical");
    EXPECT_DEATH(CsrMatrix::fromParts(2, 2, {0, 1, 1}, {2}, {1.0}),
                 "canonical");
}

TEST(CscMatrix, FromCooBasics)
{
    CooMatrix coo(3, 3);
    coo.add(0, 1, 1.0);
    coo.add(2, 0, 2.0);
    coo.add(2, 2, 3.0);
    CscMatrix csc = CscMatrix::fromCoo(coo);

    EXPECT_TRUE(csc.validate());
    EXPECT_EQ(csc.colNnz(0), 1);
    EXPECT_EQ(csc.colNnz(1), 1);
    EXPECT_EQ(csc.colNnz(2), 1);
    EXPECT_EQ(csc.colRows(1)[0], 0);
    EXPECT_EQ(csc.colVals(0)[0], 2.0);
}

TEST(CompressedMatrix, CopiesShareArraysAndCompareByContent)
{
    const CsrMatrix csr = CsrMatrix::fromCoo(testing::smallGraph(16, 60));
    const CscMatrix csc = CscMatrix::fromCsr(csr);
    ASSERT_GT(csr.nnz(), 0);

    // A copy, a copy-assignment and a move all share the arrays.
    const CsrMatrix csr_copy = csr;
    CscMatrix csc_copy;
    csc_copy = csc;
    EXPECT_EQ(csr_copy.vals().data(), csr.vals().data());
    EXPECT_EQ(csr_copy.colIdx().data(), csr.colIdx().data());
    EXPECT_EQ(csr_copy.rowPtr().data(), csr.rowPtr().data());
    EXPECT_EQ(csc_copy.vals().data(), csc.vals().data());
    EXPECT_EQ(csc_copy.rowIdx().data(), csc.rowIdx().data());
    EXPECT_EQ(csc_copy.colPtr().data(), csc.colPtr().data());

    // A moved-from matrix stays a usable copy of its contents.
    CsrMatrix csr_source = csr;
    CscMatrix csc_source = csc;
    const CsrMatrix csr_moved = std::move(csr_source);
    CscMatrix csc_moved;
    csc_moved = std::move(csc_source);
    EXPECT_EQ(csr_moved.vals().data(), csr.vals().data());
    EXPECT_EQ(csc_moved.vals().data(), csc.vals().data());
    EXPECT_TRUE(csr_source.validate());
    EXPECT_TRUE(csc_source.validate());
    EXPECT_EQ(csr_source, csr);
    EXPECT_EQ(csc_source, csc);
    EXPECT_EQ(csr_source.rowCols(3).size(),
              static_cast<std::size_t>(csr.rowNnz(3)));
    EXPECT_EQ(CscMatrix::fromCsr(csr_source), csc);

    // Equality compares contents: a rebuilt matrix has its own
    // arrays and equals the original; another value does not.
    const CsrMatrix rebuilt = CsrMatrix::fromCoo(csr.toCoo());
    EXPECT_NE(rebuilt.vals().data(), csr.vals().data());
    EXPECT_EQ(rebuilt, csr);
    EXPECT_EQ(CscMatrix::fromCoo(csc.toCoo()), csc);
    EXPECT_FALSE(testing::perturbValues(csr) == csr);

    // Default-constructed matrices are valid and empty.
    const CsrMatrix empty_csr;
    const CscMatrix empty_csc;
    EXPECT_TRUE(empty_csr.validate());
    EXPECT_TRUE(empty_csc.validate());
    EXPECT_EQ(empty_csr.rows(), 0);
    EXPECT_EQ(empty_csc.nnz(), 0);
    EXPECT_EQ(empty_csr, CsrMatrix::fromCoo(CooMatrix(0, 0)));
}

TEST(CompressedMatrix, WithValuesSharesThePattern)
{
    // B is A's coordinates with other values: built by withValues it
    // reads A's index arrays in both forms and keeps its own values.
    const CsrMatrix a = CsrMatrix::fromCoo(testing::smallGraph(32, 200));
    const CscMatrix a_csc = CscMatrix::fromCsr(a);
    const CsrMatrix perturbed = testing::perturbValues(a);
    const CsrMatrix b = a.withValues(perturbed.vals());
    EXPECT_EQ(b, perturbed);
    EXPECT_FALSE(b == a);
    EXPECT_EQ(b.pattern(), a.pattern());
    EXPECT_NE(b.vals().data(), a.vals().data());
    EXPECT_TRUE(b.validate());

    // The CSC form of B on A's column pattern.
    const CscMatrix b_csc =
        a_csc.withValues(CscMatrix::fromCsr(perturbed).vals());
    EXPECT_EQ(b_csc, CscMatrix::fromCsr(b));
    EXPECT_EQ(b_csc.pattern(), a_csc.pattern());
    EXPECT_NE(b_csc.vals().data(), a_csc.vals().data());
    EXPECT_EQ(CsrMatrix::fromCsc(b_csc), b);
}

TEST(CompressedMatrix, SymmetricCscReadsTheCsrArrays)
{
    // A + A^T stores the same arrays in either form.
    CooMatrix coo = testing::smallGraph(32, 200);
    const CooMatrix transposed = coo.transposed();
    coo.entries().insert(coo.entries().end(),
                         transposed.entries().begin(),
                         transposed.entries().end());
    const CsrMatrix sym = CsrMatrix::fromCoo(std::move(coo));
    const CscMatrix csc = CscMatrix::fromSymmetric(sym);
    EXPECT_EQ(csc, CscMatrix::fromCsr(sym));
    EXPECT_TRUE(csc.validate());
    EXPECT_EQ(csc.pattern(), sym.pattern());
    EXPECT_EQ(csc.vals().data(), sym.vals().data());
}

TEST(CompressedMatrixDeathTest, ValuesOfAnotherCountAreFatal)
{
    const CsrMatrix a = CsrMatrix::fromCoo(testing::smallGraph(32, 200));
    std::vector<Value> short_vals(a.vals().begin(), a.vals().end() - 1);
    EXPECT_DEATH(a.withValues(short_vals), "values for");
    EXPECT_DEATH(CscMatrix::fromCsr(a).withValues({}), "values for");
    EXPECT_DEATH(CscMatrix::fromSymmetric(
                     CsrMatrix::fromCoo(CooMatrix(2, 3))),
                 "not square");
}

class FormatRoundTrip : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(FormatRoundTrip, CooCsrCscAgree)
{
    Rng rng(GetParam());
    CooMatrix coo = generateUniform(48, 400, rng);

    CsrMatrix csr = CsrMatrix::fromCoo(coo);
    CscMatrix csc = CscMatrix::fromCoo(coo);
    EXPECT_TRUE(csr.validate());
    EXPECT_TRUE(csc.validate());
    EXPECT_EQ(csr.nnz(), csc.nnz());

    // CSR -> CSC -> CSR round trip is the identity.
    CsrMatrix back = CsrMatrix::fromCsc(CscMatrix::fromCsr(csr));
    EXPECT_EQ(back, csr);

    // Both formats reproduce the canonical COO.
    CooMatrix canon = coo;
    canon.canonicalize();
    EXPECT_EQ(csr.toCoo().entries(), canon.entries());
    EXPECT_EQ(csc.toCoo().entries(), canon.entries());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FormatRoundTrip,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(DenseMatrix, RowAccess)
{
    DenseMatrix m(2, 3, 1.0);
    m.at(1, 2) = 5.0;
    EXPECT_EQ(m.row(1)[2], 5.0);
    EXPECT_EQ(m.at(0, 0), 1.0);
}

TEST(DenseHelpers, Norms)
{
    DenseVector v = {3.0, -4.0};
    EXPECT_DOUBLE_EQ(norm1(v), 7.0);
    EXPECT_DOUBLE_EQ(norm2(v), 5.0);
    DenseVector w = {1.0, 2.0};
    EXPECT_DOUBLE_EQ(dot(v, w), -5.0);
    EXPECT_DOUBLE_EQ(maxAbsDiff(v, w), 6.0);
}

TEST(DenseHelpers, MismatchedLengthsAreFatal)
{
    DenseVector a = {1.0}, b = {1.0, 2.0};
    EXPECT_DEATH(dot(a, b), "length mismatch");
    EXPECT_DEATH(maxAbsDiff(a, b), "length mismatch");
}

TEST(MatrixMarket, RoundTrip)
{
    CooMatrix m(5, 4);
    m.add(0, 0, 1.5);
    m.add(4, 3, -2.0);
    m.add(2, 1, 0.25);
    m.canonicalize();

    std::stringstream buf;
    ASSERT_TRUE(writeMatrixMarket(m, buf).ok());
    StatusOr<CooMatrix> back = readMatrixMarket(buf, "test");
    ASSERT_TRUE(back.ok()) << back.status().toString();
    EXPECT_EQ(back->rows(), 5);
    EXPECT_EQ(back->cols(), 4);
    EXPECT_EQ(back->entries(), m.entries());
}

TEST(MatrixMarket, RoundTripPreservesAwkwardValues)
{
    // max_digits10 precision: values with no short decimal form must
    // survive write -> read bit-exactly.
    CooMatrix m(3, 3);
    m.add(0, 0, 1.0 / 3.0);
    m.add(1, 2, 1e-300);
    m.add(2, 1, -9.87654321098765432e17);
    m.canonicalize();

    std::stringstream buf;
    ASSERT_TRUE(writeMatrixMarket(m, buf).ok());
    StatusOr<CooMatrix> back = readMatrixMarket(buf, "prec");
    ASSERT_TRUE(back.ok()) << back.status().toString();
    ASSERT_EQ(back->nnz(), 3);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(back->entries()[i].val, m.entries()[i].val);
}

TEST(MatrixMarket, PatternRoundTrip)
{
    std::stringstream buf;
    buf << "%%MatrixMarket matrix coordinate pattern general\n"
        << "3 3 2\n"
        << "1 2\n"
        << "3 1\n";
    StatusOr<CooMatrix> m = readMatrixMarket(buf, "pat");
    ASSERT_TRUE(m.ok()) << m.status().toString();
    ASSERT_EQ(m->nnz(), 2);

    // Writing the pattern-born matrix and re-reading it reproduces
    // the same entries (unit values survive the real writer).
    std::stringstream buf2;
    ASSERT_TRUE(writeMatrixMarket(*m, buf2).ok());
    StatusOr<CooMatrix> back = readMatrixMarket(buf2, "pat2");
    ASSERT_TRUE(back.ok()) << back.status().toString();
    EXPECT_EQ(back->entries(), m->entries());
}

TEST(MatrixMarket, SymmetricExpansion)
{
    std::stringstream buf;
    buf << "%%MatrixMarket matrix coordinate real symmetric\n"
        << "3 3 2\n"
        << "2 1 4.0\n"
        << "3 3 1.0\n";
    StatusOr<CooMatrix> m = readMatrixMarket(buf, "sym");
    ASSERT_TRUE(m.ok()) << m.status().toString();
    EXPECT_EQ(m->nnz(), 3); // off-diagonal mirrored, diagonal not

    // Round trip of the expanded matrix: diagonal stays single.
    std::stringstream buf2;
    ASSERT_TRUE(writeMatrixMarket(*m, buf2).ok());
    StatusOr<CooMatrix> back = readMatrixMarket(buf2, "sym2");
    ASSERT_TRUE(back.ok()) << back.status().toString();
    EXPECT_EQ(back->nnz(), 3);
    EXPECT_EQ(back->entries(), m->entries());
}

TEST(MatrixMarket, PatternEntriesGetUnitValues)
{
    std::stringstream buf;
    buf << "%%MatrixMarket matrix coordinate pattern general\n"
        << "2 2 1\n"
        << "1 2\n";
    StatusOr<CooMatrix> m = readMatrixMarket(buf, "pat");
    ASSERT_TRUE(m.ok()) << m.status().toString();
    ASSERT_EQ(m->nnz(), 1);
    EXPECT_EQ(m->entries()[0].val, 1.0);
}

TEST(MatrixMarket, BadHeaderIsInvalidInput)
{
    std::stringstream buf;
    buf << "%%NotMatrixMarket nonsense\n";
    StatusOr<CooMatrix> m = readMatrixMarket(buf, "bad");
    ASSERT_FALSE(m.ok());
    EXPECT_EQ(m.status().code(), StatusCode::InvalidInput);
}

TEST(MatrixMarket, MissingFileIsIoError)
{
    StatusOr<CooMatrix> m = readMatrixMarket("/nonexistent/foo.mtx");
    ASSERT_FALSE(m.ok());
    EXPECT_EQ(m.status().code(), StatusCode::IoError);
}

TEST(MatrixMarket, TruncatedFileIsInvalidInput)
{
    std::stringstream buf;
    buf << "%%MatrixMarket matrix coordinate real general\n"
        << "3 3 2\n"
        << "1 1 1.0\n"; // one entry missing
    StatusOr<CooMatrix> m = readMatrixMarket(buf, "trunc");
    ASSERT_FALSE(m.ok());
    EXPECT_EQ(m.status().code(), StatusCode::InvalidInput);
}

TEST(MatrixMarket, OutOfRangeIndexIsInvalidInput)
{
    std::stringstream buf;
    buf << "%%MatrixMarket matrix coordinate real general\n"
        << "3 3 1\n"
        << "4 1 1.0\n"; // row index past the declared dimension
    StatusOr<CooMatrix> m = readMatrixMarket(buf, "range");
    ASSERT_FALSE(m.ok());
    EXPECT_EQ(m.status().code(), StatusCode::InvalidInput);
}

TEST(MatrixMarket, ZeroIndexIsInvalidInput)
{
    // Indices are 1-based; 0 must be rejected, not wrapped.
    std::stringstream buf;
    buf << "%%MatrixMarket matrix coordinate real general\n"
        << "3 3 1\n"
        << "0 1 1.0\n";
    StatusOr<CooMatrix> m = readMatrixMarket(buf, "zero");
    ASSERT_FALSE(m.ok());
    EXPECT_EQ(m.status().code(), StatusCode::InvalidInput);
}

TEST(MatrixMarket, NegativeSizeLineIsInvalidInput)
{
    std::stringstream buf;
    buf << "%%MatrixMarket matrix coordinate real general\n"
        << "-3 3 1\n"
        << "1 1 1.0\n";
    StatusOr<CooMatrix> m = readMatrixMarket(buf, "negsize");
    ASSERT_FALSE(m.ok());
    EXPECT_EQ(m.status().code(), StatusCode::InvalidInput);
}

TEST(MatrixMarket, OverflowingSizeLineIsInvalidInput)
{
    std::stringstream buf;
    buf << "%%MatrixMarket matrix coordinate real general\n"
        << "99999999999999999999999 3 1\n"
        << "1 1 1.0\n";
    StatusOr<CooMatrix> m = readMatrixMarket(buf, "overflow");
    ASSERT_FALSE(m.ok());
    EXPECT_EQ(m.status().code(), StatusCode::InvalidInput);
}

} // namespace
} // namespace sparsepipe
