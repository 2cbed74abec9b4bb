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

TEST(CsrMatrix, CopiesShareStorageAndCompareByContent)
{
    Rng rng(55);
    const CooMatrix coo = generateUniform(40, 300, rng);
    const CsrMatrix a = CsrMatrix::fromCoo(coo);

    // A copy is a refcount bump: same block, same arrays.
    const CsrMatrix copy = a;
    EXPECT_EQ(copy.storage(), a.storage());
    EXPECT_EQ(copy.vals().data(), a.vals().data());
    EXPECT_EQ(copy, a);

    // Independently built from the same input: separate blocks,
    // equal contents.
    const CsrMatrix b = CsrMatrix::fromCoo(coo);
    EXPECT_NE(b.storage(), a.storage());
    EXPECT_EQ(b, a);

    // One changed value makes them unequal.
    CooMatrix changed = coo;
    changed.canonicalize();
    changed.entries().front().val += 1.0;
    EXPECT_NE(CsrMatrix::fromCoo(changed), a);

    // The same holds for the CSC twin.
    const CscMatrix csc = CscMatrix::fromCsr(a);
    const CscMatrix csc_copy = csc;
    EXPECT_EQ(csc_copy.storage(), csc.storage());
    EXPECT_EQ(CscMatrix::fromCoo(coo), csc);
    EXPECT_NE(CscMatrix::fromCoo(changed), csc);

    // Default-constructed matrices are the empty 0 x 0 matrix.
    EXPECT_EQ(CsrMatrix(), CsrMatrix::fromCoo(CooMatrix(0, 0)));
    EXPECT_TRUE(CscMatrix().validate());
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
