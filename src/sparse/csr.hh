/**
 * @file
 * Compressed Sparse Row (CSR) matrix.  Rows are stored contiguously;
 * this is the access order the IS (input-stationary) stage of the OEI
 * dataflow demands (scatter a matrix row against one input element).
 *
 * Both compressed forms are immutable values whose arrays are shared
 * on copy: a copy costs a reference-count bump, so every holder of
 * one operand (a cached prepared case, each run's workspace) reads
 * the same arrays, and none of them can outlive the others' storage.
 * A move copies too, so a moved-from matrix keeps its contents.
 */

#ifndef SPARSEPIPE_SPARSE_CSR_HH
#define SPARSEPIPE_SPARSE_CSR_HH

#include <memory>
#include <span>
#include <vector>

#include "sparse/coo.hh"
#include "sparse/types.hh"

namespace sparsepipe {

class CscMatrix;

namespace detail {

/** The arrays of one compressed matrix, never modified once built. */
struct CompressedArrays
{
    Idx rows = 0;
    Idx cols = 0;
    /** Offsets into idx / vals, one per major coordinate + 1. */
    std::vector<Idx> ptr = {0};
    /** Minor coordinates, ascending inside each major run. */
    std::vector<Idx> idx;
    std::vector<Value> vals;

    bool operator==(const CompressedArrays &other) const = default;
};

} // namespace detail

/**
 * Compressed Sparse Row matrix with canonical (ascending column)
 * ordering inside each row.
 */
class CsrMatrix
{
  public:
    /** The empty 0 x 0 matrix. */
    CsrMatrix();
    // Copies share the arrays.  No move members are declared, so a
    // move is a copy as well.
    CsrMatrix(const CsrMatrix &) = default;
    CsrMatrix &operator=(const CsrMatrix &) = default;

    /** Build from a COO matrix (canonicalized internally). */
    static CsrMatrix fromCoo(CooMatrix coo);

    /** Build from a column-ordered CSC matrix. */
    static CsrMatrix fromCsc(const CscMatrix &csc);

    /**
     * Adopt already-compressed arrays: `row_ptr` of rows + 1
     * offsets, and per row ascending `col_idx` with their `vals`.
     * Arrays that fail validate() are a programming error (fatal).
     */
    static CsrMatrix fromParts(Idx rows, Idx cols,
                               std::vector<Idx> row_ptr,
                               std::vector<Idx> col_idx,
                               std::vector<Value> vals);

    /** @return the matrix as COO (row-major canonical order). */
    CooMatrix toCoo() const;

    Idx rows() const { return a_->rows; }
    Idx cols() const { return a_->cols; }
    Idx nnz() const { return static_cast<Idx>(a_->vals.size()); }

    /** @return number of non-zeros in row r. */
    Idx rowNnz(Idx r) const { return a_->ptr[r + 1] - a_->ptr[r]; }

    /** @return column indices of row r. */
    std::span<const Idx> rowCols(Idx r) const
    {
        return {a_->idx.data() + a_->ptr[r],
                static_cast<std::size_t>(rowNnz(r))};
    }

    /** @return values of row r. */
    std::span<const Value> rowVals(Idx r) const
    {
        return {a_->vals.data() + a_->ptr[r],
                static_cast<std::size_t>(rowNnz(r))};
    }

    const std::vector<Idx> &rowPtr() const { return a_->ptr; }
    const std::vector<Idx> &colIdx() const { return a_->idx; }
    const std::vector<Value> &vals() const { return a_->vals; }

    /**
     * Internal-consistency check: monotone row pointers, in-bounds and
     * ascending column indices.  @return true when valid.
     */
    bool validate() const;

    /** Compares contents, not storage. */
    bool operator==(const CsrMatrix &other) const
    {
        return *a_ == *other.a_;
    }

  private:
    explicit CsrMatrix(detail::CompressedArrays arrays);

    /** Never null; shared by every copy. */
    std::shared_ptr<const detail::CompressedArrays> a_;
};

/**
 * Compressed Sparse Column matrix, the mirror of CsrMatrix.  Columns
 * are contiguous; this is the access order of the OS
 * (output-stationary) stage (one column per output element).
 */
class CscMatrix
{
  public:
    /** The empty 0 x 0 matrix. */
    CscMatrix();
    // Copies (and moves) share the arrays, as for CsrMatrix.
    CscMatrix(const CscMatrix &) = default;
    CscMatrix &operator=(const CscMatrix &) = default;

    /** Build from a COO matrix (canonicalized internally). */
    static CscMatrix fromCoo(CooMatrix coo);

    /** Build from a row-ordered CSR matrix. */
    static CscMatrix fromCsr(const CsrMatrix &csr);

    /** @return the matrix as COO (row-major canonical order). */
    CooMatrix toCoo() const;

    Idx rows() const { return a_->rows; }
    Idx cols() const { return a_->cols; }
    Idx nnz() const { return static_cast<Idx>(a_->vals.size()); }

    /** @return number of non-zeros in column c. */
    Idx colNnz(Idx c) const { return a_->ptr[c + 1] - a_->ptr[c]; }

    /** @return row indices of column c. */
    std::span<const Idx> colRows(Idx c) const
    {
        return {a_->idx.data() + a_->ptr[c],
                static_cast<std::size_t>(colNnz(c))};
    }

    /** @return values of column c. */
    std::span<const Value> colVals(Idx c) const
    {
        return {a_->vals.data() + a_->ptr[c],
                static_cast<std::size_t>(colNnz(c))};
    }

    const std::vector<Idx> &colPtr() const { return a_->ptr; }
    const std::vector<Idx> &rowIdx() const { return a_->idx; }
    const std::vector<Value> &vals() const { return a_->vals; }

    /** Structural validity check (see CsrMatrix::validate). */
    bool validate() const;

    /** Compares contents, not storage. */
    bool operator==(const CscMatrix &other) const
    {
        return *a_ == *other.a_;
    }

  private:
    explicit CscMatrix(detail::CompressedArrays arrays);

    /** Never null; shared by every copy. */
    std::shared_ptr<const detail::CompressedArrays> a_;
};

} // namespace sparsepipe

#endif // SPARSEPIPE_SPARSE_CSR_HH
