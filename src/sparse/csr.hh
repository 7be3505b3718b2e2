/**
 * @file
 * Compressed Sparse Row (CSR) matrix.  Rows are stored contiguously;
 * this is the access order the IS (input-stationary) stage of the OEI
 * dataflow demands (scatter a matrix row against one input element).
 */

#ifndef SPARSEPIPE_SPARSE_CSR_HH
#define SPARSEPIPE_SPARSE_CSR_HH

#include <span>
#include <vector>

#include "sparse/coo.hh"
#include "sparse/types.hh"

namespace sparsepipe {

class CscMatrix;

/**
 * Compressed Sparse Row matrix with canonical (ascending column)
 * ordering inside each row.
 */
class CsrMatrix
{
  public:
    CsrMatrix() = default;

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

    Idx rows() const { return rows_; }
    Idx cols() const { return cols_; }
    Idx nnz() const { return static_cast<Idx>(vals_.size()); }

    /** @return number of non-zeros in row r. */
    Idx rowNnz(Idx r) const { return rowPtr_[r + 1] - rowPtr_[r]; }

    /** @return column indices of row r. */
    std::span<const Idx> rowCols(Idx r) const
    {
        return {colIdx_.data() + rowPtr_[r],
                static_cast<std::size_t>(rowNnz(r))};
    }

    /** @return values of row r. */
    std::span<const Value> rowVals(Idx r) const
    {
        return {vals_.data() + rowPtr_[r],
                static_cast<std::size_t>(rowNnz(r))};
    }

    const std::vector<Idx> &rowPtr() const { return rowPtr_; }
    const std::vector<Idx> &colIdx() const { return colIdx_; }
    const std::vector<Value> &vals() const { return vals_; }

    /**
     * Internal-consistency check: monotone row pointers, in-bounds and
     * ascending column indices.  @return true when valid.
     */
    bool validate() const;

    bool operator==(const CsrMatrix &other) const = default;

  private:
    friend class CscMatrix;

    Idx rows_ = 0;
    Idx cols_ = 0;
    std::vector<Idx> rowPtr_ = {0};
    std::vector<Idx> colIdx_;
    std::vector<Value> vals_;
};

/**
 * Compressed Sparse Column matrix, the mirror of CsrMatrix.  Columns
 * are contiguous; this is the access order of the OS
 * (output-stationary) stage (one column per output element).
 */
class CscMatrix
{
  public:
    CscMatrix() = default;

    /** Build from a COO matrix (canonicalized internally). */
    static CscMatrix fromCoo(CooMatrix coo);

    /** Build from a row-ordered CSR matrix. */
    static CscMatrix fromCsr(const CsrMatrix &csr);

    /** @return the matrix as COO (row-major canonical order). */
    CooMatrix toCoo() const;

    Idx rows() const { return rows_; }
    Idx cols() const { return cols_; }
    Idx nnz() const { return static_cast<Idx>(vals_.size()); }

    /** @return number of non-zeros in column c. */
    Idx colNnz(Idx c) const { return colPtr_[c + 1] - colPtr_[c]; }

    /** @return row indices of column c. */
    std::span<const Idx> colRows(Idx c) const
    {
        return {rowIdx_.data() + colPtr_[c],
                static_cast<std::size_t>(colNnz(c))};
    }

    /** @return values of column c. */
    std::span<const Value> colVals(Idx c) const
    {
        return {vals_.data() + colPtr_[c],
                static_cast<std::size_t>(colNnz(c))};
    }

    const std::vector<Idx> &colPtr() const { return colPtr_; }
    const std::vector<Idx> &rowIdx() const { return rowIdx_; }
    const std::vector<Value> &vals() const { return vals_; }

    /** Structural validity check (see CsrMatrix::validate). */
    bool validate() const;

    bool operator==(const CscMatrix &other) const = default;

  private:
    friend class CsrMatrix;

    Idx rows_ = 0;
    Idx cols_ = 0;
    std::vector<Idx> colPtr_ = {0};
    std::vector<Idx> rowIdx_;
    std::vector<Value> vals_;
};

} // namespace sparsepipe

#endif // SPARSEPIPE_SPARSE_CSR_HH
