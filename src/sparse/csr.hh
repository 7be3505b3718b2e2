/**
 * @file
 * Compressed Sparse Row (CSR) matrix.  Rows are stored contiguously;
 * this is the access order the IS (input-stationary) stage of the OEI
 * dataflow demands (scatter a matrix row against one input element).
 *
 * Both compressed forms are immutable values made of two shared
 * parts: a SparsityPattern (shape, pointers, indices) and the value
 * array.  A copy costs two reference-count bumps, so every holder of
 * one operand (a cached prepared case, each run's workspace) reads
 * the same arrays, and none of them can outlive the others' storage.
 * Matrices that store the same coordinates may also share one
 * pattern while each keeps its own values (withValues): the value
 * kinds of one reordered matrix do so in api::Session.  A move copies
 * too, so a moved-from matrix keeps its contents.
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

/**
 * The coordinates of one compressed form of a matrix, apart from its
 * values.  Never modified once built; matrices that store the same
 * coordinates in the same form may share one.
 */
struct SparsityPattern
{
    Idx rows = 0;
    Idx cols = 0;
    /** Offsets into idx, one per major coordinate + 1. */
    std::vector<Idx> ptr = {0};
    /** Minor coordinates, ascending inside each major run. */
    std::vector<Idx> idx;

    bool operator==(const SparsityPattern &other) const = default;
};

/** A shared, immutable pattern. */
using PatternPtr = std::shared_ptr<const SparsityPattern>;

/**
 * Compressed Sparse Row matrix with canonical (ascending column)
 * ordering inside each row.
 */
class CsrMatrix
{
  public:
    /** The empty 0 x 0 matrix. */
    CsrMatrix();
    // Copies share the pattern and the values.  No move members are
    // declared, so a move is a copy as well.
    CsrMatrix(const CsrMatrix &) = default;
    CsrMatrix &operator=(const CsrMatrix &) = default;

    /**
     * Build from a COO matrix, read as canonicalize() would leave it
     * (a copy is canonicalized only when `coo` is not already).
     */
    static CsrMatrix fromCoo(const CooMatrix &coo);

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

    Idx rows() const { return p_->rows; }
    Idx cols() const { return p_->cols; }
    Idx nnz() const { return static_cast<Idx>(v_->size()); }

    /** @return number of non-zeros in row r. */
    Idx rowNnz(Idx r) const { return p_->ptr[r + 1] - p_->ptr[r]; }

    /** @return column indices of row r. */
    std::span<const Idx> rowCols(Idx r) const
    {
        return {p_->idx.data() + p_->ptr[r],
                static_cast<std::size_t>(rowNnz(r))};
    }

    /** @return values of row r. */
    std::span<const Value> rowVals(Idx r) const
    {
        return {v_->data() + p_->ptr[r],
                static_cast<std::size_t>(rowNnz(r))};
    }

    const std::vector<Idx> &rowPtr() const { return p_->ptr; }
    const std::vector<Idx> &colIdx() const { return p_->idx; }
    const std::vector<Value> &vals() const { return *v_; }

    /** The row-form pattern this matrix reads. */
    const PatternPtr &pattern() const { return p_; }

    /**
     * `vals`, one per stored entry in this matrix's order, on this
     * matrix's pattern: the result reads the same index arrays.  A
     * count other than nnz() is a programming error (fatal).
     */
    CsrMatrix withValues(std::vector<Value> vals) const;

    /**
     * Internal-consistency check: monotone row pointers, in-bounds and
     * ascending column indices.  @return true when valid.
     */
    bool validate() const;

    /** Compares contents, not storage. */
    bool operator==(const CsrMatrix &other) const;

  private:
    // fromSymmetric reads a CSR matrix's arrays as its CSC form.
    friend class CscMatrix;

    CsrMatrix(PatternPtr pattern,
              std::shared_ptr<const std::vector<Value>> vals);
    CsrMatrix(SparsityPattern pattern, std::vector<Value> vals);

    /** Never null; shared by every copy. */
    PatternPtr p_;
    std::shared_ptr<const std::vector<Value>> v_;
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
    // Copies (and moves) share the pattern and values, as for
    // CsrMatrix.
    CscMatrix(const CscMatrix &) = default;
    CscMatrix &operator=(const CscMatrix &) = default;

    /** Build from a COO matrix, as CsrMatrix::fromCoo. */
    static CscMatrix fromCoo(const CooMatrix &coo);

    /** Build from a row-ordered CSR matrix. */
    static CscMatrix fromCsr(const CsrMatrix &csr);

    /**
     * The CSC form of a matrix equal to its own transpose, read from
     * `csr`'s pattern and value arrays: column c of such a matrix is
     * its row c.  A non-square `csr` is fatal; symmetry is the
     * caller's guarantee and is not checked, since checking it would
     * cost the transpose this saves.
     */
    static CscMatrix fromSymmetric(const CsrMatrix &csr);

    /** @return the matrix as COO (row-major canonical order). */
    CooMatrix toCoo() const;

    Idx rows() const { return p_->rows; }
    Idx cols() const { return p_->cols; }
    Idx nnz() const { return static_cast<Idx>(v_->size()); }

    /** @return number of non-zeros in column c. */
    Idx colNnz(Idx c) const { return p_->ptr[c + 1] - p_->ptr[c]; }

    /** @return row indices of column c. */
    std::span<const Idx> colRows(Idx c) const
    {
        return {p_->idx.data() + p_->ptr[c],
                static_cast<std::size_t>(colNnz(c))};
    }

    /** @return values of column c. */
    std::span<const Value> colVals(Idx c) const
    {
        return {v_->data() + p_->ptr[c],
                static_cast<std::size_t>(colNnz(c))};
    }

    const std::vector<Idx> &colPtr() const { return p_->ptr; }
    const std::vector<Idx> &rowIdx() const { return p_->idx; }
    const std::vector<Value> &vals() const { return *v_; }

    /** The column-form pattern this matrix reads. */
    const PatternPtr &pattern() const { return p_; }

    /** See CsrMatrix::withValues. */
    CscMatrix withValues(std::vector<Value> vals) const;

    /** Structural validity check (see CsrMatrix::validate). */
    bool validate() const;

    /** Compares contents, not storage. */
    bool operator==(const CscMatrix &other) const;

  private:
    CscMatrix(PatternPtr pattern,
              std::shared_ptr<const std::vector<Value>> vals);
    CscMatrix(SparsityPattern pattern, std::vector<Value> vals);

    /** Never null; shared by every copy. */
    PatternPtr p_;
    std::shared_ptr<const std::vector<Value>> v_;
};

} // namespace sparsepipe

#endif // SPARSEPIPE_SPARSE_CSR_HH
