/**
 * @file
 * Coordinate-list (COO) sparse matrix.  COO is the interchange format
 * of the code base: generators and file I/O produce COO, and the
 * compressed formats (CSR/CSC) are built from it.
 */

#ifndef SPARSEPIPE_SPARSE_COO_HH
#define SPARSEPIPE_SPARSE_COO_HH

#include <vector>

#include "sparse/types.hh"

namespace sparsepipe {

/** A single non-zero entry. */
struct Triplet
{
    Idx row = 0;
    Idx col = 0;
    Value val = 0.0;

    bool operator==(const Triplet &other) const = default;
};

/**
 * Coordinate-list sparse matrix.  Entries may be in any order and may
 * contain duplicates until canonicalize() is called.
 */
class CooMatrix
{
  public:
    CooMatrix() = default;

    /**
     * Construct an empty matrix of the given shape.
     * @param rows number of rows (>= 0, user error otherwise)
     * @param cols number of columns
     */
    CooMatrix(Idx rows, Idx cols);

    /** Append a non-zero.  Coordinates are bounds-checked. */
    void add(Idx row, Idx col, Value val)
    {
        if (row < 0 || row >= rows_ || col < 0 || col >= cols_)
            addOutOfRange(row, col);
        entries_.push_back({row, col, val});
    }

    /** Reserve capacity for `n` entries (generator fast path). */
    void reserve(std::size_t n) { entries_.reserve(n); }

    /**
     * Sort row-major, merge duplicate coordinates by addition, and
     * drop explicit zeros.  After this the matrix is canonical.
     */
    void canonicalize();

    /** Sort entries row-major (row, then column). */
    void sortRowMajor();

    /** Sort entries column-major (column, then row). */
    void sortColMajor();

    /** @return transposed copy (rows and cols swapped). */
    CooMatrix transposed() const;

    /**
     * @return the top-left `rows` x `cols` corner: entries whose
     * coordinates fall inside the new shape, order preserved.
     * Case shrinkers use this to halve a failing matrix while
     * keeping the surviving entries identical.
     */
    CooMatrix topLeft(Idx rows, Idx cols) const;

    Idx rows() const { return rows_; }
    Idx cols() const { return cols_; }
    Idx nnz() const { return static_cast<Idx>(entries_.size()); }

    const std::vector<Triplet> &entries() const { return entries_; }
    std::vector<Triplet> &entries() { return entries_; }

    /**
     * @return true if canonicalize() would change nothing: entries
     * sorted row-major with no duplicates and no explicit zeros.
     */
    bool isCanonical() const;

  private:
    [[noreturn]] void addOutOfRange(Idx row, Idx col) const;

    Idx rows_ = 0;
    Idx cols_ = 0;
    std::vector<Triplet> entries_;
};

} // namespace sparsepipe

#endif // SPARSEPIPE_SPARSE_COO_HH
