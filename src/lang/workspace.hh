/**
 * @file
 * Data bindings for executing a Program.
 *
 * A Workspace allocates storage for every declared tensor: dense
 * vectors / matrices and scalars are created immediately (scalars
 * take their declared initial value); the sparse matrix operand is
 * bound by the caller.  Bound sparse matrices are kept in BOTH CSR
 * and CSC form — the host-side equivalent of Sparsepipe's dual
 * sparse storage, since the OS stage traverses columns and the IS
 * stage traverses rows of the same operand.
 *
 * Borrow contract: the workspace references its Program, and a pair
 * bound with borrowMatrix(), without owning either.  Both must
 * outlive the workspace.  bindMatrix() takes ownership instead.
 */

#ifndef SPARSEPIPE_LANG_WORKSPACE_HH
#define SPARSEPIPE_LANG_WORKSPACE_HH

#include <vector>

#include "graph/ir.hh"
#include "sparse/csr.hh"
#include "sparse/dense.hh"

namespace sparsepipe {

/** Runtime storage for one Program execution. */
class Workspace
{
  public:
    /** Allocate storage for every tensor in the program. */
    explicit Workspace(const Program &program);

    /**
     * Bind the sparse operand by value: the workspace owns it and
     * builds the CSC twin internally.
     */
    void bindMatrix(TensorId id, CsrMatrix csr);

    /**
     * Bind the sparse operand by reference to a caller-owned pair:
     * no copy and no transpose.  `csc` must equal
     * CscMatrix::fromCsr(csr), and the pair must outlive the
     * workspace (see the file comment).  Callers that cache the pair
     * (api::Session) bind it this way.  Temporaries would dangle, so
     * the rvalue overloads are deleted.
     */
    void borrowMatrix(TensorId id, const CsrMatrix &csr,
                      const CscMatrix &csc);
    void borrowMatrix(TensorId, const CsrMatrix &&,
                      const CscMatrix &) = delete;
    void borrowMatrix(TensorId, const CsrMatrix &,
                      const CscMatrix &&) = delete;
    void borrowMatrix(TensorId, const CsrMatrix &&,
                      const CscMatrix &&) = delete;

    /** @return mutable dense vector storage for a Vector tensor. */
    DenseVector &vec(TensorId id);
    const DenseVector &vec(TensorId id) const;

    /** @return mutable dense matrix storage. */
    DenseMatrix &den(TensorId id);
    const DenseMatrix &den(TensorId id) const;

    /** @return mutable scalar storage. */
    Value &scalar(TensorId id);
    Value scalar(TensorId id) const;

    /** @return the bound matrix in row-compressed form. */
    const CsrMatrix &csr(TensorId id) const;

    /** @return the bound matrix in column-compressed form. */
    const CscMatrix &csc(TensorId id) const;

    /** @return true once the tensor was bound (either way). */
    bool matrixBound(TensorId id) const;

    const Program &program() const { return *program_; }

  private:
    const TensorInfo &info(TensorId id) const;
    std::size_t at(TensorId id) const;
    /** Shape checks shared by both binds; @return the slot. */
    std::size_t checkBind(TensorId id, const CsrMatrix &csr,
                          const CscMatrix &csc) const;

    const Program *program_;
    std::vector<DenseVector> vectors_;
    std::vector<DenseMatrix> denses_;
    std::vector<Value> scalars_;
    /** Pairs bound by value (bindMatrix). */
    std::vector<CsrMatrix> csrs_;
    std::vector<CscMatrix> cscs_;
    /** Pairs bound by reference (borrowMatrix); null otherwise, so a
     *  copied workspace never points into another's storage. */
    std::vector<const CsrMatrix *> borrowed_csrs_;
    std::vector<const CscMatrix *> borrowed_cscs_;
    std::vector<char> bound_;
};

} // namespace sparsepipe

#endif // SPARSEPIPE_LANG_WORKSPACE_HH
