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
 * The workspace references its Program without owning it, so the
 * Program must outlive the workspace.  Bound matrices are held by
 * value; a copy of a CsrMatrix / CscMatrix shares its arrays, so
 * binding a cached pair costs two reference-count bumps.
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

    /** Bind the sparse operand, building its CSC twin. */
    void bindMatrix(TensorId id, CsrMatrix csr);

    /**
     * Bind the sparse operand with an already-built twin: no
     * transpose.  `csc` must equal CscMatrix::fromCsr(csr).  Callers
     * that cache the pair (api::Session) bind it this way.
     */
    void bindMatrix(TensorId id, CsrMatrix csr, CscMatrix csc);

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

    /** @return true once the tensor was bound. */
    bool matrixBound(TensorId id) const;

    const Program &program() const { return *program_; }

  private:
    const TensorInfo &info(TensorId id) const;
    std::size_t at(TensorId id) const;

    const Program *program_;
    std::vector<DenseVector> vectors_;
    std::vector<DenseMatrix> denses_;
    std::vector<Value> scalars_;
    std::vector<CsrMatrix> csrs_;
    std::vector<CscMatrix> cscs_;
    std::vector<char> bound_;
};

} // namespace sparsepipe

#endif // SPARSEPIPE_LANG_WORKSPACE_HH
