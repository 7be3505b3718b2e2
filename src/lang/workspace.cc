#include "lang/workspace.hh"

#include "util/logging.hh"

namespace sparsepipe {

Workspace::Workspace(const Program &program)
    : program_(&program)
{
    const auto &tensors = program.tensors();
    vectors_.resize(tensors.size());
    denses_.resize(tensors.size());
    scalars_.resize(tensors.size(), 0.0);
    csrs_.resize(tensors.size());
    cscs_.resize(tensors.size());
    bound_.assign(tensors.size(), 0);

    for (std::size_t id = 0; id < tensors.size(); ++id) {
        const TensorInfo &t = tensors[id];
        switch (t.kind) {
          case TensorKind::Vector:
            vectors_[id].assign(static_cast<std::size_t>(t.dim0), 0.0);
            break;
          case TensorKind::DenseMatrix:
            denses_[id] = DenseMatrix(t.dim0, t.dim1, 0.0);
            break;
          case TensorKind::Scalar:
            scalars_[id] = t.init;
            break;
          case TensorKind::SparseMatrix:
            break; // bound later
        }
    }
}

const TensorInfo &
Workspace::info(TensorId id) const
{
    return program_->tensor(id);
}

std::size_t
Workspace::at(TensorId id) const
{
    if (id < 0 ||
        id >= static_cast<TensorId>(program_->tensors().size()))
        sp_panic("Workspace: bad tensor id %lld",
                 static_cast<long long>(id));
    return static_cast<std::size_t>(id);
}

void
Workspace::bindMatrix(TensorId id, CsrMatrix csr)
{
    CscMatrix csc = CscMatrix::fromCsr(csr);
    bindMatrix(id, std::move(csr), std::move(csc));
}

void
Workspace::bindMatrix(TensorId id, CsrMatrix csr, CscMatrix csc)
{
    const TensorInfo &t = info(id);
    if (t.kind != TensorKind::SparseMatrix)
        sp_panic("bindMatrix: tensor '%s' is not a sparse matrix",
                 t.name.c_str());
    if (csr.rows() != t.dim0 || csr.cols() != t.dim1)
        sp_panic("bindMatrix: '%s' expects %lld x %lld, got "
                 "%lld x %lld", t.name.c_str(),
                 static_cast<long long>(t.dim0),
                 static_cast<long long>(t.dim1),
                 static_cast<long long>(csr.rows()),
                 static_cast<long long>(csr.cols()));
    if (csc.rows() != csr.rows() || csc.cols() != csr.cols() ||
        csc.nnz() != csr.nnz())
        sp_panic("bindMatrix: '%s' CSC twin disagrees with the CSR "
                 "operand", t.name.c_str());
    const std::size_t idx = at(id);
    csrs_[idx] = std::move(csr);
    cscs_[idx] = std::move(csc);
    bound_[idx] = 1;
}

DenseVector &
Workspace::vec(TensorId id)
{
    if (info(id).kind != TensorKind::Vector)
        sp_panic("Workspace::vec: '%s' is not a vector",
                 info(id).name.c_str());
    return vectors_[at(id)];
}

const DenseVector &
Workspace::vec(TensorId id) const
{
    return const_cast<Workspace *>(this)->vec(id);
}

DenseMatrix &
Workspace::den(TensorId id)
{
    if (info(id).kind != TensorKind::DenseMatrix)
        sp_panic("Workspace::den: '%s' is not a dense matrix",
                 info(id).name.c_str());
    return denses_[at(id)];
}

const DenseMatrix &
Workspace::den(TensorId id) const
{
    return const_cast<Workspace *>(this)->den(id);
}

Value &
Workspace::scalar(TensorId id)
{
    if (info(id).kind != TensorKind::Scalar)
        sp_panic("Workspace::scalar: '%s' is not a scalar",
                 info(id).name.c_str());
    return scalars_[at(id)];
}

Value
Workspace::scalar(TensorId id) const
{
    return const_cast<Workspace *>(this)->scalar(id);
}

const CsrMatrix &
Workspace::csr(TensorId id) const
{
    if (!matrixBound(id))
        sp_panic("Workspace::csr: matrix '%s' is unbound",
                 info(id).name.c_str());
    return csrs_[at(id)];
}

const CscMatrix &
Workspace::csc(TensorId id) const
{
    if (!matrixBound(id))
        sp_panic("Workspace::csc: matrix '%s' is unbound",
                 info(id).name.c_str());
    return cscs_[at(id)];
}

bool
Workspace::matrixBound(TensorId id) const
{
    return info(id).kind == TensorKind::SparseMatrix &&
           bound_[at(id)];
}

} // namespace sparsepipe
