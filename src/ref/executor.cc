#include "ref/executor.hh"

#include <algorithm>
#include <limits>

#include "util/logging.hh"

namespace sparsepipe {

namespace {

/** Initial accumulator for a fold monoid. */
Value
foldIdentity(BinaryOp monoid)
{
    switch (monoid) {
      case BinaryOp::Add: return 0.0;
      case BinaryOp::Min: return std::numeric_limits<Value>::infinity();
      case BinaryOp::Max: return -std::numeric_limits<Value>::infinity();
      default:
        sp_panic("fold: '%s' is not a reduction monoid",
                 binaryOpName(monoid));
    }
    __builtin_unreachable();
}

/**
 * Resolved broadcastable operand: scalars repeat, vectors index.
 * Resolving the tensor kind once per op (not once per element) keeps
 * the element loop free of per-element program lookups.
 */
struct OperandView
{
    const Value *vec = nullptr; ///< null for scalar broadcast
    Value scalar = 0.0;

    Value operator[](std::size_t i) const
    {
        return vec ? vec[i] : scalar;
    }
};

OperandView
operandView(const Workspace &ws, TensorId id)
{
    OperandView view;
    if (ws.program().tensor(id).kind == TensorKind::Scalar)
        view.scalar = ws.scalar(id);
    else
        view.vec = ws.vec(id).data();
    return view;
}

void
execVxm(Workspace &ws, const OpNode &op)
{
    const DenseVector &in = ws.vec(op.inputs[0]);
    const CscMatrix &a = ws.csc(op.inputs[1]);
    const Semiring &sr = op.semiring;

    DenseVector out(static_cast<std::size_t>(a.cols()),
                    sr.addIdentity());
    for (Idx c = 0; c < a.cols(); ++c) {
        Value acc = sr.addIdentity();
        auto rows = a.colRows(c);
        auto vals = a.colVals(c);
        for (std::size_t k = 0; k < rows.size(); ++k) {
            Value x = in[static_cast<std::size_t>(rows[k])];
            if (sr.annihilates(x))
                continue;
            acc = sr.add(acc, sr.multiply(x, vals[k]));
        }
        out[static_cast<std::size_t>(c)] = acc;
    }
    ws.vec(op.output) = std::move(out);
}

void
execSpmm(Workspace &ws, const OpNode &op)
{
    const CsrMatrix &a = ws.csr(op.inputs[0]);
    const DenseMatrix &h = ws.den(op.inputs[1]);
    const Semiring &sr = op.semiring;

    DenseMatrix out(a.rows(), h.cols(), sr.addIdentity());
    for (Idx i = 0; i < a.rows(); ++i) {
        auto cols = a.rowCols(i);
        auto vals = a.rowVals(i);
        Value *out_row = out.row(i);
        for (std::size_t k = 0; k < cols.size(); ++k) {
            Value aij = vals[k];
            if (sr.annihilates(aij))
                continue;
            const Value *h_row = h.row(cols[k]);
            for (Idx f = 0; f < h.cols(); ++f) {
                out_row[f] = sr.add(out_row[f],
                                    sr.multiply(aij, h_row[f]));
            }
        }
    }
    ws.den(op.output) = std::move(out);
}

void
execMm(Workspace &ws, const OpNode &op)
{
    const DenseMatrix &lhs = ws.den(op.inputs[0]);
    const DenseMatrix &rhs = ws.den(op.inputs[1]);

    DenseMatrix out(lhs.rows(), rhs.cols(), 0.0);
    for (Idx i = 0; i < lhs.rows(); ++i) {
        const Value *l_row = lhs.row(i);
        Value *o_row = out.row(i);
        for (Idx k = 0; k < lhs.cols(); ++k) {
            Value lik = l_row[k];
            if (lik == 0.0)
                continue;
            const Value *r_row = rhs.row(k);
            for (Idx j = 0; j < rhs.cols(); ++j)
                o_row[j] += lik * r_row[j];
        }
    }
    ws.den(op.output) = std::move(out);
}

void
execEwiseBinary(Workspace &ws, const OpNode &op)
{
    const TensorInfo &out_info = ws.program().tensor(op.output);
    if (out_info.kind == TensorKind::Scalar) {
        Value a = ws.scalar(op.inputs[0]);
        Value b = ws.scalar(op.inputs[1]);
        ws.scalar(op.output) = applyBinary(op.bop, a, b);
        return;
    }
    std::size_t n = static_cast<std::size_t>(out_info.dim0);
    DenseVector out(n);
    const OperandView a = operandView(ws, op.inputs[0]);
    const OperandView b = operandView(ws, op.inputs[1]);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = applyBinary(op.bop, a[i], b[i]);
    ws.vec(op.output) = std::move(out);
}

void
execEwiseUnary(Workspace &ws, const OpNode &op)
{
    const TensorInfo &out_info = ws.program().tensor(op.output);
    switch (out_info.kind) {
      case TensorKind::Scalar:
        ws.scalar(op.output) =
            applyUnary(op.uop, ws.scalar(op.inputs[0]));
        return;
      case TensorKind::DenseMatrix: {
        const DenseMatrix &in = ws.den(op.inputs[0]);
        DenseMatrix out(in.rows(), in.cols());
        for (std::size_t i = 0; i < in.data().size(); ++i)
            out.data()[i] = applyUnary(op.uop, in.data()[i]);
        ws.den(op.output) = std::move(out);
        return;
      }
      case TensorKind::Vector: {
        const DenseVector &in = ws.vec(op.inputs[0]);
        DenseVector out(in.size());
        for (std::size_t i = 0; i < in.size(); ++i)
            out[i] = applyUnary(op.uop, in[i]);
        ws.vec(op.output) = std::move(out);
        return;
      }
      case TensorKind::SparseMatrix:
        sp_panic("ewise-unary on a sparse matrix is unsupported");
    }
}

void
execFold(Workspace &ws, const OpNode &op)
{
    const DenseVector &in = ws.vec(op.inputs[0]);
    Value acc = foldIdentity(op.bop);
    for (Value x : in)
        acc = applyBinary(op.bop, acc, x);
    ws.scalar(op.output) = acc;
}

void
execDot(Workspace &ws, const OpNode &op)
{
    const DenseVector &a = ws.vec(op.inputs[0]);
    const DenseVector &b = ws.vec(op.inputs[1]);
    Value acc = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        acc += a[i] * b[i];
    ws.scalar(op.output) = acc;
}

void
execAssign(Workspace &ws, const OpNode &op)
{
    const TensorInfo &out_info = ws.program().tensor(op.output);
    switch (out_info.kind) {
      case TensorKind::Scalar:
        ws.scalar(op.output) = ws.scalar(op.inputs[0]);
        return;
      case TensorKind::Vector:
        ws.vec(op.output) = ws.vec(op.inputs[0]);
        return;
      case TensorKind::DenseMatrix:
        ws.den(op.output) = ws.den(op.inputs[0]);
        return;
      case TensorKind::SparseMatrix:
        sp_panic("assign of sparse matrices is unsupported");
    }
}

} // anonymous namespace

void
RefExecutor::execOp(Workspace &ws, const OpNode &op)
{
    switch (op.kind) {
      case OpKind::Vxm:         execVxm(ws, op); return;
      case OpKind::Spmm:        execSpmm(ws, op); return;
      case OpKind::Mm:          execMm(ws, op); return;
      case OpKind::EwiseBinary: execEwiseBinary(ws, op); return;
      case OpKind::EwiseUnary:  execEwiseUnary(ws, op); return;
      case OpKind::Fold:        execFold(ws, op); return;
      case OpKind::Dot:         execDot(ws, op); return;
      case OpKind::Assign:      execAssign(ws, op); return;
    }
    sp_panic("execOp: bad op kind");
}

void
RefExecutor::runBody(Workspace &ws) const
{
    for (const OpNode &op : ws.program().ops())
        execOp(ws, op);
}

void
RefExecutor::applyCarries(Workspace &ws) const
{
    const Program &p = ws.program();
    // Snapshot sources first so swaps behave simultaneously.
    std::vector<DenseVector> vec_snap;
    std::vector<DenseMatrix> den_snap;
    std::vector<Value> scl_snap;
    for (const Carry &c : p.carries()) {
        switch (p.tensor(c.src).kind) {
          case TensorKind::Vector:
            vec_snap.push_back(ws.vec(c.src));
            break;
          case TensorKind::DenseMatrix:
            den_snap.push_back(ws.den(c.src));
            break;
          case TensorKind::Scalar:
            scl_snap.push_back(ws.scalar(c.src));
            break;
          case TensorKind::SparseMatrix:
            sp_panic("carry of sparse matrices is unsupported");
        }
    }
    std::size_t vi = 0, di = 0, si = 0;
    for (const Carry &c : p.carries()) {
        switch (p.tensor(c.src).kind) {
          case TensorKind::Vector:
            ws.vec(c.dst) = std::move(vec_snap[vi++]);
            break;
          case TensorKind::DenseMatrix:
            ws.den(c.dst) = std::move(den_snap[di++]);
            break;
          case TensorKind::Scalar:
            ws.scalar(c.dst) = scl_snap[si++];
            break;
          case TensorKind::SparseMatrix:
            break;
        }
    }
}

std::optional<RunResult>
valueFreeOutcome(const Program &program, Idx max_iters)
{
    if (program.hasConvergence())
        return std::nullopt;
    return RunResult{std::max<Idx>(max_iters, 0), false};
}

RunResult
RefExecutor::run(Workspace &ws, Idx max_iters,
                 const CancelToken *cancel) const
{
    const Program &p = ws.program();
    RunResult result;
    for (Idx it = 0; it < max_iters; ++it) {
        if (cancel)
            throwIfError(cancel->pollNow());
        runBody(ws);
        applyCarries(ws);
        ++result.iterations;
        if (p.hasConvergence() &&
            ws.scalar(p.convergenceScalar()) <
                p.convergenceThreshold()) {
            result.converged = true;
            break;
        }
    }
    return result;
}

} // namespace sparsepipe
