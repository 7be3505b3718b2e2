#include "core/executor.hh"

namespace sparsepipe {

ExecOutcome
ReferenceExecutor::execute(Workspace &ws, Idx max_iters) const
{
    ExecOutcome out;
    out.run = RefExecutor{}.run(ws, max_iters);
    return out;
}

} // namespace sparsepipe
