/**
 * @file
 * Reference executor: a straightforward, operator-at-a-time
 * functional interpreter for Programs.
 *
 * This is the golden model of the repository.  Every performance
 * model (SparsepipeSim included) must produce values that match this
 * executor, because the OEI dataflow only *reorders* computation.
 * It also doubles as the operational model of the CPU baseline: the
 * CPU cost model charges exactly the operator-at-a-time traffic this
 * executor generates.
 */

#ifndef SPARSEPIPE_REF_EXECUTOR_HH
#define SPARSEPIPE_REF_EXECUTOR_HH

#include <optional>

#include "lang/workspace.hh"
#include "util/status.hh"

namespace sparsepipe {

/** Outcome of a multi-iteration run. */
struct RunResult
{
    /** Number of loop iterations actually executed. */
    Idx iterations = 0;
    /** True when the convergence condition stopped the loop. */
    bool converged = false;
};

/**
 * The outcome of running `program` for up to max_iters iterations,
 * when its values cannot decide it.  A program without a convergence
 * test runs every iteration, so every engine's functional stage (and
 * RefExecutor::run) returns {max(max_iters, 0), false} for it
 * whatever its operands hold; a caller that needs only the outcome
 * (a timing-only run) can skip computing the values.  nullopt for a
 * program with a convergence test: its values pick the iteration it
 * stops at.
 */
std::optional<RunResult> valueFreeOutcome(const Program &program,
                                          Idx max_iters);

/**
 * Operator-at-a-time interpreter.
 */
class RefExecutor
{
  public:
    /**
     * Execute up to max_iters loop iterations (stopping early if the
     * program's convergence condition fires).  Carries are applied
     * simultaneously at each iteration end.  A non-null `cancel` is
     * polled once per iteration; a fired token unwinds by throwing
     * SpError and leaves the workspace mid-update.
     */
    RunResult run(Workspace &ws, Idx max_iters,
                  const CancelToken *cancel = nullptr) const;

    /** Execute one loop-body pass (no carries). */
    void runBody(Workspace &ws) const;

    /** Apply all carries simultaneously (dst <- src). */
    void applyCarries(Workspace &ws) const;

    /** Execute a single op (exposed for unit tests). */
    static void execOp(Workspace &ws, const OpNode &op);
};

} // namespace sparsepipe

#endif // SPARSEPIPE_REF_EXECUTOR_HH
