/**
 * @file
 * Independent functional driver for the OEI schedule.
 *
 * This re-implements the simulator's scheduling decision and
 * functional execution loop (schedule-mode choice, scalar-preamble
 * hoisting, fused-pass commit discipline, carry application,
 * convergence) WITHOUT the timing machinery, and deliberately runs
 * the fused pass at a different sub-tensor width than the simulator
 * would pick.  It is the third execution path of the differential
 * checker: reference executor vs this driver vs the cycle-level
 * simulator.  Because OEI only reorders computation, all three must
 * agree for every program; keeping this copy of the scheduling logic
 * separate from src/core means a bug there cannot silently cancel
 * out here.
 */

#ifndef SPARSEPIPE_CHECK_OEI_DRIVER_HH
#define SPARSEPIPE_CHECK_OEI_DRIVER_HH

#include "core/executor.hh"
#include "core/sparsepipe_sim.hh"
#include "lang/workspace.hh"
#include "ref/executor.hh"

namespace sparsepipe {

/** Outcome of one functional OEI run. */
struct OeiResult
{
    RunResult run;
    /** Schedule mode this driver chose (must match the simulator). */
    ScheduleMode mode = ScheduleMode::Stream;
};

/**
 * Execute a bound + initialised workspace for up to max_iters
 * iterations in OEI order.  `sub_tensor_cols` is the fused-pass
 * column width; <= 0 picks a fixed default (16).
 */
OeiResult runOeiFunctional(Workspace &ws, Idx max_iters,
                           Idx sub_tensor_cols = 0);

/**
 * The functional OEI driver behind the unified Executor interface,
 * next to ReferenceExecutor and the backend::BackendExecutor of each
 * registered cycle backend.
 */
class OeiExecutor final : public Executor
{
  public:
    explicit OeiExecutor(Idx sub_tensor_cols = 0)
        : sub_tensor_cols_(sub_tensor_cols) {}

    const char *name() const override { return "oei"; }

    ExecOutcome
    execute(Workspace &ws, Idx max_iters) const override
    {
        const OeiResult r =
            runOeiFunctional(ws, max_iters, sub_tensor_cols_);
        ExecOutcome out;
        out.run = r.run;
        out.mode = r.mode;
        return out;
    }

  private:
    Idx sub_tensor_cols_;
};

} // namespace sparsepipe

#endif // SPARSEPIPE_CHECK_OEI_DRIVER_HH
