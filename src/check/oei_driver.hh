/**
 * @file
 * Independent functional driver for the OEI schedule.
 *
 * This re-implements the scheduling decision and functional
 * execution loop of the cycle engines (CycleEngine::runFunctional:
 * schedule-mode choice, scalar-preamble hoisting, fused-pass commit
 * discipline, carry application, convergence) WITHOUT the timing
 * machinery, and deliberately runs the fused pass at a different
 * sub-tensor width than the engines would pick.  The differential
 * checker (checkCase) runs it next to RefExecutor and every
 * registered cycle backend.  Because OEI only reorders computation,
 * all of them must agree for every program; keeping this copy of the
 * scheduling logic separate from src/core means a bug there cannot
 * silently cancel out here.
 */

#ifndef SPARSEPIPE_CHECK_OEI_DRIVER_HH
#define SPARSEPIPE_CHECK_OEI_DRIVER_HH

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

} // namespace sparsepipe

#endif // SPARSEPIPE_CHECK_OEI_DRIVER_HH
