/**
 * @file
 * Unified execution interface over the engines that can run a bound
 * workspace: the reference executor (src/ref), the functional OEI
 * driver (src/check), and every registered cycle-level backend
 * (backend::BackendExecutor, src/backend).
 *
 * All of them transform a Workspace the same way — OEI only
 * reorders computation — so callers that care about values,
 * iteration counts, or schedule agreement (the differential checker)
 * can hold them behind one vtable instead of ad-hoc call shapes.
 * Timing statistics are optional: only the cycle backends produce
 * them.
 */

#ifndef SPARSEPIPE_CORE_EXECUTOR_HH
#define SPARSEPIPE_CORE_EXECUTOR_HH

#include <memory>
#include <optional>
#include <string>

#include "core/sparsepipe_sim.hh"
#include "lang/workspace.hh"
#include "ref/executor.hh"

namespace sparsepipe {

/** Outcome of one Executor::execute call. */
struct ExecOutcome
{
    /** Iterations executed + convergence flag. */
    RunResult run;

    /**
     * Registry name of the cycle backend that produced `stats`
     * ("sparsepipe", "gamma", ...); empty for purely functional
     * engines (ref, oei).
     */
    std::string backend;

    /** Schedule the engine chose; engaged only for engines that
     *  make a scheduling decision (oei, the sparsepipe backend). */
    std::optional<ScheduleMode> mode;

    /** Cycle-level statistics; engaged only for cycle backends. */
    std::optional<SimStats> stats;
};

/**
 * One engine that can execute a bound + initialised workspace.
 * execute() leaves the workspace in the engine's final state — for
 * correct engines, value-equivalent to every other engine's.
 */
class Executor
{
  public:
    virtual ~Executor() = default;

    /** Short name for reports ("ref", "oei", or a backend name). */
    virtual const char *name() const = 0;

    /** Run up to max_iters iterations (convergence may stop early). */
    virtual ExecOutcome execute(Workspace &ws, Idx max_iters) const = 0;
};

/** The golden operator-at-a-time reference executor. */
class ReferenceExecutor final : public Executor
{
  public:
    const char *name() const override { return "ref"; }
    ExecOutcome execute(Workspace &ws, Idx max_iters) const override;
};

} // namespace sparsepipe

#endif // SPARSEPIPE_CORE_EXECUTOR_HH
