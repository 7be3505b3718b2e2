/**
 * @file
 * Named registry of cycle-level accelerator backends.
 *
 * PR 4 unified the three execution paths (ref / oei / sim) behind
 * one Executor vtable; this layer does the same one level down, for
 * the *cycle-level* engines themselves.  A backend is a timing model
 * that also executes the program functionally (value-equivalent to
 * RefExecutor) and reports SimStats with an exact per-phase cycle
 * attribution.  Backends are constructed through a small named
 * factory so every entry point — the Session API, the CLI, the
 * benches, the serve protocol, the explore axis registry, the
 * differential fuzzer — selects an engine by the same canonical
 * name and rejects unknown names with the same InvalidInput listing
 * the registry.
 *
 * Registered backends:
 *
 *   sparsepipe  the paper's inter-operator OEI dataflow
 *               (SparsepipeSim, src/core) — the default
 *   gamma       a Gamma-style row-wise dataflow with a
 *               set-associative fiber cache (src/backend/gamma)
 *
 * What a backend must provide (see DESIGN.md section 12):
 *
 *  - a CycleEngine in two stages: runFunctional() leaves the
 *    workspace in a state value-identical to RefExecutor (the
 *    differential fuzzer diffs every registered backend against ref
 *    on every case) and returns {iterations, converged}, which for
 *    a program without a convergence test must equal
 *    valueFreeOutcome() (api::Session times such programs without
 *    calling it); runTiming() is a pure function of (program,
 *    config, operand patterns, that outcome, max_iters);
 *  - SimStats whose attribution phases tile [0, cycles] and whose
 *    bucket totals reconcile exactly with the cycle count (use the
 *    src/obs ActivityLog / PhaseWindow machinery and the DramModel
 *    access hook, which make the partition exact by construction);
 *  - trace + cancellation plumbing (attachTrace / setCancelToken).
 */

#ifndef SPARSEPIPE_BACKEND_BACKEND_HH
#define SPARSEPIPE_BACKEND_BACKEND_HH

#include <memory>
#include <string>
#include <vector>

#include "core/executor.hh"
#include "core/sparsepipe_sim.hh"
#include "util/status.hh"

namespace sparsepipe::backend {

/** One registered cycle-level engine family. */
enum class BackendKind
{
    Sparsepipe, ///< the paper's OEI dataflow (SparsepipeSim)
    Gamma,      ///< Gamma-style row-wise dataflow + fiber cache
};

/** @return the canonical registry name ("sparsepipe", "gamma"). */
const char *backendName(BackendKind kind);

/**
 * Resolve a canonical name to its backend.  InvalidInput listing
 * the registered names on an unknown spelling — never fatal, so
 * every request-validation path (CLI, serve, explore, Session) can
 * surface the typo to its caller.
 */
StatusOr<BackendKind> backendFromName(const std::string &name);

/** Every registered backend, in registry (default-first) order. */
const std::vector<BackendKind> &registeredBackends();

/** Registry names joined with ", " — for usage and error text. */
std::string registeredBackendList();

/**
 * Which kernels compute a backend's values.  Runs of one prepared
 * case under the same semantics and max_iters end in the same
 * outcome whatever the hardware configuration, so the pair keys
 * api::Session's functional memo.  The two kinds may round
 * differently, which is why the tag is part of the key.
 */
enum class ValueSemantics
{
    FusedOei,  ///< Sparsepipe's fused-pair and packed-lane kernels
    Reference, ///< RefExecutor, operator at a time
};

/**
 * One cycle-level engine instance: the common surface of
 * SparsepipeSim and every alternate model behind the registry.  A
 * run has two stages (see core/sparsepipe_sim.hh): runFunctional()
 * executes the workspace (value-equivalent to RefExecutor) and
 * returns {iterations, converged}; runTiming() times that outcome
 * from the operand patterns alone.  run() composes them and is the
 * one path of every caller that binds its own workspace and reads
 * it afterwards.  A caller that needs only the stats of a program
 * without a convergence test calls runTiming() on
 * valueFreeOutcome() instead.  Trace and cancellation follow the
 * SparsepipeSim contract; only runTiming() emits trace events.
 */
class CycleEngine
{
  public:
    virtual ~CycleEngine() = default;

    /** Both stages: runFunctional(), then runTiming(). */
    SimStats
    run(Workspace &ws, Idx max_iters)
    {
        const RunResult outcome = runFunctional(ws, max_iters);
        return runTiming(ws.program(), OperandPatterns(ws), outcome,
                         max_iters);
    }

    virtual ValueSemantics valueSemantics() const = 0;
    virtual RunResult runFunctional(Workspace &ws, Idx max_iters) = 0;
    virtual SimStats runTiming(const Program &program,
                               const OperandPatterns &operands,
                               const RunResult &outcome,
                               Idx max_iters) = 0;
    virtual void attachTrace(obs::TraceSink *sink) = 0;
    virtual void setCancelToken(const CancelToken *token) = 0;
};

/** Construct a backend's engine over a hardware configuration. */
std::unique_ptr<CycleEngine> makeEngine(BackendKind kind,
                                        const SparsepipeConfig &config);

/**
 * Executor adapter over any registered backend: the differential
 * fuzzer runs one of these per registry entry next to ref and oei.
 * The outcome carries backend-tagged stats; `mode` is populated only
 * by the sparsepipe backend (the one engine that makes an OEI
 * scheduling decision).
 */
class BackendExecutor final : public Executor
{
  public:
    BackendExecutor(BackendKind kind, SparsepipeConfig config)
        : kind_(kind), config_(std::move(config)) {}

    const char *name() const override { return backendName(kind_); }
    ExecOutcome execute(Workspace &ws, Idx max_iters) const override;

    BackendKind kind() const { return kind_; }
    const SparsepipeConfig &config() const { return config_; }

  private:
    BackendKind kind_;
    SparsepipeConfig config_;
};

} // namespace sparsepipe::backend

#endif // SPARSEPIPE_BACKEND_BACKEND_HH
