/**
 * @file
 * Named registry of cycle-level accelerator backends.
 *
 * PR 4 unified the three execution paths (ref / oei / sim) behind
 * one Executor vtable; this layer does the same one level down, for
 * the *cycle-level* engines themselves.  A backend is a timing model
 * over the one shared functional stage, and reports SimStats with an
 * exact per-phase cycle attribution.  Backends are constructed
 * through a small named factory so every entry point — the Session
 * API, the CLI, the benches, the serve protocol, the explore axis
 * registry, the differential fuzzer — selects an engine by the same
 * canonical name and rejects unknown names with the same
 * InvalidInput listing the registry.
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
 *  - a CycleEngine timing stage: runTiming() is a pure function of
 *    (program, config, operand patterns, outcome, max_iters).  The
 *    functional stage is not a backend's to provide: every engine
 *    runs SparsepipeSim's (CycleEngine::runFunctional), whose values
 *    are bit-identical to RefExecutor (the differential fuzzer diffs
 *    every registered backend against ref on every case), so one
 *    case's outcome serves every backend;
 *  - SimStats whose attribution phases tile [0, cycles] and whose
 *    bucket totals reconcile exactly with the cycle count (use the
 *    src/obs ActivityLog / PhaseWindow machinery and the DramModel
 *    access hook, which make the partition exact by construction);
 *  - trace events and cancellation polls from the timing stage,
 *    through the sink and token the base class holds (attachTrace /
 *    setCancelToken).
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
 * One cycle-level engine instance: the common surface of
 * SparsepipeSim and every alternate model behind the registry.  A
 * run has two stages (see core/sparsepipe_sim.hh): runFunctional()
 * executes the workspace and returns {iterations, converged};
 * runTiming() times that outcome from the operand patterns alone.
 * Backends differ only in timing: the functional stage is the same
 * for all of them.  run() composes the two and is the one path of
 * every caller that binds its own workspace and reads it afterwards.
 * A caller that needs only the stats of a program without a
 * convergence test calls runTiming() on valueFreeOutcome() instead.
 * Trace and cancellation follow the SparsepipeSim contract; only
 * runTiming() emits trace events.
 */
class CycleEngine
{
  public:
    explicit CycleEngine(SparsepipeConfig config)
        : config_(std::move(config)) {}
    CycleEngine(const CycleEngine &) = delete;
    CycleEngine &operator=(const CycleEngine &) = delete;
    virtual ~CycleEngine() = default;

    /** Both stages: runFunctional(), then runTiming(). */
    SimStats
    run(Workspace &ws, Idx max_iters)
    {
        const RunResult outcome = runFunctional(ws, max_iters);
        return runTiming(ws.program(), OperandPatterns(ws), outcome,
                         max_iters);
    }

    /**
     * Functional stage of every backend: SparsepipeSim's fused-pair
     * and packed-lane kernels under this engine's config and
     * cancellation token.  The workspace ends bit-identical to a
     * RefExecutor run.
     */
    RunResult runFunctional(Workspace &ws, Idx max_iters) const;

    /** Timing stage: this backend's cycle model of `outcome`. */
    virtual SimStats runTiming(const Program &program,
                               const OperandPatterns &operands,
                               const RunResult &outcome,
                               Idx max_iters) = 0;

    /** Trace sink of later timing stages (null detaches). */
    void attachTrace(obs::TraceSink *sink) { trace_ = sink; }
    /** Cancellation token of later runs (null detaches). */
    void setCancelToken(const CancelToken *token) { cancel_ = token; }

  protected:
    /** A SparsepipeSim with this engine's config, sink and token. */
    SparsepipeSim sparsepipeSim() const;

    SparsepipeConfig config_;
    obs::TraceSink *trace_ = nullptr;
    const CancelToken *cancel_ = nullptr;
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
