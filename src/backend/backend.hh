/**
 * @file
 * Named registry of cycle-level accelerator backends.
 *
 * A backend is a timing model over the one shared functional stage,
 * and reports SimStats with an exact per-phase cycle attribution.
 * Backends are constructed through a small named factory so every
 * entry point — the Session API, the CLI, the benches, the serve
 * protocol, the explore axis registry, the differential fuzzer —
 * selects an engine by the same canonical name and rejects unknown
 * names with the same InvalidInput listing the registry.
 *
 * Registered backends, each a final subclass of CycleEngine
 * (core/sparsepipe_sim.hh):
 *
 *   sparsepipe  the paper's inter-operator OEI dataflow
 *               (SparsepipeSim, src/core) — the default
 *   gamma       a Gamma-style row-wise dataflow with a
 *               set-associative fiber cache (GammaSim,
 *               src/backend/gamma)
 *
 * What a backend must provide (see DESIGN.md section 12):
 *
 *  - a CycleEngine timing stage: runTiming() is a pure function of
 *    (program, config, operand patterns, outcome, max_iters).  The
 *    functional stage is not a backend's to provide: every engine
 *    runs CycleEngine::runFunctional, whose values are bit-identical
 *    to RefExecutor (the differential fuzzer diffs every registered
 *    backend against ref on every case), so one case's outcome
 *    serves every backend;
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

/** Every backend's engine base, which lives in src/core. */
using sparsepipe::CycleEngine;

/** Construct a backend's engine over a hardware configuration. */
std::unique_ptr<CycleEngine> makeEngine(BackendKind kind,
                                        const SparsepipeConfig &config);

} // namespace sparsepipe::backend

#endif // SPARSEPIPE_BACKEND_BACKEND_HH
