/**
 * @file
 * The three workloads and the layer-by-layer replay their traced
 * runs use.
 *
 *   grid_cold     the paper's 11-app x 9-dataset iso-GPU grid, cold,
 *                 through the bench harness on 2 workers
 *   sweep_warm    a design-space sweep over prepared cases through
 *                 explore::runSweep on 2 workers
 *   serve_closed  an in-process serve::Server driven by a closed loop
 *                 of 3 client connections over loopback
 *
 * Untraced, each calls the layers' public entry points exactly as a
 * user would.  Traced (--trace), each replays those calls one layer
 * at a time from this code, with a span around every call, and must
 * reproduce the untraced run's simulated statistics exactly.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <map>
#include <memory>
#include <string>

#include "api/session.hh"
#include "common.hh"
#include "harness.hh"
#include "runner/keyed_cache.hh"
#include "tracer.hh"

namespace perfbench {

WorkloadResult runGridCold(const WorkloadOptions &opts);
WorkloadResult runSweepWarm(const WorkloadOptions &opts);
WorkloadResult runServeClosed(const WorkloadOptions &opts);

/**
 * api::Session's generate -> reorder -> prepare -> bind -> simulate
 * pipeline, replayed one public call at a time with a layer span
 * around each.  Generated and reordered matrices are cached per
 * dataset, as the Session caches them; prepared cases are not.
 * Thread-safe like the Session.
 */
class LayeredPipeline
{
  public:
    LayeredPipeline(Tracer *tracer, std::uint64_t seed)
        : tracer_(tracer), seed_(seed) {}

    /** generateDataset, span "sparse.generate". */
    std::shared_ptr<const sparsepipe::CooMatrix>
    raw(const std::string &dataset);

    /** api::reorderMatrix (vanilla), span "prep.reorder". */
    std::shared_ptr<const sparsepipe::CooMatrix>
    reordered(const std::string &dataset);

    /**
     * api::prepareCase split into its calls: makeApp +
     * AppInstance::prepare ("apps.prepare"), CscMatrix::fromCsr
     * ("sparse.csc_twin"), buildBlockedLayout ("prep.blocked").
     */
    sparsepipe::api::PreparedCase prepare(const std::string &app,
                                          const std::string &dataset);

    /**
     * Session::run(req, pc) split into Session::bindWorkspace
     * ("lang.bind") and the backend's CycleEngine::run ("core.sim"
     * for sparsepipe, "backend.gamma_sim" for gamma).  `ws` receives
     * the final workspace when non-null.
     */
    sparsepipe::SimStats run(const sparsepipe::api::RunRequest &req,
                             const sparsepipe::api::PreparedCase &pc,
                             sparsepipe::Workspace *ws = nullptr);

  private:
    Tracer *tracer_;
    std::uint64_t seed_;
    sparsepipe::runner::KeyedCache<std::string, sparsepipe::CooMatrix>
        raw_;
    sparsepipe::runner::KeyedCache<std::string, sparsepipe::CooMatrix>
        reordered_;
};

/**
 * The bench harness's baseline step of runCaseOr (the four
 * comparison models), span "baseline.models".
 */
void runBaselines(Tracer *tracer, const sparsepipe::api::PreparedCase &pc,
                  const sparsepipe::bench::RunConfig &config,
                  sparsepipe::bench::CaseResult &result);

/**
 * Sum a run's simulated counters into the per-layer totals, and its
 * OS + IS element count (the denominator of core.host_ns_per_elem,
 * sparsepipe engine only) into info["core.elems"].
 */
void addSimCounters(const sparsepipe::SimStats &stats, bool gamma,
                    WorkloadResult &result);

/** The prepared-operand cache's hit / miss / eviction counts, for
 *  the api.prepared.* per-layer metrics. */
void addPreparedCacheStats(const sparsepipe::api::Session &session,
                           WorkloadResult &result);

/** The check every simulated run must pass: the four attribution
 *  buckets sum to the cycle count.  Returns "" when it holds. */
std::string attributionFailure(const sparsepipe::SimStats &stats);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
