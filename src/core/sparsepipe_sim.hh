/**
 * @file
 * The cycle-level engine base (CycleEngine) and the Sparsepipe
 * simulator, its OEI subclass: cycle-level timing through the
 * event-driven pass engine plus the one functional stage of every
 * engine, which reproduces the reference executor's values bit for
 * bit.
 *
 * Scheduling policy (Section IV-D):
 *  - a program whose analysis shows a fusable intra-iteration vxm
 *    pair (KNN's vxm -> no-op -> vxm) runs one fused pass per
 *    iteration covering both vxm;
 *  - a program with a single vxm whose cross-iteration pairing is
 *    fusable (PageRank, BFS, ...) runs one fused pass per *two*
 *    iterations: the pass's OS vxm is iteration 2p and its IS vxm
 *    is iteration 2p+1, halving the sparse operand's DRAM traffic;
 *  - everything else (cg, bgs) falls back to stream passes that
 *    still enjoy producer-consumer reuse (intermediates on chip).
 */

#ifndef SPARSEPIPE_CORE_SPARSEPIPE_SIM_HH
#define SPARSEPIPE_CORE_SPARSEPIPE_SIM_HH

#include <memory>
#include <string>
#include <vector>

#include "buffer/dual_buffer.hh"
#include "core/buckets.hh"
#include "core/config.hh"
#include "graph/analysis.hh"
#include "obs/attribution.hh"
#include "ref/executor.hh"
#include "util/status.hh"

namespace sparsepipe {

namespace obs {
class MetricsRegistry;
class TraceSink;
} // namespace obs

/** Scheduling mode chosen for a program. */
enum class ScheduleMode
{
    CrossIteration, ///< fused pass per two iterations (OEI)
    IntraIteration, ///< fused pass per iteration (two vxm per body)
    Stream,         ///< producer-consumer reuse only
};

/** @return short name for tables. */
const char *scheduleModeName(ScheduleMode mode);

/** Aggregate statistics of one simulated run. */
struct SimStats
{
    Tick cycles = 0;
    Idx iterations = 0;
    bool converged = false;
    ScheduleMode mode = ScheduleMode::Stream;
    Idx passes = 0;

    Idx dram_read_bytes = 0;
    Idx dram_write_bytes = 0;
    Idx matrix_demand_bytes = 0;
    Idx reload_bytes = 0;
    Idx prefetch_bytes = 0;
    Idx vector_bytes = 0;

    double bw_utilization = 0.0;
    /**
     * Utilization timeline (Fig. 15), one sample per bucket; the
     * resolution follows SparsepipeConfig::bw_timeline_samples
     * (default 25, overridable per run).
     */
    std::vector<double> bw_timeline;

    Idx os_elems = 0;
    Idx is_elems = 0;
    double ewise_ops = 0.0;

    BufferStats buffer;

    /**
     * Exact cycle partition: per-phase compute / DRAM-read stall /
     * DRAM-write drain / buffer-swap wait buckets whose totals sum
     * to `cycles` (enforced as an sp_check invariant).
     */
    obs::CycleAttribution attribution;
    /** Prefetcher / reload / bucket-occupancy counters. */
    obs::ObsCounters counters;

    /** Wall-clock equivalent at the configured core clock. */
    double seconds(double clock_ghz = 1.0) const
    {
        return static_cast<double>(cycles) / (clock_ghz * 1e9);
    }
};

/**
 * The sparse operands a timing stage reads, by tensor id.  Only their
 * patterns matter.  The view covers either every operand bound in a
 * workspace (the composed run) or one caller-owned CSR/CSC pair (a
 * prepared case replayed without binding a workspace), optionally
 * with the memo of that pair's pattern.  The viewed matrices and the
 * memo must outlive it.
 */
class OperandPatterns
{
  public:
    explicit OperandPatterns(const Workspace &ws) : ws_(&ws) {}
    OperandPatterns(TensorId id, const CsrMatrix &csr,
                    const CscMatrix &csc, BucketMemo *memo = nullptr)
        : id_(id), csr_(&csr), csc_(&csc), memo_(memo) {}

    /** Panics when `id` is not in the view. */
    const CsrMatrix &csr(TensorId id) const;
    const CscMatrix &csc(TensorId id) const;

    /**
     * The StepBuckets of operand `id` at width t: built from its CSC
     * form, or from its CSR form when `transposed` (SpMM).  Read
     * from the memo when the view has one (it serves only its own
     * pattern), else built for this call.
     */
    std::shared_ptr<const StepBuckets> buckets(TensorId id, Idx t,
                                               bool transposed) const;

  private:
    const Workspace *ws_ = nullptr;
    TensorId id_ = invalid_tensor;
    const CsrMatrix *csr_ = nullptr;
    const CscMatrix *csc_ = nullptr;
    BucketMemo *memo_ = nullptr;
};

/**
 * One cycle-level engine: the common base of the Sparsepipe
 * simulator below and of every alternate model behind the backend
 * registry (backend::makeEngine, src/backend).  SparsepipeSim and
 * backend::GammaSim are its two subclasses; each provides only a
 * timing stage.
 *
 * A run has two stages.  Values decide only when a convergent program
 * stops, and cycles depend on the operand's pattern, never on its
 * values, so the stages meet in a RunResult:
 *
 *  - runFunctional() executes the workspace with the Sparsepipe
 *    fused-pair and packed-lane kernels and returns {iterations,
 *    converged}.  It is every backend's functional stage, and the
 *    workspace ends bit-identical to a RefExecutor run, so one
 *    case's outcome serves every backend;
 *  - runTiming() is the backend's cycle model of that outcome, a
 *    pure function of (program, config, operand patterns, outcome,
 *    max_iters).  Only it emits trace events.
 *
 * run() composes the two and is the one path of every caller that
 * binds its own workspace and reads it afterwards.  A caller that
 * already knows a case's outcome calls runTiming() alone: api::Session
 * from its memo (every run, the autotuner's probes included, goes
 * through it) and, for a program without a convergence test, from
 * valueFreeOutcome() without computing any value.
 */
class CycleEngine
{
  public:
    explicit CycleEngine(SparsepipeConfig config)
        : config_(std::move(config)) {}
    CycleEngine(const CycleEngine &) = delete;
    CycleEngine &operator=(const CycleEngine &) = delete;
    virtual ~CycleEngine() = default;

    /**
     * Run a bound + initialised workspace for up to max_iters
     * iterations (early-exit on the program's convergence
     * condition): runFunctional() then runTiming().
     */
    SimStats
    run(Workspace &ws, Idx max_iters)
    {
        const RunResult outcome = runFunctional(ws, max_iters);
        return runTiming(ws.program(), OperandPatterns(ws), outcome,
                         max_iters);
    }

    /**
     * Functional stage: execute the workspace for up to max_iters
     * iterations and leave it final.  The outcome and the final
     * workspace bits do not depend on sub_tensor_cols, lanes or
     * band_threads (sparsepipe_sim_test pins this).  Polls the
     * cancellation token once per iteration.
     */
    RunResult runFunctional(Workspace &ws, Idx max_iters) const;

    /**
     * Timing stage: the cycle model of a run whose functional stage
     * ended in `outcome` under the same max_iters (so
     * outcome.iterations <= max_iters).  Reads only the operands'
     * patterns, so a run with other values but the same outcome
     * times identically.
     */
    virtual SimStats runTiming(const Program &program,
                               const OperandPatterns &operands,
                               const RunResult &outcome,
                               Idx max_iters) = 0;

    /**
     * Attach a trace sink: later timing stages emit one trace event
     * per simulator phase and per DRAM transaction.  Pass null to
     * detach (the default; a detached run records nothing).
     */
    void attachTrace(obs::TraceSink *sink) { trace_ = sink; }

    /**
     * Attach a cancellation token (null detaches).  Runs check it
     * per iteration and per simulated stage; on cancellation or
     * deadline expiry the run unwinds by throwing SpError (caught
     * and flattened to a Status at the Session boundary).  A
     * cancelled run leaves the workspace mid-update; callers must
     * discard it.
     */
    void setCancelToken(const CancelToken *token) { cancel_ = token; }

  protected:
    SparsepipeConfig config_;
    obs::TraceSink *trace_ = nullptr;
    const CancelToken *cancel_ = nullptr;
};

/**
 * Cycle-level Sparsepipe simulator: the paper's OEI dataflow timed
 * through the event-driven pass engine (backend "sparsepipe").
 *
 * Its timing stage runs the pass engine for the outcome's
 * iterations.  A pass is a function of its role (fused, paired fused
 * or stream) and of the DRAM lead it starts with, so the last
 * simulated pass of each role is recorded, and a pass that starts
 * with its role's recorded lead replays the record (core/replay.hh;
 * DESIGN.md §12).  ObsCounters::replayed_iterations counts the
 * replayed passes; every other output but cancel_polls is
 * bit-identical to simulating each.
 */
class SparsepipeSim final : public CycleEngine
{
  public:
    using CycleEngine::CycleEngine;

    SimStats runTiming(const Program &program,
                       const OperandPatterns &operands,
                       const RunResult &outcome, Idx max_iters) override;
};

/**
 * Dump a run's statistics into `reg` under `prefix` (counters named
 * "<prefix>.cycles", "<prefix>.attr.compute", ...), the standard
 * counter set benches expose through --metrics-out.
 */
void recordSimMetrics(obs::MetricsRegistry &reg,
                      const std::string &prefix, const SimStats &stats);

} // namespace sparsepipe

#endif // SPARSEPIPE_CORE_SPARSEPIPE_SIM_HH
