/**
 * @file
 * Event-driven timing model of one OEI pass.
 *
 * A pass streams the sparse operand once through the four-deep
 * pipeline of Figure 13: CSC loader -> OS core (+ e-wise vector
 * loader) -> E-Wise core (+ opportunistic CSR loader) -> IS core.
 * Each stage instance is an event; a stage launches when its two
 * structural predecessors (same stage of the previous step, previous
 * stage of the same step) complete, so loader/compute overlap, the
 * bandwidth pipe arbitration, and buffer pressure all emerge from
 * the event schedule rather than a closed-form formula.
 *
 * Fused passes drive OS + E-Wise + IS (two vxm sharing one matrix
 * stream: the cross-iteration reuse); stream passes drive OS +
 * E-Wise only (producer-consumer reuse without OEI, used for cg /
 * bgs and for a trailing unpaired iteration).
 */

#ifndef SPARSEPIPE_CORE_PASS_ENGINE_HH
#define SPARSEPIPE_CORE_PASS_ENGINE_HH

#include <array>
#include <vector>

#include "buffer/dual_buffer.hh"
#include "core/buckets.hh"
#include "core/config.hh"
#include "mem/dram.hh"
#include "obs/attribution.hh"
#include "sim/event_queue.hh"

namespace sparsepipe {

class CyclePoller;

/** Per-pass workload charged to the pipeline. */
struct PassCosts
{
    /** DRAM bytes of vector live-ins read across the pass. */
    double vector_read_bytes = 0.0;
    /** DRAM bytes of vector live-outs written across the pass. */
    double vector_write_bytes = 0.0;
    /** E-Wise core element-operations across the pass. */
    double ewise_work = 0.0;
    /** Semiring MACs per matrix non-zero (f for SpMM, else 1). */
    double os_mult = 1.0;
};

/** Timing and traffic outcome of one pass. */
struct PassStats
{
    Tick start = 0;
    Tick end = 0;
    Idx matrix_demand_bytes = 0;
    Idx reload_bytes = 0;
    Idx prefetch_bytes = 0;
    Idx vector_bytes = 0;
    Idx os_elems = 0;
    Idx is_elems = 0;
    double ewise_ops = 0.0;

    /** Compute busy spans, for cycle attribution (DRAM spans are
     * recorded by the DramModel's access hook). */
    std::vector<obs::ActivitySpan> activity;

    /** Matrix elements staged by the eager CSR loader and consumed
     * without a demand fetch. */
    Idx prefetch_hit_elems = 0;
    /** Matrix elements the demand CSC loader fetched instead. */
    Idx prefetch_miss_elems = 0;
    /** Elements the prefetcher wanted but the buffer refused. */
    Idx prefetch_denied_elems = 0;
    /** Demand reload fetches that stalled the IS core. */
    Idx demand_reload_events = 0;
    /** Band reloads the reload-ahead path hid. */
    Idx reload_ahead_events = 0;
};

/**
 * Drives the stage-event pipeline for one pass over the operand.
 */
class PassEngine
{
  public:
    PassEngine(const SparsepipeConfig &config, DramModel &dram,
               EventQueue &queue);

    /**
     * Fused OEI pass: OS vxm + fused e-wise + IS vxm share the
     * matrix stream.  `buffer` should be freshly constructed for
     * the pass; its stats are merged by the caller.
     */
    PassStats runFused(const StepBuckets &buckets,
                       DualBufferModel &buffer,
                       const PassCosts &costs, Tick start);

    /** Stream pass: OS + e-wise only (no inter-vxm fusion). */
    PassStats runStream(const StepBuckets &buckets,
                        const PassCosts &costs, Tick start);

    /**
     * Attach the run's cancellation poller (null detaches; it must
     * outlive the passes).  The engine checks its token once per
     * stage launch (CyclePoller::check, a relaxed atomic load per
     * column step) and polls it on simulated time at each stage it
     * executes (CyclePoller::at), so the cadence carries on across
     * passes and into replayed ones.  A fired token unwinds by
     * throwing SpError(Cancelled / DeadlineExceeded); the Session
     * boundary flattens that back into a returned Status.  Engine,
     * queue, and DRAM model are per-run objects, so abandoning them
     * mid-pass is safe.
     */
    void setPoller(CyclePoller *poller) { poller_ = poller; }

  private:
    struct Run;

    /**
     * Per-pass working state.  Owned by the engine and rebound to
     * each Run so steady-state passes reuse the previous pass's
     * capacity instead of allocating ~9 vectors per pass (the runs
     * of a sweep execute thousands of passes over one bucketing).
     */
    struct Scratch
    {
        std::vector<std::array<Tick, 4>> done;
        std::vector<std::array<char, 4>> completed;
        std::vector<std::array<char, 4>> launched;
        std::vector<Idx> prefetched;
        std::vector<Idx> prefetchable;
        std::vector<Idx> slice_resident;
        std::vector<double> is_arrival;
        std::vector<Idx> pre_reloaded;
        std::vector<Tick> data_ready;
    };

    const SparsepipeConfig &config_;
    DramModel &dram_;
    EventQueue &queue_;
    CyclePoller *poller_ = nullptr;
    Scratch scratch_;
};

} // namespace sparsepipe

#endif // SPARSEPIPE_CORE_PASS_ENGINE_HH
