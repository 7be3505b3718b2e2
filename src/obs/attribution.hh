/**
 * @file
 * Cycle and stall attribution for the Sparsepipe simulator.
 *
 * The simulator's timeline is a sequence of *phases* (fused OEI
 * passes, stream passes, element-wise iterations, the final posted
 * write drain) that tile [0, SimStats::cycles] with no gaps.  During
 * a run, the engine and the DRAM model record typed *activity spans*
 * (compute busy, read transfer, read-data wait, write transfer) into
 * an ActivityLog; attributeCycles() then sweeps each phase window
 * and classifies every cycle into exactly one bucket by priority:
 *
 *   compute          some compute stage (OS / E-Wise / IS) was busy;
 *   dram_read_stall  no compute, but a demand/eager read transfer or
 *                    read-latency wait was in flight;
 *   dram_write_drain no compute and no read, but a posted write was
 *                    still occupying the pin bandwidth;
 *   buffer_swap_wait residual structural bubbles (nothing busy);
 *                    near zero in the current pipeline because the
 *                    loaders overlap the double-buffer swap, but the
 *                    bucket keeps the partition exact for any model.
 *
 * The partition is exact by construction: each phase's four buckets
 * sum to its span, and the spans tile the run, so the bucket totals
 * reconcile with SimStats::cycles (enforced as an sp_check
 * invariant and asserted in obs_test).
 */

#ifndef SPARSEPIPE_OBS_ATTRIBUTION_HH
#define SPARSEPIPE_OBS_ATTRIBUTION_HH

#include <algorithm>
#include <array>
#include <vector>

#include "sparse/types.hh"

namespace sparsepipe::obs {

/** What a recorded span of simulated time was doing. */
enum class Activity
{
    Compute,       ///< a compute stage was executing
    ReadTransfer,  ///< a read occupied the DRAM pin bandwidth
    ReadWait,      ///< read data in flight (access latency tail)
    WriteTransfer, ///< a posted write occupied the pin bandwidth
};

/** One typed interval of simulated time (half-open [begin, end)). */
struct ActivitySpan
{
    Tick begin = 0;
    Tick end = 0;
    Activity kind = Activity::Compute;
};

/**
 * Log of activity spans for one simulated run.  Spans may overlap
 * freely; classification happens at attribution time, and it reads
 * only the union of each kind's spans.  So record() folds a span
 * into the last recorded span of the same kind when the two overlap
 * or touch: the per-kind unions, and with them attributeCycles(),
 * stay exactly as if every span were kept, while a run that records
 * one span per row or per DRAM access keeps a handful.
 */
class ActivityLog
{
  public:
    /** Record a span; zero/negative-length spans are dropped. */
    void
    record(Activity kind, Tick begin, Tick end)
    {
        if (end <= begin)
            return;
        std::size_t &last = last_[static_cast<std::size_t>(kind)];
        if (last < spans_.size()) {
            ActivitySpan &prev = spans_[last];
            if (begin <= prev.end && end >= prev.begin) {
                prev.begin = std::min(prev.begin, begin);
                prev.end = std::max(prev.end, end);
                return;
            }
        }
        last = spans_.size();
        spans_.push_back({begin, end, kind});
    }

    void append(const std::vector<ActivitySpan> &spans);

    const std::vector<ActivitySpan> &spans() const { return spans_; }

  private:
    static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

    std::vector<ActivitySpan> spans_;
    /** Per kind, the index of its last span (kNone before the first). */
    std::array<std::size_t, 4> last_ = {kNone, kNone, kNone, kNone};
};

/** The kind of simulator phase a window covers. */
enum class PhaseKind
{
    FusedPass,      ///< fused OEI pass (OS + E-Wise + IS)
    StreamPass,     ///< stream pass (OS + E-Wise only)
    EwiseIteration, ///< iteration of a matrix-free program
    WriteDrain,     ///< final posted-write drain
};

/** @return short name for reports ("fused-pass", ...). */
const char *phaseKindName(PhaseKind kind);

/** One phase window on the run timeline. */
struct PhaseWindow
{
    PhaseKind kind = PhaseKind::FusedPass;
    Idx index = 0; ///< ordinal among phases of the run
    Tick begin = 0;
    Tick end = 0;
};

/** Attribution outcome for one phase. */
struct PhaseCycles
{
    PhaseKind kind = PhaseKind::FusedPass;
    Idx index = 0;
    Tick begin = 0;
    Tick end = 0;
    Tick compute = 0;
    Tick dram_read_stall = 0;
    Tick dram_write_drain = 0;
    Tick buffer_swap_wait = 0;

    Tick span() const { return end - begin; }
    Tick
    total() const
    {
        return compute + dram_read_stall + dram_write_drain +
               buffer_swap_wait;
    }
};

/** Whole-run attribution: per-phase rows plus bucket totals. */
struct CycleAttribution
{
    std::vector<PhaseCycles> phases;
    Tick compute = 0;
    Tick dram_read_stall = 0;
    Tick dram_write_drain = 0;
    Tick buffer_swap_wait = 0;

    Tick
    totalCycles() const
    {
        return compute + dram_read_stall + dram_write_drain +
               buffer_swap_wait;
    }
};

/**
 * Classify every cycle of every phase window against activity spans
 * (an ActivityLog's, or any raw list).  Windows must be sorted and
 * non-overlapping (the simulator produces them tiling the run);
 * spans crossing a window boundary contribute to each window they
 * overlap.
 */
CycleAttribution attributeCycles(const std::vector<PhaseWindow> &windows,
                                 std::vector<ActivitySpan> spans);

/** Bins of the step-bucket occupancy histogram (log2 scale). */
inline constexpr int kOccupancyBins = 8;

/**
 * Histogram bin for a non-empty (column-step, row-band) bucket:
 * bin 0 holds occupancy 1, bin 1 holds 2-3, ... bin 7 holds >= 128.
 */
int occupancyBin(Idx count);

/** Per-component counters of one simulated run. */
struct ObsCounters
{
    /** Elements the eager CSR loader staged that the OS consumed. */
    Idx prefetch_hit_elems = 0;
    /** Elements the demand CSC loader had to fetch instead. */
    Idx prefetch_miss_elems = 0;
    /** Elements the prefetcher wanted but the buffer refused. */
    Idx prefetch_denied_elems = 0;
    /** Demand reload fetches that stalled the IS core. */
    Idx demand_reload_events = 0;
    /** Reloads hidden by the reload-ahead path. */
    Idx reload_ahead_events = 0;
    /** Non-empty (step, band) bucket occupancy histogram. */
    std::array<Idx, kOccupancyBins> bucket_occupancy = {};
    /**
     * Cancellation-token polls the engine performed: stage launches,
     * per-iteration checks, and the cycle-budget polls driven by
     * SparsepipeConfig::cancel_poll_cycles.  0 when no token is
     * attached, so equivalence tests comparing tokenless runs are
     * unaffected.  Excluded from the metrics-v1 dump (it measures
     * the harness, not the modelled hardware).
     */
    Idx cancel_polls = 0;
};

} // namespace sparsepipe::obs

#endif // SPARSEPIPE_OBS_ATTRIBUTION_HH
