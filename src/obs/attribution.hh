/**
 * @file
 * Cycle and stall attribution for the Sparsepipe simulator.
 *
 * The simulator's timeline is a sequence of *phases* (fused OEI
 * passes, stream passes, element-wise iterations, the final posted
 * write drain) that tile [0, SimStats::cycles] with no gaps.  During
 * a run, the engine and the DRAM model record typed *activity spans*
 * (compute busy, read transfer, read-data wait, write transfer) into
 * an ActivityLog, one folded list per kind; attributeCycles() then
 * walks each kind's union across the phase windows in order, in time
 * linear in spans and windows, and classifies every cycle into
 * exactly one bucket by priority:
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
 * invariant and asserted in obs_test).  Ticks may take any 64-bit
 * value: the sweep packs no edges into words.
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
 * only the union of each kind's spans.  So the log keeps one list per
 * kind, and record() folds a span into the last span of its kind when
 * the two overlap or touch: the per-kind unions, and with them
 * attributeCycles(), stay exactly as if every span were kept, while a
 * run that records one span per row or per DRAM access keeps a
 * handful.
 *
 * attributeCycles() needs each kind's list only in order of begin,
 * overlaps allowed.  Spans that arrive in that order keep it, since a
 * fold then never moves the last span's begin back.  A span that lies
 * wholly before the last one, or a fold that reaches back past the
 * begin of the span before, breaks it; attributeCycles() then sorts a
 * copy of that kind, and normalize() sorts and folds it in place.
 */
class ActivityLog
{
  public:
    /** One span of a kind's list (half-open [begin, end)). */
    struct Span
    {
        Tick begin = 0;
        Tick end = 0;
    };

    /** Record a span; zero/negative-length spans are dropped. */
    void
    record(Activity kind, Tick begin, Tick end)
    {
        if (end <= begin)
            return;
        std::vector<Span> &spans = kinds_[static_cast<std::size_t>(kind)];
        if (!spans.empty()) {
            Span &last = spans.back();
            if (begin <= last.end && end >= last.begin) {
                last.begin = std::min(last.begin, begin);
                last.end = std::max(last.end, end);
                return;
            }
        }
        spans.push_back({begin, end});
    }

    /** Record every span of a flat list, in order. */
    void append(const std::vector<ActivitySpan> &spans);

    /** Record every span of `other`, each `shift` ticks later. */
    void append(const ActivityLog &other, Tick shift = 0);

    /** Sort and fold every kind whose spans are out of order of
     *  begin: it becomes its union, disjoint spans in order. */
    void normalize();

    /** Drop every span, keeping the capacity. */
    void
    clear()
    {
        for (std::vector<Span> &spans : kinds_)
            spans.clear();
    }

    /** The spans of one kind, folded as recorded. */
    const std::vector<Span> &
    spans(Activity kind) const
    {
        return kinds_[static_cast<std::size_t>(kind)];
    }

    /** Spans kept over all kinds. */
    std::size_t
    size() const
    {
        std::size_t n = 0;
        for (const std::vector<Span> &spans : kinds_)
            n += spans.size();
        return n;
    }

  private:
    std::array<std::vector<Span>, 4> kinds_;
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
 * Classify every cycle of every phase window against an activity log.
 * Windows must be sorted and non-overlapping (the simulator produces
 * them tiling the run); spans crossing a window boundary contribute
 * to each window they overlap.  A cycle's bucket depends only on
 * which kinds' unions cover it, so one cursor per kind walks that
 * kind's list across the windows in order: O(spans + windows), after
 * sorting a copy of any kind whose spans are out of order of begin.
 */
CycleAttribution attributeCycles(const std::vector<PhaseWindow> &windows,
                                 const ActivityLog &log);

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
    /**
     * Stretches the timing stage replayed from a recorded one instead
     * of simulating (core/replay.hh): passes on Sparsepipe (one per
     * fused pass, one per stream pass), iterations on gamma.
     * Excluded from the metrics-v1 dump, like cancel_polls: it
     * measures the simulator, not the modelled hardware.
     */
    Idx replayed_iterations = 0;
};

} // namespace sparsepipe::obs

#endif // SPARSEPIPE_OBS_ATTRIBUTION_HH
