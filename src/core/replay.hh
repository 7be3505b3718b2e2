/**
 * @file
 * Record and replay of a timing stage's steady state, shared by the
 * cycle engines.
 *
 * A timing stage advances through stretches of simulated time: a
 * Sparsepipe pass, a Gamma iteration.  What a stretch does depends
 * only on the engine's own start state and on the DRAM lead, the
 * ticks the pipe stays busy past its start (DramModel's one piece of
 * state that changes timing).  So a stretch that starts in the state
 * a recorded one started in is that record shifted in time.  The
 * engine decides which state it compares; StageTimeline records a
 * stretch's DRAM calls, activity spans and phase windows and replays
 * them: it applies each call's ledger arithmetic again, in call
 * order, so the ledger and any trace events are the simulated ones,
 * and appends the spans and windows shifted.
 */

#ifndef SPARSEPIPE_CORE_REPLAY_HH
#define SPARSEPIPE_CORE_REPLAY_HH

#include <algorithm>
#include <vector>

#include "mem/dram.hh"
#include "obs/attribution.hh"
#include "util/status.hh"

namespace sparsepipe {

struct SimStats;

namespace obs {
class TraceSink;
} // namespace obs

/**
 * Cancellation polls on simulated time: pollNow() at most once per
 * `stride` ticks, so a deadline is seen within a fixed cycle budget
 * however far apart the engine's own events are.
 */
class CyclePoller
{
  public:
    /** Polls `token` (null: never), counting each poll in `polls`. */
    CyclePoller(const CancelToken *token, Tick stride, Idx &polls)
        : token_(token), stride_(std::max<Tick>(1, stride)),
          polls_(polls)
    {
    }

    /** Poll if `now` reached the next poll tick; the one after falls
     *  a stride past `now`. */
    void
    at(Tick now)
    {
        if (token_ && now >= next_) {
            poll();
            next_ = now + stride_;
        }
    }

    /** Poll once per stride of simulated time up to `tick`. */
    void
    through(Tick tick)
    {
        for (; token_ && next_ <= tick; next_ += stride_)
            poll();
    }

    /**
     * The cheap latched check (one relaxed load), counted as a poll:
     * for sites as frequent as a pass's stage launches, where
     * pollNow()'s clock read would cost too much.
     */
    void
    check()
    {
        if (token_) {
            ++polls_;
            throwIfError(token_->check());
        }
    }

  private:
    void
    poll()
    {
        ++polls_;
        throwIfError(token_->pollNow());
    }

    const CancelToken *token_;
    Tick stride_;
    Tick next_ = 0;
    Idx &polls_;
};

/**
 * One recorded stretch, in the run's ticks.  Records are reused: a
 * new recording keeps the capacity of the last.
 */
struct StretchRecord
{
    struct DramCall
    {
        Tick start; ///< the pipe-occupancy start the call got
        Idx bytes;
        bool write;
    };

    Tick start = 0;
    Tick end = 0;
    /** Ticks the DRAM pipe stayed busy past `start`. */
    Tick dram_lead = 0;
    std::vector<DramCall> dram;
    /**
     * The stretch's activity spans: its DRAM spans as the access hook
     * folded them, and the compute spans the engine records here
     * while recording.  Normalized when the recording ends, so
     * that it joins the run's spans in order of begin.
     */
    obs::ActivityLog activity;
    std::vector<obs::PhaseWindow> windows;
    /**
     * The stretch can repeat.  Set when recording begins; an engine
     * clears it once the stretch did something that cannot happen
     * twice, which also stops recording its DRAM calls.
     */
    bool steady = false;

    /** A complete record a stretch starting with `lead` repeats, once
     *  the engine's own state matches too. */
    bool
    repeatsWith(Tick lead) const
    {
        return steady && lead == dram_lead;
    }
};

/**
 * The activity spans and phase windows of one timing stage, which
 * cycle attribution reads, fed by the DramModel's access hook and by
 * the engine.  It installs the hook, so it neither copies nor moves.
 */
class StageTimeline
{
  public:
    /**
     * Observe every access of `dram` and, when `trace` is set, emit a
     * trace event for each, replayed ones included.  Both must
     * outlive the timeline.
     */
    StageTimeline(DramModel &dram, obs::TraceSink *trace);
    StageTimeline(const StageTimeline &) = delete;
    StageTimeline &operator=(const StageTimeline &) = delete;

    obs::ActivityLog &activity() { return alog_; }

    /** Append the next window; windows tile the run in order. */
    void pushWindow(obs::PhaseKind kind, Tick begin, Tick end);

    /** Ticks the DRAM pipe stays busy past `t`. */
    Tick
    dramLead(Tick t) const
    {
        return dram_.nextFree() > t ? dram_.nextFree() - t : 0;
    }

    /**
     * Record the stretch starting at `t` into `rec`: until endRecord()
     * the DRAM calls (while `rec.steady`), the DRAM spans and the
     * windows pushed go to it, the windows as well as to the run.
     * `rec` must outlive the recording.
     */
    void beginRecord(StretchRecord &rec, Tick t);

    /** The recorded stretch ends at `t`: its activity spans are
     *  normalized (obs::ActivityLog::normalize) and join the run's. */
    void endRecord(Tick t);

    /**
     * Repeat `rec` shifted to start at `t`: apply its DRAM calls to the
     * ledger again in order (DramModel::occupy, no hook), tracing each
     * when a sink is attached, then append its activity spans and
     * windows shifted.  Polls at each call and at the end until `poll`
     * caught up with the tick.
     * @return the end tick of the repeated stretch
     */
    Tick replay(const StretchRecord &rec, Tick t, CyclePoller &poll);

    /**
     * Close the run at `t`: drain posted writes in a final window, then
     * fill `stats`' cycles, DRAM aggregates, bandwidth timeline (of
     * `timeline_samples` samples) and attribution, and trace each
     * phase.
     */
    void finish(Tick t, Idx timeline_samples, SimStats &stats);

  private:
    /** Emit the trace event of one DRAM call (needs a sink). */
    void traceDram(Tick start, Tick finish, Idx bytes, bool write);

    DramModel &dram_;
    obs::TraceSink *trace_;
    obs::ActivityLog alog_;
    std::vector<obs::PhaseWindow> windows_;
    StretchRecord *recording_ = nullptr;
};

} // namespace sparsepipe

#endif // SPARSEPIPE_CORE_REPLAY_HH
