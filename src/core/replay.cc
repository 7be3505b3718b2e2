#include "core/replay.hh"

#include <string>

#include "core/sparsepipe_sim.hh"
#include "obs/trace.hh"

namespace sparsepipe {

StageTimeline::StageTimeline(DramModel &dram, obs::TraceSink *trace)
    : dram_(dram), trace_(trace)
{
    dram_.setAccessHook([this](Tick start, Tick finish, Tick avail,
                               Idx bytes, bool write) {
        obs::ActivityLog &log = recording_ ? recording_->activity : alog_;
        if (write) {
            log.record(obs::Activity::WriteTransfer, start, finish);
        } else {
            log.record(obs::Activity::ReadTransfer, start, finish);
            log.record(obs::Activity::ReadWait, finish, avail);
        }
        if (recording_ && recording_->steady)
            recording_->dram.push_back({start, bytes, write});
        if (trace_)
            traceDram(start, finish, bytes, write);
    });
}

void
StageTimeline::traceDram(Tick start, Tick finish, Idx bytes, bool write)
{
    trace_->complete(write ? "write" : "read", "dram",
                     obs::TraceTrack::Dram, start, finish,
                     {{"bytes", static_cast<double>(bytes)}});
}

void
StageTimeline::pushWindow(obs::PhaseKind kind, Tick begin, Tick end)
{
    const obs::PhaseWindow w{kind, static_cast<Idx>(windows_.size()),
                             begin, end};
    windows_.push_back(w);
    if (recording_)
        recording_->windows.push_back(w);
}

void
StageTimeline::beginRecord(StretchRecord &rec, Tick t)
{
    rec.start = t;
    rec.dram_lead = dramLead(t);
    rec.dram.clear();
    rec.activity.clear();
    rec.windows.clear();
    rec.steady = true;
    recording_ = &rec;
}

void
StageTimeline::endRecord(Tick t)
{
    recording_->end = t;
    recording_->activity.normalize();
    alog_.append(recording_->activity);
    recording_ = nullptr;
}

Tick
StageTimeline::replay(const StretchRecord &rec, Tick t, CyclePoller &poll)
{
    // The DRAM pipe is busy rec.dram_lead past t as it was past
    // rec.start, so access() would give each call the start it got in
    // the record, shifted, and the same spans: the calls come back in
    // order, in the same state.  So the ledger takes them at those
    // starts, and the run takes the spans the hook folded then.
    const Tick shift = t - rec.start;
    for (const StretchRecord::DramCall &call : rec.dram) {
        const Tick start = call.start + shift;
        poll.through(start);
        const Tick finish = dram_.occupy(start, call.bytes, call.write);
        if (trace_)
            traceDram(start, finish, call.bytes, call.write);
    }
    alog_.append(rec.activity, shift);
    for (const obs::PhaseWindow &w : rec.windows)
        pushWindow(w.kind, w.begin + shift, w.end + shift);
    const Tick end = rec.end + shift;
    poll.through(end);
    return end;
}

void
StageTimeline::finish(Tick t, Idx timeline_samples, SimStats &stats)
{
    const Tick drained = std::max(t, dram_.nextFree());
    if (drained > t)
        pushWindow(obs::PhaseKind::WriteDrain, t, drained);
    stats.cycles = drained;
    stats.dram_read_bytes = dram_.bytesRead();
    stats.dram_write_bytes = dram_.bytesWritten();
    stats.bw_utilization = dram_.utilization(std::max<Tick>(drained, 1));
    stats.bw_timeline = dram_.utilizationSeries(
        std::max<Tick>(drained, 1),
        static_cast<std::size_t>(std::max<Idx>(1, timeline_samples)));
    stats.attribution = obs::attributeCycles(windows_, alog_);
    if (!trace_)
        return;
    for (const obs::PhaseCycles &ph : stats.attribution.phases) {
        trace_->complete(
            std::string(obs::phaseKindName(ph.kind)) + " #" +
                std::to_string(ph.index),
            "phase", obs::TraceTrack::Phases, ph.begin, ph.end,
            {{"compute", static_cast<double>(ph.compute)},
             {"dram_read_stall", static_cast<double>(ph.dram_read_stall)},
             {"dram_write_drain",
              static_cast<double>(ph.dram_write_drain)},
             {"buffer_swap_wait",
              static_cast<double>(ph.buffer_swap_wait)}});
    }
}

} // namespace sparsepipe
