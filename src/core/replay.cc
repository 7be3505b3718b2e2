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
        if (write) {
            alog_.record(obs::Activity::WriteTransfer, start, finish);
        } else {
            alog_.record(obs::Activity::ReadTransfer, start, finish);
            alog_.record(obs::Activity::ReadWait, finish, avail);
        }
        if (recording_ && recording_->steady)
            recording_->dram.push_back({start, bytes, write});
        if (trace_)
            trace_->complete(write ? "write" : "read", "dram",
                             obs::TraceTrack::Dram, start, finish,
                             {{"bytes", static_cast<double>(bytes)}});
    });
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
    rec.compute.clear();
    rec.windows.clear();
    rec.steady = true;
    recording_ = &rec;
}

void
StageTimeline::endRecord(Tick t)
{
    recording_->end = t;
    alog_.append(recording_->compute.spans());
    recording_ = nullptr;
}

Tick
StageTimeline::replay(const StretchRecord &rec, Tick t, CyclePoller &poll)
{
    // The DRAM pipe is busy rec.dram_lead past t as it was past
    // rec.start, so each call gets the start it got in the record,
    // shifted: the calls come back in order, in the same state.
    const Tick shift = t - rec.start;
    for (const StretchRecord::DramCall &call : rec.dram) {
        poll.through(call.start + shift);
        dram_.access(call.start + shift, call.bytes, call.write);
    }
    for (const obs::ActivitySpan &s : rec.compute.spans())
        alog_.record(s.kind, s.begin + shift, s.end + shift);
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
    stats.attribution = obs::attributeCycles(windows_, alog_.spans());
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
