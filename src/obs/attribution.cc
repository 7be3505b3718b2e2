#include "obs/attribution.hh"

#include <algorithm>
#include <cstdint>

#include "util/logging.hh"

namespace sparsepipe::obs {

void
ActivityLog::append(const std::vector<ActivitySpan> &spans)
{
    for (const ActivitySpan &s : spans)
        record(s.kind, s.begin, s.end);
}

const char *
phaseKindName(PhaseKind kind)
{
    switch (kind) {
      case PhaseKind::FusedPass:      return "fused-pass";
      case PhaseKind::StreamPass:     return "stream-pass";
      case PhaseKind::EwiseIteration: return "ewise-iteration";
      case PhaseKind::WriteDrain:     return "write-drain";
    }
    return "?";
}

namespace {

/**
 * A sweep edge packed in one word: the tick, then the activity kind
 * and whether a span opens there in the low bits, so sorting the words
 * sorts the edges by tick.
 */
constexpr int kEdgeTagBits = 3;

std::uint64_t
packEdge(Tick at, Activity kind, bool opens)
{
    return (at << kEdgeTagBits) |
           (static_cast<std::uint64_t>(kind) << 1) | (opens ? 1 : 0);
}

Tick edgeTick(std::uint64_t edge) { return edge >> kEdgeTagBits; }

/**
 * Classify one elementary segment given the number of open spans of
 * each activity class, by stall-attribution priority.
 */
void
charge(PhaseCycles &out, const int (&open)[4], Tick cycles)
{
    if (open[static_cast<int>(Activity::Compute)] > 0)
        out.compute += cycles;
    else if (open[static_cast<int>(Activity::ReadWait)] > 0 ||
             open[static_cast<int>(Activity::ReadTransfer)] > 0)
        out.dram_read_stall += cycles;
    else if (open[static_cast<int>(Activity::WriteTransfer)] > 0)
        out.dram_write_drain += cycles;
    else
        out.buffer_swap_wait += cycles;
}

} // anonymous namespace

CycleAttribution
attributeCycles(const std::vector<PhaseWindow> &windows,
                const std::vector<ActivitySpan> &spans)
{
    CycleAttribution attr;
    attr.phases.reserve(windows.size());

    // One sweep over every span's edges.  Windows come in order and do
    // not overlap, so the open counts at a tick inside a window are
    // the same whether spans are clipped to the window or not.
    std::vector<std::uint64_t> edges;
    edges.reserve(2 * spans.size());
    for (const ActivitySpan &s : spans) {
        if (s.end <= s.begin)
            continue;
        if (s.end >> (64 - kEdgeTagBits))
            sp_panic("attributeCycles: tick %llu out of range",
                     static_cast<unsigned long long>(s.end));
        edges.push_back(packEdge(s.begin, s.kind, true));
        edges.push_back(packEdge(s.end, s.kind, false));
    }
    std::sort(edges.begin(), edges.end());

    int open[4] = {0, 0, 0, 0};
    std::size_t e = 0;
    auto openThrough = [&](Tick tick) {
        for (; e < edges.size() && edgeTick(edges[e]) <= tick; ++e)
            open[(edges[e] >> 1) & 3] += (edges[e] & 1) ? 1 : -1;
    };
    for (const PhaseWindow &w : windows) {
        PhaseCycles phase;
        phase.kind = w.kind;
        phase.index = w.index;
        phase.begin = w.begin;
        phase.end = w.end;

        openThrough(w.begin);
        for (Tick cursor = w.begin; cursor < w.end;) {
            const Tick next = e < edges.size()
                ? std::min(edgeTick(edges[e]), w.end)
                : w.end;
            charge(phase, open, next - cursor);
            cursor = next;
            openThrough(cursor);
        }

        attr.compute += phase.compute;
        attr.dram_read_stall += phase.dram_read_stall;
        attr.dram_write_drain += phase.dram_write_drain;
        attr.buffer_swap_wait += phase.buffer_swap_wait;
        attr.phases.push_back(phase);
    }
    return attr;
}

int
occupancyBin(Idx count)
{
    int bin = 0;
    while (count > 1 && bin < kOccupancyBins - 1) {
        count >>= 1;
        ++bin;
    }
    return bin;
}

} // namespace sparsepipe::obs
