#include "obs/attribution.hh"

#include <algorithm>

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

/** +1/-1 sweep edge over one activity class. */
struct Edge
{
    Tick at;
    int kind;  ///< index into the Activity enum
    int delta; ///< +1 opens a span, -1 closes it
};

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
                std::vector<ActivitySpan> spans)
{
    CycleAttribution attr;
    attr.phases.reserve(windows.size());

    // Spans are recorded in roughly increasing order but ReadWait
    // tails start in the future; sort once so each window can scan a
    // contiguous range.
    std::sort(spans.begin(), spans.end(),
              [](const ActivitySpan &a, const ActivitySpan &b) {
                  return a.begin < b.begin;
              });

    std::size_t lo = 0; // first span that may still reach a window
    for (const PhaseWindow &w : windows) {
        PhaseCycles phase;
        phase.kind = w.kind;
        phase.index = w.index;
        phase.begin = w.begin;
        phase.end = w.end;

        // Spans end before this window never matter again (windows
        // are sorted); advance lo past spans wholly before w.begin.
        while (lo < spans.size() && spans[lo].end <= w.begin &&
               spans[lo].begin <= w.begin)
            ++lo;

        std::vector<Edge> edges;
        for (std::size_t i = lo; i < spans.size(); ++i) {
            const ActivitySpan &s = spans[i];
            if (s.begin >= w.end)
                break;
            const Tick b = std::max(s.begin, w.begin);
            const Tick e = std::min(s.end, w.end);
            if (e <= b)
                continue;
            edges.push_back({b, static_cast<int>(s.kind), +1});
            edges.push_back({e, static_cast<int>(s.kind), -1});
        }
        std::sort(edges.begin(), edges.end(),
                  [](const Edge &a, const Edge &b) {
                      return a.at < b.at;
                  });

        int open[4] = {0, 0, 0, 0};
        Tick cursor = w.begin;
        std::size_t e = 0;
        while (cursor < w.end) {
            while (e < edges.size() && edges[e].at == cursor) {
                open[edges[e].kind] += edges[e].delta;
                ++e;
            }
            const Tick next =
                e < edges.size() ? std::min(edges[e].at, w.end)
                                 : w.end;
            charge(phase, open, next - cursor);
            cursor = next;
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
