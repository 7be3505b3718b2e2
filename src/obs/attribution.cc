#include "obs/attribution.hh"

#include <algorithm>
#include <iterator>
#include <utility>

namespace sparsepipe::obs {

void
ActivityLog::append(const std::vector<ActivitySpan> &spans)
{
    for (const ActivitySpan &s : spans)
        record(s.kind, s.begin, s.end);
}

void
ActivityLog::append(const ActivityLog &other, Tick shift)
{
    for (std::size_t k = 0; k < kinds_.size(); ++k) {
        const Activity kind = static_cast<Activity>(k);
        for (const Span &s : other.kinds_[k])
            record(kind, s.begin + shift, s.end + shift);
    }
}

namespace {

bool
beginsBefore(const ActivityLog::Span &a, const ActivityLog::Span &b)
{
    return a.begin < b.begin;
}

/** Whether `spans` are in order of begin, which the walk needs. */
bool
inBeginOrder(const std::vector<ActivityLog::Span> &spans)
{
    return std::is_sorted(spans.begin(), spans.end(), beginsBefore);
}

/** Sort `spans` and fold the ones that overlap or touch: their union,
 *  as disjoint spans in order. */
void
sortAndFold(std::vector<ActivityLog::Span> &spans)
{
    std::sort(spans.begin(), spans.end(), beginsBefore);
    std::size_t kept = 0;
    for (const ActivityLog::Span &s : spans) {
        if (kept > 0 && s.begin <= spans[kept - 1].end)
            spans[kept - 1].end = std::max(spans[kept - 1].end, s.end);
        else
            spans[kept++] = s;
    }
    spans.resize(kept);
}

} // anonymous namespace

void
ActivityLog::normalize()
{
    for (std::vector<Span> &spans : kinds_)
        if (!inBeginOrder(spans))
            sortAndFold(spans);
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

/** A cursor over one kind's spans, in order of begin. */
struct Layer
{
    const ActivityLog::Span *at;
    const ActivityLog::Span *stop;
    Tick PhaseCycles::*bucket;
};

/**
 * The kinds by stall-attribution priority, each with the bucket its
 * cycles go to.  A cycle goes to the first kind whose union covers
 * it, so the two read kinds together charge their union.
 */
constexpr std::pair<Activity, Tick PhaseCycles::*> kLayers[] = {
    {Activity::Compute, &PhaseCycles::compute},
    {Activity::ReadTransfer, &PhaseCycles::dram_read_stall},
    {Activity::ReadWait, &PhaseCycles::dram_read_stall},
    {Activity::WriteTransfer, &PhaseCycles::dram_write_drain},
};
constexpr std::size_t kLayerCount = std::size(kLayers);

/**
 * Charge [from, to) to layer `i` where its union covers it, and the
 * gaps to the layers after it; buffer_swap_wait takes what no layer
 * covers.  Calls for one layer come in time order, so its cursor only
 * moves forward: every span behind it ends at or before `from`, and
 * every span ahead begins no earlier than the one under it, so spans
 * that overlap need no folding.
 */
void
charge(std::array<Layer, kLayerCount> &layers, std::size_t i,
       PhaseCycles &out, Tick from, Tick to)
{
    if (i == kLayerCount) {
        out.buffer_swap_wait += to - from;
        return;
    }
    Layer &layer = layers[i];
    while (from < to) {
        while (layer.at != layer.stop && layer.at->end <= from)
            ++layer.at;
        if (layer.at == layer.stop || layer.at->begin >= to)
            break;
        if (layer.at->begin > from) {
            charge(layers, i + 1, out, from, layer.at->begin);
            from = layer.at->begin;
        }
        const Tick covered = std::min(layer.at->end, to);
        out.*layer.bucket += covered - from;
        from = covered;
    }
    if (from < to)
        charge(layers, i + 1, out, from, to);
}

} // anonymous namespace

CycleAttribution
attributeCycles(const std::vector<PhaseWindow> &windows,
                const ActivityLog &log)
{
    CycleAttribution attr;
    attr.phases.reserve(windows.size());

    // A cycle's bucket depends only on which kinds' unions cover it,
    // so each kind keeps one cursor over its spans in order of begin:
    // the log's own list when it is in that order, a sorted and folded
    // copy when it is not.  Windows come in order and do not overlap,
    // so no cursor ever moves back.
    std::array<std::vector<ActivityLog::Span>, kLayerCount> sorted;
    std::array<Layer, kLayerCount> layers;
    for (std::size_t i = 0; i < kLayerCount; ++i) {
        const auto [kind, bucket] = kLayers[i];
        const std::vector<ActivityLog::Span> *spans = &log.spans(kind);
        if (!inBeginOrder(*spans)) {
            sorted[i] = *spans;
            sortAndFold(sorted[i]);
            spans = &sorted[i];
        }
        layers[i] = {spans->data(), spans->data() + spans->size(), bucket};
    }

    for (const PhaseWindow &w : windows) {
        PhaseCycles phase;
        phase.kind = w.kind;
        phase.index = w.index;
        phase.begin = w.begin;
        phase.end = w.end;
        charge(layers, 0, phase, w.begin, w.end);

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
