#include "core/buckets.hh"

#include <algorithm>

#include "util/logging.hh"

namespace sparsepipe {

StepBuckets
StepBuckets::build(const CscMatrix &matrix, Idx t)
{
    if (t <= 0)
        sp_panic("StepBuckets: sub-tensor size must be positive");
    StepBuckets b;
    b.t_ = t;
    b.steps_ = (matrix.cols() + t - 1) / t;
    b.bands_ = (matrix.rows() + t - 1) / t;
    b.nnz_ = matrix.nnz();
    b.col_prefix_.assign(static_cast<std::size_t>(b.steps_) *
                         static_cast<std::size_t>(b.bands_), 0);
    b.col_step_nnz_.assign(static_cast<std::size_t>(b.steps_), 0);
    b.band_nnz_.assign(static_cast<std::size_t>(b.bands_), 0);

    for (Idx c = 0; c < matrix.cols(); ++c) {
        const Idx cs = c / t;
        for (Idx r : matrix.colRows(c)) {
            const Idx rs = r / t;
            ++b.col_prefix_[b.index(cs, rs)];
            ++b.col_step_nnz_[static_cast<std::size_t>(cs)];
            ++b.band_nnz_[static_cast<std::size_t>(rs)];
        }
    }
    b.finalizeDerived();
    return b;
}

StepBuckets
StepBuckets::buildTransposed(const CsrMatrix &matrix, Idx t)
{
    if (t <= 0)
        sp_panic("StepBuckets: sub-tensor size must be positive");
    StepBuckets b;
    b.t_ = t;
    b.steps_ = (matrix.rows() + t - 1) / t;
    b.bands_ = (matrix.cols() + t - 1) / t;
    b.nnz_ = matrix.nnz();
    b.col_prefix_.assign(static_cast<std::size_t>(b.steps_) *
                         static_cast<std::size_t>(b.bands_), 0);
    b.col_step_nnz_.assign(static_cast<std::size_t>(b.steps_), 0);
    b.band_nnz_.assign(static_cast<std::size_t>(b.bands_), 0);

    for (Idx r = 0; r < matrix.rows(); ++r) {
        const Idx cs = r / t;
        for (Idx c : matrix.rowCols(r)) {
            const Idx rs = c / t;
            ++b.col_prefix_[b.index(cs, rs)];
            ++b.col_step_nnz_[static_cast<std::size_t>(cs)];
            ++b.band_nnz_[static_cast<std::size_t>(rs)];
        }
    }
    b.finalizeDerived();
    return b;
}

void
StepBuckets::finalizeDerived()
{
    // col_prefix_ holds the dense counts grid here.  Compress its
    // occupied buckets into CSR/CSC-style span slabs so the pass
    // engine iterates only non-zero work.  Both slabs list spans in
    // ascending index order, the order the engine's binary searches
    // rely on.
    std::size_t occupied = 0;
    for (const Idx cnt : col_prefix_)
        occupied += cnt > 0;

    col_slab_.clear();
    col_slab_.reserve(occupied);
    col_slab_ptr_.assign(static_cast<std::size_t>(steps_) + 1, 0);
    for (Idx cs = 0; cs < steps_; ++cs) {
        for (Idx rs = 0; rs < bands_; ++rs) {
            const Idx cnt = col_prefix_[index(cs, rs)];
            if (cnt > 0)
                col_slab_.push_back({rs, cnt});
        }
        col_slab_ptr_[static_cast<std::size_t>(cs) + 1] =
            col_slab_.size();
    }
    occupancy_ = {};
    for (const BucketSpan &sp : col_slab_)
        ++occupancy_[static_cast<std::size_t>(obs::occupancyBin(sp.cnt))];

    // The band slab is the column slab transposed: count each band's
    // spans, then scatter in column-step order.
    band_slab_.resize(occupied);
    band_slab_ptr_.assign(static_cast<std::size_t>(bands_) + 1, 0);
    for (const BucketSpan &sp : col_slab_)
        ++band_slab_ptr_[static_cast<std::size_t>(sp.at) + 1];
    for (std::size_t i = 1; i < band_slab_ptr_.size(); ++i)
        band_slab_ptr_[i] += band_slab_ptr_[i - 1];
    std::vector<std::size_t> cursor(band_slab_ptr_.begin(),
                                    band_slab_ptr_.end() - 1);
    for (Idx cs = 0; cs < steps_; ++cs) {
        for (const BucketSpan &sp : colSpans(cs))
            band_slab_[cursor[static_cast<std::size_t>(sp.at)]++] = {
                cs, sp.cnt};
    }

    // Per-column-step prefix over row bands, in place.
    for (Idx cs = 0; cs < steps_; ++cs) {
        Idx run = 0;
        for (Idx rs = 0; rs < bands_; ++rs) {
            run += col_prefix_[index(cs, rs)];
            col_prefix_[index(cs, rs)] = run;
        }
    }
}

Idx
StepBuckets::bandLoadedThrough(Idx cs, Idx rs) const
{
    Idx loaded = 0;
    for (const BucketSpan &sp : bandSpans(rs)) {
        if (sp.at > cs)
            break;
        loaded += sp.cnt;
    }
    return loaded;
}

Idx
StepBuckets::colLoadedThrough(Idx cs, Idx rs) const
{
    if (rs < 0)
        return 0;
    rs = std::min(rs, bands_ - 1);
    return col_prefix_[index(cs, rs)];
}

std::uint64_t
StepBuckets::heldBytes() const
{
    return (col_step_nnz_.capacity() + band_nnz_.capacity() +
            col_prefix_.capacity()) * sizeof(Idx) +
           (col_slab_.capacity() + band_slab_.capacity()) *
               sizeof(BucketSpan) +
           (col_slab_ptr_.capacity() + band_slab_ptr_.capacity()) *
               sizeof(std::size_t);
}

std::uint64_t
StepBuckets::boundBytes(Idx rows, Idx cols, Idx nnz, Idx t)
{
    const auto steps = static_cast<std::uint64_t>((cols + t - 1) / t);
    const auto bands = static_cast<std::uint64_t>((rows + t - 1) / t);
    // Transposed buckets swap steps and bands, which leaves every
    // term below unchanged.
    const std::uint64_t cells = steps * bands;
    const std::uint64_t spans =
        std::min(cells, static_cast<std::uint64_t>(nnz));
    return (steps + bands + cells) * sizeof(Idx) +
           2 * spans * sizeof(BucketSpan) +
           (steps + bands + 2) * sizeof(std::size_t);
}

double
ResidencyStats::maxPercent(Idx nnz) const
{
    if (nnz == 0)
        return 0.0;
    return 100.0 * static_cast<double>(max_resident) /
           static_cast<double>(nnz);
}

double
ResidencyStats::avgPercent(Idx nnz) const
{
    if (nnz == 0)
        return 0.0;
    return 100.0 * avg_resident / static_cast<double>(nnz);
}

ResidencyStats
residencySweep(const StepBuckets &buckets, Idx lag)
{
    ResidencyStats stats;
    double sum = 0.0;
    const Idx steps = buckets.steps();
    const Idx bands = buckets.bands();
    // Per-band elements loaded through the current column step.
    std::vector<Idx> loaded(static_cast<std::size_t>(bands), 0);
    for (Idx j = 0; j < steps; ++j) {
        for (const BucketSpan &sp : buckets.colSpans(j))
            loaded[static_cast<std::size_t>(sp.at)] += sp.cnt;
        // Elements loaded through step j whose row band has not yet
        // unlocked (rs > j - lag).
        Idx resident = 0;
        const Idx unlocked = j - lag;
        for (Idx rs = std::max<Idx>(0, unlocked + 1); rs < bands; ++rs)
            resident += loaded[static_cast<std::size_t>(rs)];
        stats.max_resident = std::max(stats.max_resident, resident);
        sum += static_cast<double>(resident);
    }
    stats.avg_resident = steps > 0
        ? sum / static_cast<double>(steps) : 0.0;
    return stats;
}

BucketMemo::BucketMemo(PatternPtr csr, PatternPtr csc,
                       std::shared_ptr<BucketMemoCounters> counters)
    : csr_(std::move(csr)), csc_(std::move(csc)),
      counters_(std::move(counters))
{
}

BucketMemo::BucketMemo(const BucketMemo &other)
    : csr_(other.csr_), csc_(other.csc_), counters_(other.counters_)
{
}

template <typename Make>
std::shared_ptr<const StepBuckets>
BucketMemo::lookup(Idx t, bool transposed, Make make)
{
    std::shared_ptr<Slot> slot;
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (const Entry &e : entries_) {
            if (e.t == t && e.transposed == transposed) {
                slot = e.slot;
                break;
            }
        }
        if (!slot) {
            if (entries_.size() == kCapacity) {
                // A holder of the dropped slot keeps its buckets.
                entries_.erase(entries_.begin());
                if (counters_)
                    counters_->evictions.fetch_add(
                        1, std::memory_order_relaxed);
            }
            slot = std::make_shared<Slot>();
            entries_.push_back({t, transposed, slot});
        }
    }
    bool built_here = false;
    std::call_once(slot->once, [&] {
        slot->buckets = std::make_shared<const StepBuckets>(make());
        slot->built.store(true, std::memory_order_release);
        built_here = true;
    });
    if (counters_)
        (built_here ? counters_->misses : counters_->hits)
            .fetch_add(1, std::memory_order_relaxed);
    return slot->buckets;
}

std::shared_ptr<const StepBuckets>
BucketMemo::build(const CscMatrix &csc, Idx t)
{
    if (csc.pattern() != csc_)
        return std::make_shared<const StepBuckets>(
            StepBuckets::build(csc, t));
    return lookup(t, false, [&] { return StepBuckets::build(csc, t); });
}

std::shared_ptr<const StepBuckets>
BucketMemo::buildTransposed(const CsrMatrix &csr, Idx t)
{
    if (csr.pattern() != csr_)
        return std::make_shared<const StepBuckets>(
            StepBuckets::buildTransposed(csr, t));
    return lookup(t, true,
                  [&] { return StepBuckets::buildTransposed(csr, t); });
}

std::uint64_t
BucketMemo::heldBytes() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::uint64_t bytes = 0;
    for (const Entry &e : entries_)
        if (e.slot->built.load(std::memory_order_acquire))
            bytes += e.slot->buckets->heldBytes();
    return bytes;
}

} // namespace sparsepipe
