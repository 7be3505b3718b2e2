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
    b.counts_.assign(static_cast<std::size_t>(b.steps_) *
                     static_cast<std::size_t>(b.bands_), 0);
    b.col_step_nnz_.assign(static_cast<std::size_t>(b.steps_), 0);
    b.band_nnz_.assign(static_cast<std::size_t>(b.bands_), 0);

    for (Idx c = 0; c < matrix.cols(); ++c) {
        const Idx cs = c / t;
        for (Idx r : matrix.colRows(c)) {
            const Idx rs = r / t;
            ++b.counts_[b.index(cs, rs)];
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
    b.counts_.assign(static_cast<std::size_t>(b.steps_) *
                     static_cast<std::size_t>(b.bands_), 0);
    b.col_step_nnz_.assign(static_cast<std::size_t>(b.steps_), 0);
    b.band_nnz_.assign(static_cast<std::size_t>(b.bands_), 0);

    for (Idx r = 0; r < matrix.rows(); ++r) {
        const Idx cs = r / t;
        for (Idx c : matrix.rowCols(r)) {
            const Idx rs = c / t;
            ++b.counts_[b.index(cs, rs)];
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
    // Per-band prefix over column steps: band_prefix_[cs][rs] =
    // sum_{cs' <= cs} counts[cs'][rs], laid out like counts_; the
    // twin col_prefix_ runs the other way (over row bands within a
    // column step) for the engine's unlocked-arrival shortcut.
    band_prefix_.assign(counts_.size(), 0);
    col_prefix_.assign(counts_.size(), 0);
    for (Idx cs = 0; cs < steps_; ++cs) {
        Idx run = 0;
        for (Idx rs = 0; rs < bands_; ++rs) {
            const Idx cnt = counts_[index(cs, rs)];
            const Idx prev =
                cs > 0 ? band_prefix_[index(cs - 1, rs)] : 0;
            band_prefix_[index(cs, rs)] = prev + cnt;
            run += cnt;
            col_prefix_[index(cs, rs)] = run;
        }
    }

    // Compress the occupied buckets into CSR/CSC-style span slabs so
    // the pass engine iterates only non-zero work.  Both slabs list
    // spans in ascending index order, the order the engine's binary
    // searches rely on.
    std::size_t occupied = 0;
    for (const Idx cnt : counts_)
        occupied += cnt > 0;

    col_slab_.clear();
    col_slab_.reserve(occupied);
    col_slab_ptr_.assign(static_cast<std::size_t>(steps_) + 1, 0);
    for (Idx cs = 0; cs < steps_; ++cs) {
        for (Idx rs = 0; rs < bands_; ++rs) {
            const Idx cnt = counts_[index(cs, rs)];
            if (cnt > 0)
                col_slab_.push_back({rs, cnt});
        }
        col_slab_ptr_[static_cast<std::size_t>(cs) + 1] =
            col_slab_.size();
    }

    band_slab_.clear();
    band_slab_.reserve(occupied);
    band_slab_ptr_.assign(static_cast<std::size_t>(bands_) + 1, 0);
    for (Idx rs = 0; rs < bands_; ++rs) {
        for (Idx cs = 0; cs < steps_; ++cs) {
            const Idx cnt = counts_[index(cs, rs)];
            if (cnt > 0)
                band_slab_.push_back({cs, cnt});
        }
        band_slab_ptr_[static_cast<std::size_t>(rs) + 1] =
            band_slab_.size();
    }
}

Idx
StepBuckets::bandLoadedThrough(Idx cs, Idx rs) const
{
    if (cs < 0)
        return 0;
    cs = std::min(cs, steps_ - 1);
    return band_prefix_[index(cs, rs)];
}

Idx
StepBuckets::colLoadedThrough(Idx cs, Idx rs) const
{
    if (rs < 0)
        return 0;
    rs = std::min(rs, bands_ - 1);
    return col_prefix_[index(cs, rs)];
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
    for (Idx j = 0; j < steps; ++j) {
        // Elements loaded through step j whose row band has not yet
        // unlocked (rs > j - lag).
        Idx resident = 0;
        const Idx unlocked = j - lag;
        for (Idx rs = std::max<Idx>(0, unlocked + 1); rs < bands; ++rs)
            resident += buckets.bandLoadedThrough(j, rs);
        stats.max_resident = std::max(stats.max_resident, resident);
        sum += static_cast<double>(resident);
    }
    stats.avg_resident = steps > 0
        ? sum / static_cast<double>(steps) : 0.0;
    return stats;
}

} // namespace sparsepipe
