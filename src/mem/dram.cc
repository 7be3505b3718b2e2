#include "mem/dram.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace sparsepipe {

DramConfig
DramConfig::gddr6x()
{
    DramConfig cfg;
    cfg.bandwidth_gb_s = 504.0;
    cfg.read_latency_ns = 12.0;
    cfg.write_latency_ns = 5.0;
    cfg.tech = "GDDR6X";
    return cfg;
}

DramConfig
DramConfig::ddr4()
{
    DramConfig cfg;
    cfg.bandwidth_gb_s = 40.0;
    cfg.read_latency_ns = 13.75;
    cfg.write_latency_ns = 12.5;
    cfg.tech = "DDR4";
    return cfg;
}

DramModel::DramModel(DramConfig config, Tick window_cycles)
    : config_(std::move(config)), window_cycles_(window_cycles)
{
    if (config_.bandwidth_gb_s <= 0.0)
        sp_panic("DramModel: non-positive bandwidth");
    if (window_cycles_ == 0)
        sp_panic("DramModel: zero ledger window");
}

Tick
DramModel::access(Tick now, Idx bytes, bool write)
{
    if (bytes < 0)
        sp_panic("DramModel::access: negative size");
    if (bytes == 0)
        return now;

    const Tick start = std::max(now, next_free_);
    const Tick finish = occupy(start, bytes, write);
    const Tick avail =
        finish + (write ? config_.writeLatencyCycles()
                        : config_.readLatencyCycles());
    if (hook_)
        hook_(start, finish, avail, bytes, write);
    return avail;
}

Tick
DramModel::occupy(Tick start, Idx bytes, bool write)
{
    if (bytes <= 0)
        sp_panic("DramModel::occupy: empty transfer");
    if (start < next_free_)
        sp_panic("DramModel::occupy: start before the pins are free");
    const double cycles =
        static_cast<double>(bytes) / config_.bytesPerCycle();
    const Tick finish =
        start + std::max<Tick>(1, static_cast<Tick>(std::ceil(cycles)));
    next_free_ = finish;

    recordBusy(start, finish, bytes);
    if (write)
        bytes_written_ += bytes;
    else
        bytes_read_ += bytes;
    return finish;
}

Idx
DramModel::idleBytesBefore(Tick now, Tick deadline) const
{
    const Tick start = std::max(now, next_free_);
    if (deadline <= start)
        return 0;
    const double bytes =
        static_cast<double>(deadline - start) * config_.bytesPerCycle();
    return static_cast<Idx>(bytes);
}

void
DramModel::recordBusy(Tick start, Tick finish, Idx bytes)
{
    // Spread the transferred bytes across ledger windows in
    // proportion to the time overlap.
    const Tick span = finish - start;
    const std::size_t last_window =
        static_cast<std::size_t>(finish / window_cycles_);
    if (window_busy_.size() <= last_window)
        window_busy_.resize(last_window + 1, 0.0);

    for (Tick w = start / window_cycles_;
         w <= finish / window_cycles_; ++w) {
        const Tick w_start = w * window_cycles_;
        const Tick w_end = w_start + window_cycles_;
        const Tick ov_start = std::max(start, w_start);
        const Tick ov_end = std::min(finish, w_end);
        if (ov_end <= ov_start)
            continue;
        const double frac = static_cast<double>(ov_end - ov_start) /
                            static_cast<double>(span);
        window_busy_[static_cast<std::size_t>(w)] +=
            frac * static_cast<double>(bytes);
    }
}

double
DramModel::utilization(Tick end_tick) const
{
    if (end_tick == 0)
        return 0.0;
    const double capacity =
        static_cast<double>(end_tick) * config_.bytesPerCycle();
    return static_cast<double>(bytesTotal()) / capacity;
}

std::vector<double>
DramModel::utilizationSeries(Tick end_tick, std::size_t buckets) const
{
    std::vector<double> out(buckets, 0.0);
    if (end_tick == 0 || buckets == 0)
        return out;

    const double bucket_ticks =
        static_cast<double>(end_tick) / static_cast<double>(buckets);
    const double bucket_capacity =
        bucket_ticks * config_.bytesPerCycle();

    for (std::size_t w = 0; w < window_busy_.size(); ++w) {
        const double w_start =
            static_cast<double>(w) * static_cast<double>(window_cycles_);
        const double w_end =
            w_start + static_cast<double>(window_cycles_);
        // Bytes were recorded against the whole ledger window, but a
        // run may end inside it; average over the covered extent so
        // short runs are not diluted by the unused window tail.
        const double w_extent =
            std::min(w_end, static_cast<double>(end_tick)) - w_start;
        if (w_extent <= 0.0)
            continue;
        // Distribute this window's bytes over overlapping buckets.
        std::size_t b_lo = static_cast<std::size_t>(w_start /
                                                    bucket_ticks);
        std::size_t b_hi = static_cast<std::size_t>(w_end /
                                                    bucket_ticks);
        b_hi = std::min(b_hi, buckets - 1);
        for (std::size_t b = std::min(b_lo, buckets - 1);
             b <= b_hi; ++b) {
            const double b_start =
                static_cast<double>(b) * bucket_ticks;
            const double b_end = b_start + bucket_ticks;
            const double ov =
                std::max(0.0, std::min(w_end, b_end) -
                              std::max(w_start, b_start));
            if (ov <= 0.0)
                continue;
            out[b] += window_busy_[w] * ov / w_extent;
        }
    }
    for (double &v : out)
        v = std::min(1.0, v / bucket_capacity);
    return out;
}

} // namespace sparsepipe
