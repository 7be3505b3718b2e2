/**
 * @file
 * DRAM model.
 *
 * A bandwidth/latency pipe with per-window utilization accounting,
 * modelling the GDDR6X (and DDR4, for the iso-CPU configuration)
 * memory systems of Table II.  STA applications are bandwidth bound,
 * so the model serializes requests through the pin bandwidth and
 * adds the access latency; the per-window busy-byte ledger produces
 * the utilization timelines of Figures 15, 21, and 22.
 */

#ifndef SPARSEPIPE_MEM_DRAM_HH
#define SPARSEPIPE_MEM_DRAM_HH

#include <functional>
#include <string>
#include <vector>

#include "sparse/types.hh"

namespace sparsepipe {

/** Memory configuration (paper Table II). */
struct DramConfig
{
    double bandwidth_gb_s = 504.0;
    double read_latency_ns = 12.0;
    double write_latency_ns = 5.0;
    /** Accelerator core clock; ticks are cycles of this clock. */
    double clock_ghz = 1.0;
    std::string tech = "GDDR6X";

    /** GDDR6X device memory: 504 GB/s, 12/5 ns (Table II). */
    static DramConfig gddr6x();
    /** Dual-channel DDR4: 40 GB/s, 13.75/12.5 ns (Table II). */
    static DramConfig ddr4();

    /** Peak bytes transferred per core cycle. */
    double bytesPerCycle() const
    {
        return bandwidth_gb_s / clock_ghz;
    }
    Tick readLatencyCycles() const
    {
        return static_cast<Tick>(read_latency_ns * clock_ghz + 0.5);
    }
    Tick writeLatencyCycles() const
    {
        return static_cast<Tick>(write_latency_ns * clock_ghz + 0.5);
    }
};

/**
 * Bandwidth pipe with utilization ledger.  Requests are served in
 * call order (the caller is responsible for issuing demand traffic
 * before opportunistic traffic within a step, mirroring the CSC /
 * e-wise loaders' priority over the CSR loader).
 */
class DramModel
{
  public:
    /**
     * Observer of every non-empty access: pin occupancy is
     * [start, finish), the data is available/durable at `avail`.
     * Keeps the model free of any dependency on the observability
     * layer; unset hooks cost one test per access.
     */
    using AccessHook = std::function<void(
        Tick start, Tick finish, Tick avail, Idx bytes, bool write)>;

    /**
     * @param config         memory configuration
     * @param window_cycles  granularity of the utilization ledger
     */
    explicit DramModel(DramConfig config, Tick window_cycles = 2048);

    void setAccessHook(AccessHook hook) { hook_ = std::move(hook); }

    /**
     * Serve a request.
     * @param now    earliest start tick
     * @param bytes  transfer size
     * @param write  true for writes (write latency applies)
     * @return tick at which the data is available / durable
     */
    Tick access(Tick now, Idx bytes, bool write);

    /**
     * Occupy the pins with a non-empty transfer from `start` on, with
     * no latency and no hook: the ledger, the byte counters and
     * nextFree() move, nothing else.  access() is this at
     * max(now, nextFree()) plus the hook.  A replayed stretch
     * (core/replay.hh) applies its recorded calls with it, at the
     * starts they got and in call order: the ledger is floating
     * point, so only the same calls in the same order give its bits.
     * Panics on an empty transfer or a start before nextFree(): a
     * replay out of step with the pins fails instead of overlapping
     * transfers in the ledger.
     * @return tick at which the transfer leaves the pins
     */
    Tick occupy(Tick start, Idx bytes, bool write);

    /**
     * Bytes of pin bandwidth left idle between max(now, nextFree())
     * and `deadline` — the budget the opportunistic CSR loader may
     * claim without delaying demand traffic.
     */
    Idx idleBytesBefore(Tick now, Tick deadline) const;

    /** Tick at which the pipe next becomes idle. */
    Tick nextFree() const { return next_free_; }

    Idx bytesRead() const { return bytes_read_; }
    Idx bytesWritten() const { return bytes_written_; }
    Idx bytesTotal() const { return bytes_read_ + bytes_written_; }

    /**
     * Mean bandwidth utilization over [0, end_tick).
     */
    double utilization(Tick end_tick) const;

    /**
     * Utilization in `buckets` equal slices of [0, end_tick) — the
     * 25-sample (4%) timelines of Figure 15.  Ledger windows are
     * averaged over the part of the window inside [0, end_tick), so
     * runs shorter than one window keep their true utilization
     * instead of being flattened by the unused window tail.
     */
    std::vector<double> utilizationSeries(Tick end_tick,
                                          std::size_t buckets) const;

    const DramConfig &config() const { return config_; }

  private:
    void recordBusy(Tick start, Tick finish, Idx bytes);

    DramConfig config_;
    Tick window_cycles_;
    AccessHook hook_;
    Tick next_free_ = 0;
    Idx bytes_read_ = 0;
    Idx bytes_written_ = 0;
    /** Busy bytes per ledger window. */
    std::vector<double> window_busy_;
};

} // namespace sparsepipe

#endif // SPARSEPIPE_MEM_DRAM_HH
