/**
 * @file
 * Sparsepipe hardware configuration.
 *
 * Defaults follow Section V of the paper scaled to the synthetic
 * stand-in datasets: the paper simulates 1024 PEs per compute core
 * and a 64 MB buffer against matrices up to 1.3 GB; the stand-ins
 * are ~100x smaller, so the default buffer is scaled to 1 MB to
 * preserve the buffer-to-footprint ratios that drive the eviction
 * behaviour (see DESIGN.md).
 */

#ifndef SPARSEPIPE_CORE_CONFIG_HH
#define SPARSEPIPE_CORE_CONFIG_HH

#include "mem/dram.hh"
#include "sparse/types.hh"

namespace sparsepipe {

/**
 * Adder-tree / scatter-network fixed latencies (cycles), charged by
 * the Sparsepipe pass engine and the gamma backend alike.
 */
inline constexpr Tick kOsTreeLatency = 10;
inline constexpr Tick kIsScatterLatency = 6;

/** Top-level Sparsepipe configuration. */
struct SparsepipeConfig
{
    /** PEs in each of the OS, E-Wise, and IS cores. */
    Idx pe_per_core = 1024;

    /** On-chip buffer capacity (dual sparse storage + staging). */
    Idx buffer_bytes = 3 << 19; // 1.5 MB

    /**
     * Effective storage bytes per non-zero.  12 for the naive dual
     * storage (8 B value + 4 B coordinate); the blocked UOP-CP-CP
     * layout reduces this (set it from BlockedLayout).
     */
    double bytes_per_nz = 12.0;

    /** Enable the eager / opportunistic CSR loader (Fig. 9). */
    bool eager_csr = true;

    /**
     * Columns per sub-tensor step; 0 chooses automatically so a
     * pass has roughly 512 steps.
     */
    Idx sub_tensor_cols = 0;

    /**
     * Pipeline depth between the OS stage and the IS stage in
     * steps: e-wise outputs for step j unlock IS work at j + lag.
     */
    Idx lag = 2;

    /** Memory system (Table II; iso-CPU uses ddr4()). */
    DramConfig dram = DramConfig::gddr6x();

    /**
     * Samples in SimStats::bw_timeline (Fig. 15 uses 25 = 4% of the
     * run per sample).  Values below 1 are clamped to 1.
     */
    Idx bw_timeline_samples = 25;

    /**
     * Packed-SIMD lane width for the functional semiring kernels.
     * 0 picks the preferred width (packed::preferredLanes, 4 on every
     * backend); 1 forces the scalar element path; 2..8 are explicit
     * widths.
     * Pure implementation strategy: results and SimStats are
     * bit-identical for every width.
     */
    Idx lanes = 0;

    /**
     * Worker threads stepping independent column bands of one
     * functional pass concurrently (per-band slabs, merged in fixed
     * band order).  1 runs serial; values > 1 spawn a per-run band
     * pool.  Deliberately not auto-scaled: batch sweeps already
     * saturate the machine across simulations, so band threads are
     * for latency-sensitive single runs.  Bit-identical for every
     * count.
     */
    int band_threads = 1;

    /**
     * Cancellation poll budget in simulated cycles: an attached
     * CancelToken is guaranteed a poll at least once every this many
     * cycles of simulated time (on top of the per-stage-launch and
     * per-iteration checks), so an expired deadline aborts the run
     * within a bounded — and configurable — cycle budget.  Every
     * poll is counted in SimStats::counters.cancel_polls; values
     * below 1 are clamped to 1.  Purely an abort-latency knob: a
     * run that is never cancelled produces identical stats for
     * every value.
     */
    Idx cancel_poll_cycles = 4096;

    /** @return iso-GPU configuration (the paper's default). */
    static SparsepipeConfig isoGpu()
    {
        return SparsepipeConfig{};
    }

    /** @return iso-CPU configuration (40 GB/s DDR4). */
    static SparsepipeConfig isoCpu()
    {
        SparsepipeConfig cfg;
        cfg.dram = DramConfig::ddr4();
        return cfg;
    }

    /**
     * Resolve the sub-tensor size for an operand with `cols`
     * columns and (optionally) `nnz` stored elements.  Aims for
     * enough steps to pipeline well but enough work per step to
     * amortize per-step control overhead; nnz = 0 falls back to a
     * column-count heuristic.
     */
    Idx resolveSubTensor(Idx cols, Idx nnz = 0) const;

    /**
     * Whole bytes one stored non-zero occupies: bytes_per_nz rounded
     * up, and at least 1.  A blocked layout of an empty operand
     * reports 0 bytes per non-zero; the clamp keeps that a valid
     * buffer element size.  Every engine sizes its buffer through
     * this.
     */
    Idx bytesPerElem() const;

    /**
     * Buffer capacity in non-zero elements, matching how the
     * simulator sizes its DualBufferModel (bytesPerElem()).
     */
    Idx bufferCapacityElems() const;
};

} // namespace sparsepipe

#endif // SPARSEPIPE_CORE_CONFIG_HH
