/**
 * @file
 * Sub-tensor bucket decomposition of a sparse operand.
 *
 * The OEI pipeline advances in steps of T columns.  A non-zero
 * A(i, k) is loaded by the CSC loader at column-step k / T and
 * becomes consumable by the IS core once row-band i / T unlocks
 * (lag steps after the OS core produced that band's e-wise inputs).
 * All per-step loader / compute / buffer quantities reduce to the
 * counts b[col_step][row_band], which this structure precomputes in
 * one pass over the matrix.
 *
 * Buckets depend only on the sparsity pattern and T, so a pattern
 * that many runs share memoizes them (BucketMemo).
 */

#ifndef SPARSEPIPE_CORE_BUCKETS_HH
#define SPARSEPIPE_CORE_BUCKETS_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "obs/attribution.hh"
#include "sparse/csr.hh"

namespace sparsepipe {

/**
 * One contiguous run of non-zeros in a bucket: `cnt` elements at
 * band (or column-step) index `at`.  The span slabs below compress
 * the dense counts grid down to its occupied buckets so hot loops
 * touch only non-zero work.
 */
struct BucketSpan
{
    Idx at = 0;
    Idx cnt = 0;

    bool operator==(const BucketSpan &other) const = default;
};

/** Element counts bucketed by (column step, row band). */
class StepBuckets
{
  public:
    /**
     * Bucket a CSC operand: column steps follow storage columns
     * (the vxm OS traversal order).
     */
    static StepBuckets build(const CscMatrix &matrix, Idx t);

    /**
     * Bucket with roles swapped (SpMM: the OS core streams *rows*
     * of A and the IS core consumes its columns).
     */
    static StepBuckets buildTransposed(const CsrMatrix &matrix, Idx t);

    Idx t() const { return t_; }
    Idx steps() const { return steps_; }
    Idx bands() const { return bands_; }
    Idx nnz() const { return nnz_; }

    /** Elements the CSC loader fetches for column-step cs. */
    Idx colStepNnz(Idx cs) const
    {
        return col_step_nnz_[static_cast<std::size_t>(cs)];
    }

    /** Elements in (column-step cs, row-band rs). */
    Idx count(Idx cs, Idx rs) const
    {
        return colLoadedThrough(cs, rs) - colLoadedThrough(cs, rs - 1);
    }

    /** Total elements in row-band rs across all column steps. */
    Idx bandNnz(Idx rs) const
    {
        return band_nnz_[static_cast<std::size_t>(rs)];
    }

    /**
     * Elements of band rs in column steps <= cs (what is on chip
     * for that band once the OS frontier reaches cs, absent
     * eviction).  Walks the band's spans.
     */
    Idx bandLoadedThrough(Idx cs, Idx rs) const;

    /**
     * Elements of column-step cs in row bands <= rs.  This is the
     * engine's analytic shortcut: the arrivals into already-unlocked
     * bands at step cs are one prefix lookup instead of a band scan.
     * rs < 0 returns 0; rs >= bands clamps to the full step.
     */
    Idx colLoadedThrough(Idx cs, Idx rs) const;

    /**
     * Occupied buckets of column-step cs as (row band, count) spans
     * in ascending band order.  Iterating this visits exactly the
     * buckets the dense `count(cs, rs)` scan would find non-zero.
     */
    std::span<const BucketSpan> colSpans(Idx cs) const
    {
        const std::size_t lo =
            col_slab_ptr_[static_cast<std::size_t>(cs)];
        const std::size_t hi =
            col_slab_ptr_[static_cast<std::size_t>(cs) + 1];
        return {col_slab_.data() + lo, hi - lo};
    }

    /**
     * Occupied buckets of row-band rs as (column step, count) spans
     * in ascending column-step order.
     */
    std::span<const BucketSpan> bandSpans(Idx rs) const
    {
        const std::size_t lo =
            band_slab_ptr_[static_cast<std::size_t>(rs)];
        const std::size_t hi =
            band_slab_ptr_[static_cast<std::size_t>(rs) + 1];
        return {band_slab_.data() + lo, hi - lo};
    }

    /**
     * Histogram of the occupied buckets' counts over
     * obs::occupancyBin, counted once at build.
     */
    const std::array<Idx, obs::kOccupancyBins> &
    occupancy() const
    {
        return occupancy_;
    }

    /** Bytes the arrays hold. */
    std::uint64_t heldBytes() const;

    /**
     * Upper bound on heldBytes() of buckets of a `rows` x `cols`
     * pattern with `nnz` entries at width t, in either orientation.
     */
    static std::uint64_t boundBytes(Idx rows, Idx cols, Idx nnz, Idx t);

    bool operator==(const StepBuckets &other) const = default;

  private:
    /**
     * Build the span slabs from the counts grid that col_prefix_
     * holds on entry, then turn the grid into its prefix.
     */
    void finalizeDerived();

    std::size_t index(Idx cs, Idx rs) const
    {
        return static_cast<std::size_t>(cs) *
               static_cast<std::size_t>(bands_) +
               static_cast<std::size_t>(rs);
    }

    Idx t_ = 0;
    Idx steps_ = 0;
    Idx bands_ = 0;
    Idx nnz_ = 0;
    std::vector<Idx> col_step_nnz_;
    std::vector<Idx> band_nnz_;
    /**
     * Per-column-step prefix over row bands (unlock shortcut), the
     * one dense steps x bands grid.
     */
    std::vector<Idx> col_prefix_;
    /** Occupied buckets by column step (CSR-style slab). */
    std::vector<BucketSpan> col_slab_;
    std::vector<std::size_t> col_slab_ptr_;
    /** Occupied buckets by row band (CSC-style slab). */
    std::vector<BucketSpan> band_slab_;
    std::vector<std::size_t> band_slab_ptr_;
    std::array<Idx, obs::kOccupancyBins> occupancy_ = {};
};

/**
 * Residency sweep (paper Table I): peak and average number of
 * non-zeros that must sit on chip to run the OEI dataflow with the
 * given sub-tensor size and pipeline lag, assuming no eviction.
 */
struct ResidencyStats
{
    Idx max_resident = 0;
    double avg_resident = 0.0;
    double maxPercent(Idx nnz) const;
    double avgPercent(Idx nnz) const;
};

ResidencyStats residencySweep(const StepBuckets &buckets, Idx lag);

/**
 * Lookup counts of the BucketMemos that share it: a miss is a lookup
 * that built its entry, a hit one that found it, and an eviction an
 * entry a full memo dropped.
 */
struct BucketMemoCounters
{
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> evictions{0};
};

/**
 * Thread-safe memo of one sparsity pattern's StepBuckets, keyed by
 * (sub-tensor width, orientation).  It serves only matrices that read
 * the very pattern arrays it was made for, which it pins: any other
 * matrix (say, a copied case whose operand was replaced) gets freshly
 * built buckets, so an entry never describes another pattern.  It
 * holds up to kCapacity entries; the oldest goes once it is full.
 * Threads that miss on one key build once: the others wait for the
 * thread that builds.  A build that throws publishes nothing, and
 * the next lookup retries.  A copied memo serves the same pattern and starts
 * empty.
 */
class BucketMemo
{
  public:
    static constexpr std::size_t kCapacity = 4;

    /** Serves no pattern: every lookup builds. */
    BucketMemo() = default;
    /**
     * Serve matrices on `csr` (transposed buckets) or `csc` (CSC
     * buckets), the two forms of one pattern.  Lookups add to
     * `counters` when it is set.
     */
    BucketMemo(PatternPtr csr, PatternPtr csc,
               std::shared_ptr<BucketMemoCounters> counters = nullptr);
    BucketMemo(const BucketMemo &other);
    BucketMemo &operator=(const BucketMemo &) = delete;

    /** StepBuckets::build(csc, t), memoized on this memo's pattern. */
    std::shared_ptr<const StepBuckets> build(const CscMatrix &csc, Idx t);

    /** StepBuckets::buildTransposed(csr, t), likewise. */
    std::shared_ptr<const StepBuckets> buildTransposed(const CsrMatrix &csr,
                                                       Idx t);

    /** Bytes the built entries hold. */
    std::uint64_t heldBytes() const;

  private:
    struct Slot
    {
        std::once_flag once;
        std::shared_ptr<const StepBuckets> buckets;
        /** Set once `buckets` is built (read by heldBytes). */
        std::atomic<bool> built{false};
    };
    struct Entry
    {
        Idx t;
        bool transposed;
        std::shared_ptr<Slot> slot;
    };

    /** The entry of (t, transposed), built by `make` on a miss. */
    template <typename Make>
    std::shared_ptr<const StepBuckets> lookup(Idx t, bool transposed,
                                              Make make);

    PatternPtr csr_;
    PatternPtr csc_;
    std::shared_ptr<BucketMemoCounters> counters_;
    mutable std::mutex mu_;
    std::vector<Entry> entries_;
};

} // namespace sparsepipe

#endif // SPARSEPIPE_CORE_BUCKETS_HH
