/**
 * @file
 * Gamma-style backend: a row-wise sparse dataflow with a
 * set-associative fiber cache and PE-manager row scheduling.
 *
 * Gamma (Zhang et al., ASPLOS'21) streams one CSR row ("fiber") at a
 * time through a group of processing elements and captures the
 * operand's temporal reuse in an on-chip fiber cache instead of
 * restructuring the schedule the way Sparsepipe's OEI dataflow does.
 * The model here keeps that architectural contrast and nothing more:
 *
 *  - every leading matrix op runs as one row-wise pass per
 *    iteration (no inter-operator fusion, no cross-iteration pass
 *    pairing), so vector traffic follows the *unfused* profile;
 *  - the sparse operand is addressed through a set-associative,
 *    LRU, 64-byte-line fiber cache sized by
 *    SparsepipeConfig::buffer_bytes; a hit costs the SRAM scatter
 *    latency, a miss fetches the missing lines through the shared
 *    DramModel (so reads contend with vector traffic on the pin
 *    bandwidth exactly like the Sparsepipe engine's);
 *  - a PE manager assigns each nonempty row to the PE group that
 *    frees first (32 PEs per group, pe_per_core / 32 groups; the
 *    lowest index on a tie), charging ceil(row_nnz / group_pes)
 *    multiply cycles plus the reduction tree latency.
 *
 * The backend models timing only: its functional stage is every
 * engine's (CycleEngine::runFunctional), so its values are
 * bit-identical to RefExecutor, the property the differential fuzzer
 * pins on every case, and a case's outcome is shared with the
 * Sparsepipe engine.  Timing uses the same ActivityLog / PhaseWindow
 * / DramModel-hook machinery as SparsepipeSim, so the per-phase
 * cycle attribution reconciles exactly with the cycle count and
 * Chrome traces come for free.
 */

#ifndef SPARSEPIPE_BACKEND_GAMMA_HH
#define SPARSEPIPE_BACKEND_GAMMA_HH

#include <cstdint>
#include <vector>

#include "backend/backend.hh"
#include "core/config.hh"
#include "core/sparsepipe_sim.hh"

namespace sparsepipe::backend {

/** Hit / miss / eviction ledger of one FiberCache lifetime. */
struct FiberCacheStats
{
    Idx hit_lines = 0;
    Idx miss_lines = 0;
    /** Misses on never-before-seen lines (compulsory). */
    Idx cold_lines = 0;
    Idx evictions = 0;
};

/**
 * Set-associative LRU cache over the byte stream of a sparse
 * operand.  Fibers (CSR rows) live at their byte offsets in the
 * nonzero stream; an access touches the lines its byte range covers.
 * The replacement state is exact (true LRU per set), the contents
 * are not modelled — only presence matters.
 */
class FiberCache
{
  public:
    /**
     * @param capacity_bytes  total data capacity (>= one line)
     * @param ways            associativity
     * @param line_bytes      line size (power of two not required)
     */
    explicit FiberCache(Idx capacity_bytes, Idx ways = 8,
                        Idx line_bytes = 64);

    /** Outcome of one fiber access. */
    struct Access
    {
        Idx hit_lines = 0;
        Idx miss_lines = 0;
        /** Of the misses, lines touched for the first time ever. */
        Idx cold_lines = 0;
    };

    /** Touch every line overlapping [byte_begin, byte_end); the
     *  addresses are non-negative. */
    Access access(Idx byte_begin, Idx byte_end);

    /**
     * The replacement state: set by set, the resident line addresses
     * from least to most recently used.  Two caches with equal orders
     * hit, miss and evict alike on any access stream; which way a
     * line sits in does not matter.  O(lines) to build.
     */
    std::vector<Idx> recencyOrder() const;

    const FiberCacheStats &stats() const { return stats_; }
    Idx lineBytes() const { return line_bytes_; }
    Idx sets() const { return sets_; }
    Idx ways() const { return ways_; }

  private:
    struct Line
    {
        Idx tag = -1; ///< full line address; -1 = invalid
        std::uint64_t last_use = 0;
    };

    /** Record a miss on line `addr`; true when it is the first ever. */
    bool firstMiss(Idx addr);

    Idx line_bytes_;
    Idx ways_;
    Idx sets_;
    std::vector<Line> lines_; ///< sets_ * ways_, set-major
    /** One bit per line address, set by the line's first miss. */
    std::vector<std::uint64_t> seen_;
    /**
     * Slot in lines_ of the line touched last: consecutive fibers
     * share their boundary line, and nothing can have evicted it
     * since.  A line lives in at most one slot, so a slot holding the
     * address is a hit whichever slot it is.
     */
    std::size_t mru_ = 0;
    std::uint64_t clock_ = 0;
    FiberCacheStats stats_;
};

/**
 * The PE manager's pick: of `groups` PE groups, the one that frees
 * first, the lowest index on a tie (the first minimum of a scan).  A
 * winner tree over the groups' free ticks makes a pick O(1) and an
 * assignment O(log groups).
 */
class PeGroupTree
{
  public:
    /** @param groups  group count (>= 1), every group free at `start` */
    PeGroupTree(Idx groups, Tick start);

    /** Make every group free at `start` again. */
    void reset(Tick start);

    /** The group that frees first; the lowest index on a tie. */
    Idx earliest() const { return static_cast<Idx>(winner_[1]); }
    Tick freeAt(Idx group) const
    {
        return free_[static_cast<std::size_t>(group)];
    }
    /** Group `group` is busy until `tick`. */
    void assign(Idx group, Tick tick);
    /** When the last group frees. */
    Tick latest() const;

  private:
    /** Replay node `node`'s match; its left child, holding the lower
     *  indices, wins a tie. */
    void
    play(std::size_t node)
    {
        const std::size_t left = winner_[2 * node];
        const std::size_t right = winner_[2 * node + 1];
        winner_[node] = free_[right] < free_[left] ? right : left;
    }

    std::size_t groups_;
    /** A power of two >= groups_; the padding leaves never free. */
    std::size_t leaves_;
    std::vector<Tick> free_;
    /** Node i's winner; leaf leaves_ + g is group g. */
    std::vector<std::size_t> winner_;
};

/**
 * The Gamma-style cycle engine.  Same run contract as SparsepipeSim
 * (see core/sparsepipe_sim.hh): cancellation unwinds via SpError,
 * traces are emitted per phase and per DRAM transaction when
 * attached.
 *
 * The timing stage simulates the row loop until it reaches a steady
 * state, then replays it through the helper it shares with
 * SparsepipeSim (core/replay.hh).  Each simulated iteration is
 * recorded from its start tick, with its counter deltas.  An operand
 * fixes the fiber accesses of an iteration, so an iteration that
 * starts in the recorded one's fiber-cache recency order and DRAM
 * lead (the ticks the pipe stays busy past the iteration's start)
 * repeats it shifted in time, provided the recorded one fetched no
 * line for the first time.  From that iteration on every iteration
 * is the record replayed and its deltas added.  The record holds one
 * iteration's DRAM calls at most.  ObsCounters::replayed_iterations
 * counts the replayed iterations; every other output but
 * cancel_polls is bit-identical to simulating each iteration.
 */
class GammaSim final : public CycleEngine
{
  public:
    using CycleEngine::CycleEngine;

    SimStats runTiming(const Program &program,
                       const OperandPatterns &operands,
                       const RunResult &outcome, Idx max_iters) override;

    /** Fiber-cache ledger of the most recent timing stage. */
    const FiberCacheStats &fiberCacheStats() const
    {
        return fiber_stats_;
    }

  private:
    FiberCacheStats fiber_stats_;
};

} // namespace sparsepipe::backend

#endif // SPARSEPIPE_BACKEND_GAMMA_HH
