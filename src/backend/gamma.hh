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
 *  - a PE manager assigns each nonempty row to the least-loaded PE
 *    group (32 PEs per group, pe_per_core / 32 groups), charging
 *    ceil(row_nnz / group_pes) multiply cycles plus the reduction
 *    tree latency.
 *
 * Functional execution is deliberately the reference interpreter
 * run operator-at-a-time in program order, so the backend's values
 * are bit-identical to RefExecutor — the property the differential
 * fuzzer pins on every case.  Timing uses the same ActivityLog /
 * PhaseWindow / DramModel-hook machinery as SparsepipeSim, so the
 * per-phase cycle attribution reconciles exactly with the cycle
 * count and Chrome traces come for free.
 */

#ifndef SPARSEPIPE_BACKEND_GAMMA_HH
#define SPARSEPIPE_BACKEND_GAMMA_HH

#include <unordered_set>
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
 * nonzero stream; an access touches the 64-byte lines its byte
 * range covers.  The replacement state is exact (true LRU per set),
 * the contents are not modelled — only presence matters.
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

    /** Touch every line overlapping [byte_begin, byte_end). */
    Access access(Idx byte_begin, Idx byte_end);

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

    Idx line_bytes_;
    Idx ways_;
    Idx sets_;
    std::vector<Line> lines_; ///< sets_ * ways_, set-major
    std::unordered_set<Idx> seen_;
    std::uint64_t clock_ = 0;
    FiberCacheStats stats_;
};

/**
 * The Gamma-style cycle engine.  Same run contract as SparsepipeSim
 * (see core/sparsepipe_sim.hh): the workspace ends value-identical
 * to a RefExecutor run, cancellation unwinds via SpError, traces
 * are emitted per phase and per DRAM transaction when attached.
 */
class GammaSim final : public CycleEngine
{
  public:
    explicit GammaSim(SparsepipeConfig config)
        : config_(std::move(config)) {}

    ValueSemantics valueSemantics() const override
    {
        return ValueSemantics::Reference;
    }
    /** RefExecutor::run verbatim, so values match it bit for bit. */
    RunResult runFunctional(Workspace &ws, Idx max_iters) override;
    SimStats runTiming(const Program &program,
                       const OperandPatterns &operands,
                       const RunResult &outcome, Idx max_iters) override;
    void attachTrace(obs::TraceSink *sink) override { trace_ = sink; }
    void setCancelToken(const CancelToken *token) override
    {
        cancel_ = token;
    }

    /** Fiber-cache ledger of the most recent timing stage. */
    const FiberCacheStats &fiberCacheStats() const
    {
        return fiber_stats_;
    }

    const SparsepipeConfig &config() const { return config_; }

  private:
    SparsepipeConfig config_;
    obs::TraceSink *trace_ = nullptr;
    const CancelToken *cancel_ = nullptr;
    FiberCacheStats fiber_stats_;
};

} // namespace sparsepipe::backend

#endif // SPARSEPIPE_BACKEND_GAMMA_HH
