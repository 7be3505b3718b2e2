#include "backend/gamma.hh"

#include <algorithm>
#include <bit>
#include <limits>
#include <map>
#include <numeric>

#include "core/replay.hh"
#include "graph/analysis.hh"
#include "mem/dram.hh"
#include "obs/attribution.hh"
#include "util/logging.hh"

namespace sparsepipe::backend {

FiberCache::FiberCache(Idx capacity_bytes, Idx ways, Idx line_bytes)
    : line_bytes_(std::max<Idx>(1, line_bytes)),
      ways_(std::max<Idx>(1, ways))
{
    const Idx lines =
        std::max<Idx>(ways_, capacity_bytes / line_bytes_);
    sets_ = std::max<Idx>(1, lines / ways_);
    lines_.assign(static_cast<std::size_t>(sets_ * ways_), Line{});
}

bool
FiberCache::firstMiss(Idx addr)
{
    const std::size_t word = static_cast<std::size_t>(addr) / 64;
    if (word >= seen_.size())
        seen_.resize(std::max(word + 1, 2 * seen_.size()));
    const std::uint64_t bit = std::uint64_t{1} << (addr % 64);
    const bool first = (seen_[word] & bit) == 0;
    seen_[word] |= bit;
    return first;
}

FiberCache::Access
FiberCache::access(Idx byte_begin, Idx byte_end)
{
    Access out;
    if (byte_end <= byte_begin)
        return out;
    const Idx first = byte_begin / line_bytes_;
    const Idx last = (byte_end - 1) / line_bytes_;
    // Line addr maps to set addr % sets_, so consecutive lines walk
    // the sets in order.
    Idx set_index = first % sets_;
    for (Idx addr = first; addr <= last; ++addr) {
        ++clock_;
        Line *set = lines_.data() + set_index * ways_;
        if (++set_index == sets_)
            set_index = 0;
        if (Line &mru = lines_[mru_]; mru.tag == addr) {
            mru.last_use = clock_;
            ++out.hit_lines;
            continue;
        }
        Line *hit = nullptr;
        Line *victim = set;
        for (Idx w = 0; w < ways_; ++w) {
            if (set[w].tag == addr) {
                hit = &set[w];
                break;
            }
            // Invalid ways (tag -1, last_use 0) lose to any resident
            // line, so fills prefer empty ways over eviction.
            if (set[w].last_use < victim->last_use)
                victim = &set[w];
        }
        if (hit) {
            hit->last_use = clock_;
            ++out.hit_lines;
            mru_ = static_cast<std::size_t>(hit - lines_.data());
            continue;
        }
        ++out.miss_lines;
        if (firstMiss(addr))
            ++out.cold_lines;
        if (victim->tag >= 0)
            ++stats_.evictions;
        victim->tag = addr;
        victim->last_use = clock_;
        mru_ = static_cast<std::size_t>(victim - lines_.data());
    }
    stats_.hit_lines += out.hit_lines;
    stats_.miss_lines += out.miss_lines;
    stats_.cold_lines += out.cold_lines;
    return out;
}

std::vector<Idx>
FiberCache::recencyOrder() const
{
    // A line address maps to one set, so the sets' lists concatenated
    // in set order still tell the sets apart.
    std::vector<Idx> order;
    std::vector<Line> set_lines;
    for (Idx s = 0; s < sets_; ++s) {
        const Line *set = lines_.data() + s * ways_;
        set_lines.clear();
        for (Idx w = 0; w < ways_; ++w)
            if (set[w].tag >= 0)
                set_lines.push_back(set[w]);
        std::sort(set_lines.begin(), set_lines.end(),
                  [](const Line &a, const Line &b) {
                      return a.last_use < b.last_use;
                  });
        for (const Line &line : set_lines)
            order.push_back(line.tag);
    }
    return order;
}

PeGroupTree::PeGroupTree(Idx groups, Tick start)
    : groups_(static_cast<std::size_t>(std::max<Idx>(1, groups))),
      leaves_(std::bit_ceil(groups_)),
      free_(leaves_, std::numeric_limits<Tick>::max()),
      winner_(2 * leaves_)
{
    std::iota(winner_.begin() + static_cast<std::ptrdiff_t>(leaves_),
              winner_.end(), std::size_t{0});
    reset(start);
}

void
PeGroupTree::reset(Tick start)
{
    std::fill_n(free_.begin(), groups_, start);
    for (std::size_t node = leaves_ - 1; node >= 1; --node)
        play(node);
}

void
PeGroupTree::assign(Idx group, Tick tick)
{
    const std::size_t leaf = static_cast<std::size_t>(group);
    free_[leaf] = tick;
    for (std::size_t node = (leaves_ + leaf) / 2; node >= 1; node /= 2)
        play(node);
}

Tick
PeGroupTree::latest() const
{
    return *std::max_element(
        free_.begin(),
        free_.begin() + static_cast<std::ptrdiff_t>(groups_));
}

namespace {

/** One leading matrix op the row-wise schedule must cover. */
struct RowPass
{
    TensorId matrix = invalid_tensor;
    bool spmm = false;
    /** Byte offset of the operand in the fiber-cache address space. */
    Idx base_bytes = 0;
};

} // anonymous namespace

SimStats
GammaSim::runTiming(const Program &p, const OperandPatterns &operands,
                    const RunResult &outcome, Idx /*max_iters*/)
{
    const Analysis an = analyzeProgram(p);

    SimStats stats;
    stats.mode = ScheduleMode::Stream; // no OEI scheduling decision
    stats.iterations = outcome.iterations;
    stats.converged = outcome.converged;

    DramModel dram(config_.dram);
    StageTimeline timeline(dram, trace_);

    // Row-wise execution has no inter-operator pipeline, so every
    // operator pays its full operand traffic: the *unfused* profile.
    const double vec_read_bytes =
        static_cast<double>(an.traffic.vector_reads_unfused) *
        value_bytes;
    const double vec_write_bytes =
        static_cast<double>(an.traffic.vector_writes_unfused) *
        value_bytes;
    const double ewise_work =
        static_cast<double>(an.traffic.ewise_ops) +
        static_cast<double>(an.traffic.reduction_elems) +
        static_cast<double>(an.traffic.mm_flops);
    const double pe = static_cast<double>(
        std::max<Idx>(1, config_.pe_per_core));

    // --- pure element-wise programs: no matrix, no fiber cache ------
    if (an.leading_ops.empty()) {
        Tick t = 0;
        for (Idx it = 0; it < outcome.iterations; ++it) {
            // Iteration boundary: cold, so the unlatched pollNow()
            // sees an expired deadline immediately.
            if (cancel_) {
                ++stats.counters.cancel_polls;
                throwIfError(cancel_->pollNow());
            }
            const Tick t0 = t;
            const Idx bytes =
                static_cast<Idx>(vec_read_bytes + vec_write_bytes);
            const Tick t_mem =
                bytes > 0 ? dram.access(t, bytes, false) : t;
            const Tick t_cmp =
                t + static_cast<Tick>(ewise_work / pe) + 1;
            t = std::max(t_mem, t_cmp);
            timeline.activity().record(obs::Activity::Compute, t0, t_cmp);
            timeline.pushWindow(obs::PhaseKind::EwiseIteration, t0, t);
        }
        timeline.finish(t, config_.bw_timeline_samples, stats);
        return stats;
    }

    // --- row-wise passes over the leading matrix ops ----------------
    //
    // Each distinct sparse operand gets a disjoint byte range in the
    // fiber-cache address space, so two operators streaming different
    // matrices genuinely contend for cache capacity.
    const Idx bytes_per_nz = config_.bytesPerElem();
    std::vector<RowPass> passes;
    std::map<TensorId, Idx> operand_base;
    Idx next_base = 0;
    for (std::size_t idx : an.leading_ops) {
        const OpNode &lead = p.ops()[idx];
        RowPass rp;
        rp.spmm = lead.kind == OpKind::Spmm;
        rp.matrix = rp.spmm ? lead.inputs[0] : lead.inputs[1];
        auto [it, inserted] =
            operand_base.try_emplace(rp.matrix, next_base);
        if (inserted)
            next_base += operands.csr(rp.matrix).nnz() * bytes_per_nz;
        rp.base_bytes = it->second;
        passes.push_back(rp);
    }

    FiberCache cache(config_.buffer_bytes);
    const Idx line_bytes = cache.lineBytes();

    // PE manager: 32 PEs per group, rows go to the group that frees
    // first.
    const Idx group_pes = std::max<Idx>(
        1, std::min<Idx>(32, config_.pe_per_core));
    PeGroupTree groups(config_.pe_per_core / group_pes, 0);
    const double v = static_cast<double>(passes.size());

    // Cycle-budget cancellation poll for the row loop: row dispatch
    // can run for millions of simulated cycles between iteration
    // boundaries, so probe the token whenever simulated time has
    // advanced past the budget (same contract as PassEngine).
    CyclePoller poller(cancel_, config_.cancel_poll_cycles,
                       stats.counters.cancel_polls);

    // The last simulated iteration, with the state it started in: the
    // fiber cache's recency order (DESIGN.md §12), the run's counters
    // and the cache's ledger.  A pass makes at most one DRAM call per
    // row plus its vector read and write.  Reserving that bound spares
    // the growth copies; pages become resident only once a call is
    // written to them.
    StretchRecord rec;
    std::vector<Idx> rec_order;
    SimStats stats_before;
    FiberCacheStats cache_before;
    Idx max_calls = 0;
    for (const RowPass &rp : passes)
        max_calls += operands.csr(rp.matrix).rows() + 2;
    rec.dram.reserve(static_cast<std::size_t>(max_calls));
    bool replaying = false;

    Tick t = 0;
    for (Idx it = 0; it < outcome.iterations; ++it) {
        if (cancel_) {
            ++stats.counters.cancel_polls;
            throwIfError(cancel_->pollNow());
        }
        if (!replaying) {
            std::vector<Idx> order = cache.recencyOrder();
            replaying = rec.repeatsWith(timeline.dramLead(t)) &&
                        order == rec_order;
            if (!replaying) {
                rec_order = std::move(order);
                stats_before = stats;
                cache_before = cache.stats();
                timeline.beginRecord(rec, t);
            }
        }
        if (replaying) {
            t = timeline.replay(rec, t, poller);
            ++stats.counters.replayed_iterations;
            continue;
        }
        for (const RowPass &rp : passes) {
            const Tick t0 = t;
            const Idx rbytes = static_cast<Idx>(vec_read_bytes / v);
            const Idx wbytes = static_cast<Idx>(vec_write_bytes / v);
            const Tick t_vec =
                rbytes > 0 ? dram.access(t0, rbytes, false) : t0;

            const CsrMatrix &m = operands.csr(rp.matrix);
            // Multiplies per nonzero: one per output column for SpMM.
            const Idx row_mults = rp.spmm
                ? std::max<Idx>(1, an.traffic.spmm_cols)
                : 1;
            groups.reset(t_vec);
            for (Idx r = 0; r < m.rows(); ++r) {
                const Idx nnz = m.rowNnz(r);
                if (nnz == 0)
                    continue;
                const Idx g = groups.earliest();
                const Tick start = groups.freeAt(g);
                poller.at(start);
                const Idx fiber_begin =
                    rp.base_bytes + m.rowPtr()[r] * bytes_per_nz;
                const FiberCache::Access acc = cache.access(
                    fiber_begin, fiber_begin + nnz * bytes_per_nz);
                Tick ready = start + kIsScatterLatency;
                if (acc.miss_lines > 0) {
                    // A line fetched for the first time never is
                    // again: this iteration cannot repeat.
                    rec.steady = rec.steady && acc.cold_lines == 0;
                    const Idx miss_bytes =
                        acc.miss_lines * line_bytes;
                    ready = std::max(
                        ready, dram.access(start, miss_bytes, false));
                    stats.matrix_demand_bytes +=
                        acc.cold_lines * line_bytes;
                    stats.reload_bytes +=
                        (acc.miss_lines - acc.cold_lines) *
                        line_bytes;
                }
                const Tick mults = static_cast<Tick>(
                    (nnz * row_mults + group_pes - 1) / group_pes);
                const Tick end =
                    ready + mults + kOsTreeLatency;
                rec.activity.record(obs::Activity::Compute, ready, end);
                groups.assign(g, end);
                stats.os_elems += nnz;
            }
            const Tick t_rows = groups.latest();

            // Trailing element-wise work of the iteration slice.
            const Tick t_ew = t_rows + static_cast<Tick>(
                ewise_work / v / pe) + 1;
            rec.activity.record(obs::Activity::Compute, t_rows, t_ew);
            if (wbytes > 0)
                dram.access(t_ew, wbytes, true); // posted
            t = t_ew;
            timeline.pushWindow(obs::PhaseKind::StreamPass, t0, t);
            ++stats.passes;
            stats.vector_bytes += rbytes + wbytes;
        }
        timeline.endRecord(t);
    }

    // Surface the fiber-cache ledger through the generic reuse
    // counters so recordSimMetrics / BENCH outputs carry it without
    // a backend-specific SimStats extension.  Each replayed iteration
    // adds what the recorded one did.
    fiber_stats_ = cache.stats();
    const Idx replayed = stats.counters.replayed_iterations;
    auto repeat = [replayed](Idx &total, Idx before) {
        total += replayed * (total - before);
    };
    repeat(stats.passes, stats_before.passes);
    repeat(stats.os_elems, stats_before.os_elems);
    repeat(stats.vector_bytes, stats_before.vector_bytes);
    repeat(stats.matrix_demand_bytes, stats_before.matrix_demand_bytes);
    repeat(stats.reload_bytes, stats_before.reload_bytes);
    repeat(fiber_stats_.hit_lines, cache_before.hit_lines);
    repeat(fiber_stats_.miss_lines, cache_before.miss_lines);
    repeat(fiber_stats_.cold_lines, cache_before.cold_lines);
    repeat(fiber_stats_.evictions, cache_before.evictions);
    stats.counters.prefetch_hit_elems = fiber_stats_.hit_lines;
    stats.counters.prefetch_miss_elems = fiber_stats_.miss_lines;
    timeline.finish(t, config_.bw_timeline_samples, stats);
    return stats;
}

} // namespace sparsepipe::backend
