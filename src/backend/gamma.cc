#include "backend/gamma.hh"

#include <algorithm>
#include <bit>
#include <limits>
#include <map>
#include <numeric>

#include "graph/analysis.hh"
#include "mem/dram.hh"
#include "obs/attribution.hh"
#include "obs/trace.hh"
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

/**
 * One simulated iteration of the row loop, in the run's ticks: the
 * state it started in, and what a replay of it repeats.
 */
struct IterationRecord
{
    struct DramCall
    {
        Tick now;
        Idx bytes;
        bool write;
    };

    Tick start = 0;
    /** Ticks the DRAM pipe stayed busy past `start`. */
    Tick dram_lead = 0;
    std::vector<Idx> cache_order;
    /** The run's counters and fiber-cache ledger at `start`. */
    SimStats stats_before;
    FiberCacheStats cache_before;

    Tick end = 0;
    std::vector<DramCall> dram;
    obs::ActivityLog compute;
    /** Its phase windows: [first_window, end_window) of the run's. */
    std::size_t first_window = 0;
    std::size_t end_window = 0;
    /**
     * It fetched no line for the first time, so it can repeat; an
     * iteration stops recording DRAM calls at its first such line.
     */
    bool steady = false;
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

    obs::ActivityLog alog;
    std::vector<obs::PhaseWindow> windows;
    dram.setAccessHook([this, &alog](Tick start, Tick finish,
                                     Tick avail, Idx bytes,
                                     bool write) {
        if (write) {
            alog.record(obs::Activity::WriteTransfer, start, finish);
        } else {
            alog.record(obs::Activity::ReadTransfer, start, finish);
            alog.record(obs::Activity::ReadWait, finish, avail);
        }
        if (trace_)
            trace_->complete(write ? "write" : "read", "dram",
                             obs::TraceTrack::Dram, start, finish,
                             {{"bytes",
                               static_cast<double>(bytes)}});
    });
    auto pushWindow = [&windows](obs::PhaseKind kind, Tick begin,
                                 Tick end) {
        windows.push_back(
            {kind, static_cast<Idx>(windows.size()), begin, end});
    };
    auto finalize = [&](Tick t) {
        const Tick drained = std::max(t, dram.nextFree());
        if (drained > t)
            pushWindow(obs::PhaseKind::WriteDrain, t, drained);
        stats.cycles = drained;
        stats.dram_read_bytes = dram.bytesRead();
        stats.dram_write_bytes = dram.bytesWritten();
        stats.bw_utilization =
            dram.utilization(std::max<Tick>(drained, 1));
        const std::size_t samples = static_cast<std::size_t>(
            std::max<Idx>(1, config_.bw_timeline_samples));
        stats.bw_timeline = dram.utilizationSeries(
            std::max<Tick>(drained, 1), samples);
        stats.attribution = obs::attributeCycles(windows, alog.spans());
        if (trace_) {
            for (const obs::PhaseCycles &ph :
                 stats.attribution.phases) {
                trace_->complete(
                    std::string(obs::phaseKindName(ph.kind)) + " #" +
                        std::to_string(ph.index),
                    "phase", obs::TraceTrack::Phases, ph.begin,
                    ph.end,
                    {{"compute", static_cast<double>(ph.compute)},
                     {"dram_read_stall",
                      static_cast<double>(ph.dram_read_stall)},
                     {"dram_write_drain",
                      static_cast<double>(ph.dram_write_drain)},
                     {"buffer_swap_wait",
                      static_cast<double>(ph.buffer_swap_wait)}});
            }
        }
    };

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
            alog.record(obs::Activity::Compute, t0, t_cmp);
            pushWindow(obs::PhaseKind::EwiseIteration, t0, t);
        }
        finalize(t);
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
    const Tick poll_stride =
        std::max<Tick>(1, config_.cancel_poll_cycles);
    Tick next_poll = 0;
    // A replayed iteration has no rows to poll at: probe once per
    // stride of simulated time up to `tick`.
    auto pollThrough = [&](Tick tick) {
        for (; cancel_ && next_poll <= tick; next_poll += poll_stride) {
            ++stats.counters.cancel_polls;
            throwIfError(cancel_->pollNow());
        }
    };

    // The last simulated iteration; its DRAM calls go through
    // access() so that it can be replayed.  A pass makes at most one
    // call per row plus its vector read and write.  Reserving that
    // bound spares the growth copies; pages become resident only
    // once a call is written to them.
    IterationRecord rec;
    Idx max_calls = 0;
    for (const RowPass &rp : passes)
        max_calls += operands.csr(rp.matrix).rows() + 2;
    rec.dram.reserve(static_cast<std::size_t>(max_calls));
    auto access = [&dram, &rec](Tick now, Idx bytes, bool write) {
        if (rec.steady)
            rec.dram.push_back({now, bytes, write});
        return dram.access(now, bytes, write);
    };
    bool replaying = false;

    Tick t = 0;
    for (Idx it = 0; it < outcome.iterations; ++it) {
        if (cancel_) {
            ++stats.counters.cancel_polls;
            throwIfError(cancel_->pollNow());
        }
        if (!replaying) {
            const Tick lead =
                dram.nextFree() > t ? dram.nextFree() - t : 0;
            std::vector<Idx> order = cache.recencyOrder();
            replaying = rec.steady && lead == rec.dram_lead &&
                        order == rec.cache_order;
            if (!replaying) {
                rec.start = t;
                rec.dram_lead = lead;
                rec.cache_order = std::move(order);
                rec.stats_before = stats;
                rec.cache_before = cache.stats();
                rec.dram.clear();
                rec.compute = obs::ActivityLog();
                rec.first_window = windows.size();
                rec.steady = true;
            }
        }
        if (replaying) {
            // The recorded iteration, shifted to start at t.
            const Tick shift = t - rec.start;
            for (const IterationRecord::DramCall &call : rec.dram) {
                pollThrough(call.now + shift);
                dram.access(call.now + shift, call.bytes, call.write);
            }
            for (const obs::ActivitySpan &s : rec.compute.spans())
                alog.record(s.kind, s.begin + shift, s.end + shift);
            for (std::size_t w = rec.first_window; w < rec.end_window;
                 ++w) {
                const obs::PhaseWindow win = windows[w];
                pushWindow(win.kind, win.begin + shift, win.end + shift);
            }
            t = rec.end + shift;
            pollThrough(t);
            ++stats.counters.replayed_iterations;
            continue;
        }
        for (const RowPass &rp : passes) {
            const Tick t0 = t;
            const Idx rbytes = static_cast<Idx>(vec_read_bytes / v);
            const Idx wbytes = static_cast<Idx>(vec_write_bytes / v);
            const Tick t_vec = rbytes > 0 ? access(t0, rbytes, false) : t0;

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
                if (cancel_ && start >= next_poll) {
                    ++stats.counters.cancel_polls;
                    throwIfError(cancel_->pollNow());
                    next_poll = start + poll_stride;
                }
                const Idx fiber_begin =
                    rp.base_bytes + m.rowPtr()[r] * bytes_per_nz;
                const FiberCache::Access acc = cache.access(
                    fiber_begin, fiber_begin + nnz * bytes_per_nz);
                Tick ready = start + kIsScatterLatency;
                if (acc.miss_lines > 0) {
                    rec.steady = rec.steady && acc.cold_lines == 0;
                    const Idx miss_bytes =
                        acc.miss_lines * line_bytes;
                    ready = std::max(
                        ready, access(start, miss_bytes, false));
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
                rec.compute.record(obs::Activity::Compute, ready, end);
                groups.assign(g, end);
                stats.os_elems += nnz;
            }
            const Tick t_rows = groups.latest();

            // Trailing element-wise work of the iteration slice.
            const Tick t_ew = t_rows + static_cast<Tick>(
                ewise_work / v / pe) + 1;
            rec.compute.record(obs::Activity::Compute, t_rows, t_ew);
            if (wbytes > 0)
                access(t_ew, wbytes, true); // posted
            t = t_ew;
            pushWindow(obs::PhaseKind::StreamPass, t0, t);
            ++stats.passes;
            stats.vector_bytes += rbytes + wbytes;
        }
        alog.append(rec.compute.spans());
        rec.end = t;
        rec.end_window = windows.size();
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
    const SimStats &before = rec.stats_before;
    repeat(stats.passes, before.passes);
    repeat(stats.os_elems, before.os_elems);
    repeat(stats.vector_bytes, before.vector_bytes);
    repeat(stats.matrix_demand_bytes, before.matrix_demand_bytes);
    repeat(stats.reload_bytes, before.reload_bytes);
    repeat(fiber_stats_.hit_lines, rec.cache_before.hit_lines);
    repeat(fiber_stats_.miss_lines, rec.cache_before.miss_lines);
    repeat(fiber_stats_.cold_lines, rec.cache_before.cold_lines);
    repeat(fiber_stats_.evictions, rec.cache_before.evictions);
    stats.counters.prefetch_hit_elems = fiber_stats_.hit_lines;
    stats.counters.prefetch_miss_elems = fiber_stats_.miss_lines;
    finalize(t);
    return stats;
}

} // namespace sparsepipe::backend
