/**
 * @file
 * Both cycle engines' timing stages in their unreplayed form, for the
 * tests: Gamma's row loop run every iteration and Sparsepipe's pass
 * loop run every pass through PassEngine.  backend_test checks the
 * replaying engines against them on every output; obs_test sweeps the
 * spans they record against a reference attribution.
 */

#ifndef SPARSEPIPE_TESTS_TIMING_LOOPS_HH
#define SPARSEPIPE_TESTS_TIMING_LOOPS_HH

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "backend/backend.hh"
#include "backend/gamma.hh"
#include "buffer/dual_buffer.hh"
#include "core/buckets.hh"
#include "core/pass_engine.hh"
#include "core/sparsepipe_sim.hh"
#include "graph/analysis.hh"
#include "mem/dram.hh"
#include "obs/attribution.hh"
#include "obs/trace.hh"
#include "sim/event_queue.hh"

namespace sparsepipe::testing {

/** Every activity span a run recorded, unfolded, and its windows. */
struct RunSpans
{
    std::vector<obs::ActivitySpan> spans;
    std::vector<obs::PhaseWindow> windows;
};

/**
 * Gamma's timing stage in its iteration-by-iteration form: every
 * iteration runs the row loop, none is replayed.  GammaSim must
 * match it on every output.  Programs with a leading matrix op only.
 */
class RowLoopGamma final : public backend::CycleEngine
{
  public:
    using CycleEngine::CycleEngine;

    /** Also keep every span and window of the next runs in `raw`
     *  (null stops). */
    void captureSpans(RunSpans *raw) { raw_ = raw; }

    SimStats
    runTiming(const Program &p, const OperandPatterns &operands,
              const RunResult &outcome, Idx /*max_iters*/) override
    {
        const Analysis an = analyzeProgram(p);
        if (an.leading_ops.empty())
            throw std::logic_error("RowLoopGamma: no matrix op");

        SimStats stats;
        stats.mode = ScheduleMode::Stream;
        stats.iterations = outcome.iterations;
        stats.converged = outcome.converged;

        DramModel dram(config_.dram);
        obs::ActivityLog alog;
        std::vector<obs::PhaseWindow> windows;
        if (raw_)
            *raw_ = {};
        auto note = [this, &alog](obs::Activity kind, Tick begin,
                                  Tick end) {
            alog.record(kind, begin, end);
            if (raw_)
                raw_->spans.push_back({begin, end, kind});
        };
        dram.setAccessHook([this, &note](Tick start, Tick finish,
                                         Tick avail, Idx bytes,
                                         bool write) {
            if (write) {
                note(obs::Activity::WriteTransfer, start, finish);
            } else {
                note(obs::Activity::ReadTransfer, start, finish);
                note(obs::Activity::ReadWait, finish, avail);
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

        struct RowPass
        {
            TensorId matrix;
            bool spmm;
            Idx base_bytes;
        };
        const Idx bytes_per_nz = config_.bytesPerElem();
        std::vector<RowPass> passes;
        std::map<TensorId, Idx> operand_base;
        Idx next_base = 0;
        for (std::size_t idx : an.leading_ops) {
            const OpNode &lead = p.ops()[idx];
            const bool spmm = lead.kind == OpKind::Spmm;
            const TensorId matrix =
                spmm ? lead.inputs[0] : lead.inputs[1];
            auto [it, inserted] =
                operand_base.try_emplace(matrix, next_base);
            if (inserted)
                next_base += operands.csr(matrix).nnz() * bytes_per_nz;
            passes.push_back({matrix, spmm, it->second});
        }

        backend::FiberCache cache(config_.buffer_bytes);
        const Idx line_bytes = cache.lineBytes();
        const Idx group_pes = std::max<Idx>(
            1, std::min<Idx>(32, config_.pe_per_core));
        backend::PeGroupTree groups(config_.pe_per_core / group_pes, 0);
        const double v = static_cast<double>(passes.size());

        Tick t = 0;
        for (Idx it = 0; it < outcome.iterations; ++it) {
            for (const RowPass &rp : passes) {
                const Tick t0 = t;
                const Idx rbytes = static_cast<Idx>(vec_read_bytes / v);
                const Idx wbytes = static_cast<Idx>(vec_write_bytes / v);
                const Tick t_vec =
                    rbytes > 0 ? dram.access(t0, rbytes, false) : t0;
                const CsrMatrix &m = operands.csr(rp.matrix);
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
                    const Idx fiber_begin =
                        rp.base_bytes + m.rowPtr()[r] * bytes_per_nz;
                    const backend::FiberCache::Access acc = cache.access(
                        fiber_begin, fiber_begin + nnz * bytes_per_nz);
                    Tick ready = start + kIsScatterLatency;
                    if (acc.miss_lines > 0) {
                        ready = std::max(
                            ready, dram.access(start,
                                               acc.miss_lines * line_bytes,
                                               false));
                        stats.matrix_demand_bytes +=
                            acc.cold_lines * line_bytes;
                        stats.reload_bytes +=
                            (acc.miss_lines - acc.cold_lines) *
                            line_bytes;
                    }
                    const Tick mults = static_cast<Tick>(
                        (nnz * row_mults + group_pes - 1) / group_pes);
                    const Tick end = ready + mults + kOsTreeLatency;
                    note(obs::Activity::Compute, ready, end);
                    groups.assign(g, end);
                    stats.os_elems += nnz;
                }
                const Tick t_rows = groups.latest();
                const Tick t_ew = t_rows + static_cast<Tick>(
                    ewise_work / v / pe) + 1;
                note(obs::Activity::Compute, t_rows, t_ew);
                if (wbytes > 0)
                    dram.access(t_ew, wbytes, true);
                t = t_ew;
                pushWindow(obs::PhaseKind::StreamPass, t0, t);
                ++stats.passes;
                stats.vector_bytes += rbytes + wbytes;
            }
        }

        fiber_stats_ = cache.stats();
        stats.counters.prefetch_hit_elems = fiber_stats_.hit_lines;
        stats.counters.prefetch_miss_elems = fiber_stats_.miss_lines;

        const Tick drained = std::max(t, dram.nextFree());
        if (drained > t)
            pushWindow(obs::PhaseKind::WriteDrain, t, drained);
        stats.cycles = drained;
        stats.dram_read_bytes = dram.bytesRead();
        stats.dram_write_bytes = dram.bytesWritten();
        stats.bw_utilization =
            dram.utilization(std::max<Tick>(drained, 1));
        stats.bw_timeline = dram.utilizationSeries(
            std::max<Tick>(drained, 1),
            static_cast<std::size_t>(
                std::max<Idx>(1, config_.bw_timeline_samples)));
        stats.attribution = obs::attributeCycles(windows, alog);
        if (raw_)
            raw_->windows = windows;
        if (trace_) {
            for (const obs::PhaseCycles &ph : stats.attribution.phases) {
                trace_->complete(
                    std::string(obs::phaseKindName(ph.kind)) + " #" +
                        std::to_string(ph.index),
                    "phase", obs::TraceTrack::Phases, ph.begin, ph.end,
                    {{"compute", static_cast<double>(ph.compute)},
                     {"dram_read_stall",
                      static_cast<double>(ph.dram_read_stall)},
                     {"dram_write_drain",
                      static_cast<double>(ph.dram_write_drain)},
                     {"buffer_swap_wait",
                      static_cast<double>(ph.buffer_swap_wait)}});
            }
        }
        return stats;
    }

    const backend::FiberCacheStats &fiberCacheStats() const
    {
        return fiber_stats_;
    }

  private:
    backend::FiberCacheStats fiber_stats_;
    RunSpans *raw_ = nullptr;
};

/** Pass counters into run counters, as SparsepipeSim merges them. */
inline void
mergePassStats(SimStats &stats, const PassStats &ps)
{
    stats.matrix_demand_bytes += ps.matrix_demand_bytes;
    stats.reload_bytes += ps.reload_bytes;
    stats.prefetch_bytes += ps.prefetch_bytes;
    stats.vector_bytes += ps.vector_bytes;
    stats.os_elems += ps.os_elems;
    stats.is_elems += ps.is_elems;
    stats.ewise_ops += ps.ewise_ops;
    stats.counters.prefetch_hit_elems += ps.prefetch_hit_elems;
    stats.counters.prefetch_miss_elems += ps.prefetch_miss_elems;
    stats.counters.prefetch_denied_elems += ps.prefetch_denied_elems;
    stats.counters.demand_reload_events += ps.demand_reload_events;
    stats.counters.reload_ahead_events += ps.reload_ahead_events;
    ++stats.passes;
}

/**
 * Sparsepipe's timing stage in its pass-by-pass form: every pass runs
 * through PassEngine, none is replayed.  SparsepipeSim must match it
 * on every output.  It also counts the passes the replay rule covers,
 * those that start in the role (fused, paired fused or stream) and
 * DRAM lead of the pass of that role before them, in `replayable`.
 * Keeps every span and window in `raw` too when it is set.  Programs
 * with a leading matrix op only.
 */
inline SimStats
passLoopTiming(const SparsepipeConfig &cfg, const Program &p,
               const OperandPatterns &operands, const RunResult &outcome,
               Idx max_iters, obs::TraceSink *trace, Idx &replayable,
               RunSpans *raw = nullptr)
{
    const Analysis an = analyzeProgram(p);
    if (an.leading_ops.empty())
        throw std::logic_error("passLoopTiming: no matrix op");

    // The scheduling decision.
    const OpNode &lead = p.ops()[an.leading_ops.front()];
    const bool spmm = lead.kind == OpKind::Spmm;
    const TensorId matrix = spmm ? lead.inputs[0] : lead.inputs[1];
    ScheduleMode mode = ScheduleMode::Stream;
    for (const VxmPairing &pairing : an.pairings) {
        if (pairing.fusable && !pairing.crosses_iteration) {
            mode = ScheduleMode::IntraIteration;
            break;
        }
    }
    if (mode == ScheduleMode::Stream && an.leading_ops.size() == 1 &&
        an.pairings.front().fusable)
        mode = ScheduleMode::CrossIteration;

    SimStats stats;
    stats.mode = mode;
    stats.iterations = outcome.iterations;
    stats.converged = outcome.converged;

    EventQueue eq;
    DramModel dram(cfg.dram);
    PassEngine engine(cfg, dram, eq);
    obs::ActivityLog alog;
    std::vector<obs::PhaseWindow> windows;
    if (raw)
        *raw = {};
    auto note = [&](obs::Activity kind, Tick begin, Tick end) {
        alog.record(kind, begin, end);
        if (raw)
            raw->spans.push_back({begin, end, kind});
    };
    dram.setAccessHook([&](Tick start, Tick finish, Tick avail, Idx bytes,
                           bool write) {
        if (write) {
            note(obs::Activity::WriteTransfer, start, finish);
        } else {
            note(obs::Activity::ReadTransfer, start, finish);
            note(obs::Activity::ReadWait, finish, avail);
        }
        if (trace)
            trace->complete(write ? "write" : "read", "dram",
                            obs::TraceTrack::Dram, start, finish,
                            {{"bytes", static_cast<double>(bytes)}});
    });
    auto pushWindow = [&windows](obs::PhaseKind kind, Tick begin,
                                 Tick end) {
        windows.push_back(
            {kind, static_cast<Idx>(windows.size()), begin, end});
    };

    PassCosts per_iter;
    per_iter.vector_read_bytes =
        static_cast<double>(an.traffic.vector_reads_fused) * value_bytes;
    per_iter.vector_write_bytes =
        static_cast<double>(an.traffic.vector_writes_fused) *
        value_bytes;
    per_iter.ewise_work = static_cast<double>(an.traffic.ewise_ops) +
                          static_cast<double>(an.traffic.reduction_elems) +
                          static_cast<double>(an.traffic.mm_flops);
    per_iter.os_mult =
        spmm ? static_cast<double>(std::max<Idx>(1, an.traffic.spmm_cols))
             : 1.0;

    const CscMatrix &csc = operands.csc(matrix);
    const std::shared_ptr<const StepBuckets> held = operands.buckets(
        matrix, cfg.resolveSubTensor(csc.cols(), csc.nnz()), spmm);
    const StepBuckets &buckets = *held;
    for (Idx cs = 0; cs < buckets.steps(); ++cs)
        for (const BucketSpan &sp : buckets.colSpans(cs))
            ++stats.counters.bucket_occupancy[static_cast<std::size_t>(
                obs::occupancyBin(sp.cnt))];

    // Role 0 fused, 1 paired fused, 2 stream: the lead the last pass
    // of each role started with.
    std::map<int, Tick> last_lead;
    auto noteLead = [&](int role, Tick t) {
        const Tick lead_ticks =
            dram.nextFree() > t ? dram.nextFree() - t : 0;
        const auto it = last_lead.find(role);
        if (it != last_lead.end() && it->second == lead_ticks)
            ++replayable;
        last_lead[role] = lead_ticks;
    };

    Tick t = 0;
    for (Idx it = 0; it < outcome.iterations; ++it) {
        const bool paired = mode == ScheduleMode::CrossIteration &&
                            it % 2 == 0 && it + 1 < max_iters;
        const bool covered =
            mode == ScheduleMode::CrossIteration && it % 2 == 1;
        if (covered)
            continue;
        if (mode == ScheduleMode::IntraIteration || paired) {
            PassCosts costs = per_iter;
            if (paired) {
                costs.vector_read_bytes *= 2.0;
                costs.vector_write_bytes *= 2.0;
                costs.ewise_work *= 2.0;
            }
            noteLead(paired ? 1 : 0, t);
            DualBufferModel buffer(cfg.buffer_bytes, cfg.bytesPerElem(),
                                   buckets.bands());
            const PassStats ps = engine.runFused(buckets, buffer, costs, t);
            for (const obs::ActivitySpan &s : ps.activity)
                note(s.kind, s.begin, s.end);
            pushWindow(obs::PhaseKind::FusedPass, t, ps.end);
            t = ps.end;
            mergePassStats(stats, ps);
            const BufferStats &bs = buffer.stats();
            stats.buffer.peak_elems =
                std::max(stats.buffer.peak_elems, bs.peak_elems);
            stats.buffer.evicted_elems += bs.evicted_elems;
            stats.buffer.repacks += bs.repacks;
            stats.buffer.sram_reads_elems += bs.sram_reads_elems;
            stats.buffer.sram_writes_elems += bs.sram_writes_elems;
            continue;
        }
        const Idx v = static_cast<Idx>(an.leading_ops.size());
        PassCosts costs = per_iter;
        costs.vector_read_bytes /= static_cast<double>(v);
        costs.vector_write_bytes /= static_cast<double>(v);
        costs.ewise_work /= static_cast<double>(v);
        for (Idx k = 0; k < v; ++k) {
            noteLead(2, t);
            const PassStats ps = engine.runStream(buckets, costs, t);
            for (const obs::ActivitySpan &s : ps.activity)
                note(s.kind, s.begin, s.end);
            pushWindow(obs::PhaseKind::StreamPass, t, ps.end);
            t = ps.end;
            mergePassStats(stats, ps);
        }
    }

    const Tick drained = std::max(t, dram.nextFree());
    if (drained > t)
        pushWindow(obs::PhaseKind::WriteDrain, t, drained);
    stats.cycles = drained;
    stats.dram_read_bytes = dram.bytesRead();
    stats.dram_write_bytes = dram.bytesWritten();
    stats.bw_utilization = dram.utilization(std::max<Tick>(drained, 1));
    stats.bw_timeline = dram.utilizationSeries(
        std::max<Tick>(drained, 1),
        static_cast<std::size_t>(std::max<Idx>(1, cfg.bw_timeline_samples)));
    stats.attribution = obs::attributeCycles(windows, alog);
    if (raw)
        raw->windows = windows;
    if (trace) {
        for (const obs::PhaseCycles &ph : stats.attribution.phases) {
            trace->complete(
                std::string(obs::phaseKindName(ph.kind)) + " #" +
                    std::to_string(ph.index),
                "phase", obs::TraceTrack::Phases, ph.begin, ph.end,
                {{"compute", static_cast<double>(ph.compute)},
                 {"dram_read_stall",
                  static_cast<double>(ph.dram_read_stall)},
                 {"dram_write_drain",
                  static_cast<double>(ph.dram_write_drain)},
                 {"buffer_swap_wait",
                  static_cast<double>(ph.buffer_swap_wait)}});
        }
    }
    return stats;
}

} // namespace sparsepipe::testing

#endif // SPARSEPIPE_TESTS_TIMING_LOOPS_HH
