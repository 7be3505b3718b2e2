#include "core/sparsepipe_sim.hh"

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "core/buckets.hh"
#include "core/lane_exec.hh"
#include "core/oei_functional.hh"
#include "core/pass_engine.hh"
#include "runner/thread_pool.hh"
#include "semiring/packed.hh"
#include "mem/dram.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/event_queue.hh"
#include "util/logging.hh"

namespace sparsepipe {

const char *
scheduleModeName(ScheduleMode mode)
{
    switch (mode) {
      case ScheduleMode::CrossIteration: return "cross-iteration";
      case ScheduleMode::IntraIteration: return "intra-iteration";
      case ScheduleMode::Stream:         return "stream";
    }
    return "?";
}

namespace {

/** Resolved scheduling decision for one program. */
struct Plan
{
    ScheduleMode mode = ScheduleMode::Stream;
    VxmPairing pairing;
    FusedChain chain;
    bool functional_pass = false;
    bool spmm = false;
    TensorId matrix = invalid_tensor;
    /**
     * Scalar ops after the producer that do not depend on its
     * output.  The fused e-wise chain reads these scalars, so they
     * execute at pass start — exactly as the offline compiler
     * hoists scalar preambles ahead of the pipelined loop.
     */
    std::vector<std::size_t> scalar_preamble;
};

/**
 * Find the clean scalar ops between the producer and the end of the
 * body: taint flows forward from the producer's output; an op whose
 * inputs are all untainted is safe to hoist.
 */
std::vector<std::size_t>
findScalarPreamble(const Program &p, std::size_t producer)
{
    const auto &ops = p.ops();
    std::vector<char> tainted(p.tensors().size(), 0);
    tainted[static_cast<std::size_t>(ops[producer].output)] = 1;
    std::vector<std::size_t> preamble;
    for (std::size_t i = producer + 1; i < ops.size(); ++i) {
        const OpNode &op = ops[i];
        bool in_taint = false;
        for (TensorId id : op.inputs)
            in_taint = in_taint ||
                       tainted[static_cast<std::size_t>(id)];
        tainted[static_cast<std::size_t>(op.output)] = in_taint;
        if (!in_taint &&
            p.tensor(op.output).kind == TensorKind::Scalar) {
            preamble.push_back(i);
        }
    }
    return preamble;
}

Plan
makePlan(const Program &p, const Analysis &an)
{
    Plan plan;
    if (an.leading_ops.empty())
        return plan;

    const OpNode &lead = p.ops()[an.leading_ops.front()];
    plan.spmm = lead.kind == OpKind::Spmm;
    plan.matrix = plan.spmm ? lead.inputs[0] : lead.inputs[1];

    // Prefer an intra-iteration pair (KNN's two vxm); otherwise the
    // single-vxm cross-iteration fusion.
    for (const VxmPairing &pairing : an.pairings) {
        if (pairing.fusable && !pairing.crosses_iteration) {
            plan.mode = ScheduleMode::IntraIteration;
            plan.pairing = pairing;
            break;
        }
    }
    if (plan.mode == ScheduleMode::Stream &&
        an.leading_ops.size() == 1 && an.pairings.front().fusable) {
        plan.mode = ScheduleMode::CrossIteration;
        plan.pairing = an.pairings.front();
    }

    if (plan.mode != ScheduleMode::Stream && !plan.spmm) {
        plan.chain = buildFusedChain(p, plan.pairing);
        plan.functional_pass = true;
        plan.scalar_preamble =
            findScalarPreamble(p, plan.pairing.producer_op);
    }
    return plan;
}

void
mergePass(SimStats &stats, const PassStats &ps)
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
    stats.counters.cancel_polls += ps.cancel_polls;
    ++stats.passes;
}

void
mergeBuffer(BufferStats &into, const BufferStats &from)
{
    into.peak_elems = std::max(into.peak_elems, from.peak_elems);
    into.evicted_elems += from.evicted_elems;
    into.repacks += from.repacks;
    into.sram_reads_elems += from.sram_reads_elems;
    into.sram_writes_elems += from.sram_writes_elems;
}

/** What one iteration does with the sparse operand. */
enum class IterationRole
{
    Pass,       ///< a fused pass covering this iteration
    PairedPass, ///< a fused pass covering this and the next iteration
    Covered,    ///< charged by the previous iteration's paired pass
    Stream,     ///< one stream pass per leading op
};

/**
 * The cross-iteration pairing flags of iteration `it`.  Both stages
 * ask this one function, so the functional stage runs the fused
 * kernels on exactly the iterations the timing stage charges a fused
 * pass for.  An even iteration pairs with the next one only when
 * `it + 1 < max_iters`, which is why both stages take max_iters.
 */
IterationRole
iterationRole(ScheduleMode mode, Idx it, Idx max_iters)
{
    switch (mode) {
      case ScheduleMode::IntraIteration:
        return IterationRole::Pass;
      case ScheduleMode::CrossIteration:
        if (it % 2 == 1)
            return IterationRole::Covered;
        return it + 1 < max_iters ? IterationRole::PairedPass
                                  : IterationRole::Stream;
      case ScheduleMode::Stream:
        break;
    }
    return IterationRole::Stream;
}

} // anonymous namespace

const CsrMatrix &
OperandPatterns::csr(TensorId id) const
{
    if (ws_)
        return ws_->csr(id);
    if (id != id_)
        sp_panic("OperandPatterns: tensor %lld is not in the view",
                 static_cast<long long>(id));
    return *csr_;
}

const CscMatrix &
OperandPatterns::csc(TensorId id) const
{
    if (ws_)
        return ws_->csc(id);
    if (id != id_)
        sp_panic("OperandPatterns: tensor %lld is not in the view",
                 static_cast<long long>(id));
    return *csc_;
}

std::shared_ptr<const StepBuckets>
OperandPatterns::buckets(TensorId id, Idx t, bool transposed) const
{
    // A memo of no pattern builds for every call and holds nothing.
    static BucketMemo none;
    BucketMemo &memo = memo_ ? *memo_ : none;
    return transposed ? memo.buildTransposed(csr(id), t)
                      : memo.build(csc(id), t);
}

SimStats
SparsepipeSim::run(Workspace &ws, Idx max_iters)
{
    const RunResult outcome = runFunctional(ws, max_iters);
    return runTiming(ws.program(), OperandPatterns(ws), outcome,
                     max_iters);
}

RunResult
SparsepipeSim::runFunctional(Workspace &ws, Idx max_iters)
{
    const Program &p = ws.program();
    const Plan plan = makePlan(p, analyzeProgram(p));
    RefExecutor ref;

    // Functional-execution parallelism (pure implementation
    // strategy; every policy is bit-identical to the element path).
    ExecPolicy pol;
    pol.lanes = packed::resolveLanes(config_.lanes);
    std::optional<runner::ThreadPool> band_pool;
    if (config_.band_threads > 1) {
        band_pool.emplace(config_.band_threads);
        pol.threads = config_.band_threads;
        pol.pool = &*band_pool;
    }
    const Idx t_cols = plan.functional_pass
        ? config_.resolveSubTensor(ws.csc(plan.matrix).cols(),
                                   ws.csc(plan.matrix).nnz())
        : 0;

    std::optional<DenseVector> pending;
    const auto &ops = p.ops();
    RunResult out;
    while (out.iterations < max_iters) {
        // Iteration boundary: cold enough for the unlatched pollNow().
        if (cancel_)
            throwIfError(cancel_->pollNow());
        const IterationRole role =
            iterationRole(plan.mode, out.iterations, max_iters);
        const bool run_pass_functional =
            plan.functional_pass && (role == IterationRole::Pass ||
                                     role == IterationRole::PairedPass);
        for (std::size_t i = 0; i < ops.size(); ++i) {
            if (run_pass_functional && i == plan.pairing.producer_op) {
                // Hoisted clean scalar preamble, then the pass.
                for (std::size_t s : plan.scalar_preamble)
                    RefExecutor::execOp(ws, ops[s]);
                pending = runFusedPair(ws, p, plan.pairing,
                                       plan.chain, t_cols, pol);
                continue;
            }
            if (run_pass_functional &&
                (std::find(plan.chain.replaced_ops.begin(),
                           plan.chain.replaced_ops.end(), i) !=
                     plan.chain.replaced_ops.end() ||
                 std::find(plan.scalar_preamble.begin(),
                           plan.scalar_preamble.end(), i) !=
                     plan.scalar_preamble.end())) {
                continue; // executed inside / ahead of the pass
            }
            if (pending && i == plan.pairing.consumer_op &&
                !(run_pass_functional &&
                  plan.pairing.crosses_iteration)) {
                ws.vec(ops[i].output) = std::move(*pending);
                pending.reset();
                continue;
            }
            if (!execOpLanes(ws, ops[i], pol))
                RefExecutor::execOp(ws, ops[i]);
        }
        ref.applyCarries(ws);

        ++out.iterations;
        if (p.hasConvergence() &&
            ws.scalar(p.convergenceScalar()) <
                p.convergenceThreshold()) {
            out.converged = true;
            break;
        }
    }
    return out;
}

SimStats
SparsepipeSim::runTiming(const Program &p,
                         const OperandPatterns &operands,
                         const RunResult &outcome, Idx max_iters)
{
    const Analysis an = analyzeProgram(p);
    const Plan plan = makePlan(p, an);

    SimStats stats;
    stats.mode = plan.mode;
    stats.iterations = outcome.iterations;
    stats.converged = outcome.converged;

    EventQueue eq;
    DramModel dram(config_.dram);
    PassEngine engine(config_, dram, eq);
    engine.setCancelToken(cancel_);

    // Activity spans and phase windows feeding cycle attribution.
    // Windows tile [0, cycles]: every pass / iteration starts where
    // the previous one ended, and the drain window covers the tail.
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

    // Drain posted writes, attribute every cycle, and fill the
    // DRAM-side aggregates (shared epilogue of both timing models).
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

    PassCosts per_iter;
    per_iter.vector_read_bytes =
        static_cast<double>(an.traffic.vector_reads_fused) *
        value_bytes;
    per_iter.vector_write_bytes =
        static_cast<double>(an.traffic.vector_writes_fused) *
        value_bytes;
    per_iter.ewise_work =
        static_cast<double>(an.traffic.ewise_ops) +
        static_cast<double>(an.traffic.reduction_elems) +
        static_cast<double>(an.traffic.mm_flops);
    per_iter.os_mult = plan.spmm
        ? static_cast<double>(std::max<Idx>(1, an.traffic.spmm_cols))
        : 1.0;

    // --- pure element-wise programs: no matrix stream --------------
    if (an.leading_ops.empty()) {
        Tick t = 0;
        for (Idx it = 0; it < outcome.iterations; ++it) {
            // Once per iteration — cold enough for the unlatched
            // pollNow(), so a deadline is seen on the next iteration
            // boundary rather than a stride of checks later.
            if (cancel_) {
                ++stats.counters.cancel_polls;
                throwIfError(cancel_->pollNow());
            }
            const Tick t0 = t;
            Idx bytes = static_cast<Idx>(per_iter.vector_read_bytes +
                                         per_iter.vector_write_bytes);
            Tick t_mem = dram.access(t, bytes, false);
            Tick t_cmp = t + static_cast<Tick>(
                per_iter.ewise_work /
                static_cast<double>(config_.pe_per_core)) + 1;
            t = std::max(t_mem, t_cmp);
            alog.record(obs::Activity::Compute, t0, t_cmp);
            pushWindow(obs::PhaseKind::EwiseIteration, t0, t);
        }
        finalize(t);
        return stats;
    }

    // --- bucket decomposition of the sparse operand -----------------
    const CscMatrix &csc = operands.csc(plan.matrix);
    const Idx t_cols = config_.resolveSubTensor(csc.cols(), csc.nnz());
    const std::shared_ptr<const StepBuckets> held =
        operands.buckets(plan.matrix, t_cols, plan.spmm);
    const StepBuckets &buckets = *held;
    const Idx bytes_per_nz = config_.bytesPerElem();

    for (Idx cs = 0; cs < buckets.steps(); ++cs) {
        for (const BucketSpan &sp : buckets.colSpans(cs)) {
            ++stats.counters.bucket_occupancy[
                static_cast<std::size_t>(obs::occupancyBin(sp.cnt))];
        }
    }

    Tick t = 0;
    for (Idx it = 0; it < outcome.iterations; ++it) {
        // Iteration boundary: unlatched poll, same as the element
        // path above (the hot per-event checks live in PassEngine).
        if (cancel_) {
            ++stats.counters.cancel_polls;
            throwIfError(cancel_->pollNow());
        }
        const IterationRole role = iterationRole(plan.mode, it, max_iters);
        if (role == IterationRole::Pass ||
            role == IterationRole::PairedPass) {
            PassCosts costs = per_iter;
            if (role == IterationRole::PairedPass) {
                costs.vector_read_bytes *= 2.0;
                costs.vector_write_bytes *= 2.0;
                costs.ewise_work *= 2.0;
            }
            DualBufferModel buffer(config_.buffer_bytes, bytes_per_nz,
                                   buckets.bands());
            PassStats ps = engine.runFused(buckets, buffer, costs, t);
            alog.append(ps.activity);
            pushWindow(obs::PhaseKind::FusedPass, t, ps.end);
            t = ps.end;
            mergePass(stats, ps);
            mergeBuffer(stats.buffer, buffer.stats());
        } else if (role == IterationRole::Stream) {
            const Idx v = static_cast<Idx>(an.leading_ops.size());
            PassCosts costs = per_iter;
            costs.vector_read_bytes /= static_cast<double>(v);
            costs.vector_write_bytes /= static_cast<double>(v);
            costs.ewise_work /= static_cast<double>(v);
            for (Idx k = 0; k < v; ++k) {
                PassStats ps = engine.runStream(buckets, costs, t);
                alog.append(ps.activity);
                pushWindow(obs::PhaseKind::StreamPass, t, ps.end);
                t = ps.end;
                mergePass(stats, ps);
            }
        }
        // IterationRole::Covered: charged by the previous pass.
    }

    finalize(t);
    return stats;
}

SimStats
SparsepipeSim::simulateApp(const AppInstance &app, const CooMatrix &raw,
                           Idx iters)
{
    Workspace ws(app.program);
    ws.bindMatrix(app.matrix, app.prepare(raw));
    app.init(ws);
    return run(ws, iters > 0 ? iters : app.default_iters);
}

void
recordSimMetrics(obs::MetricsRegistry &reg, const std::string &prefix,
                 const SimStats &stats)
{
    auto set = [&](const char *key, double value) {
        reg.set(prefix + "." + key, value);
    };
    set("cycles", static_cast<double>(stats.cycles));
    set("iterations", static_cast<double>(stats.iterations));
    set("converged", stats.converged ? 1.0 : 0.0);
    set("passes", static_cast<double>(stats.passes));
    set("dram_read_bytes",
        static_cast<double>(stats.dram_read_bytes));
    set("dram_write_bytes",
        static_cast<double>(stats.dram_write_bytes));
    set("matrix_demand_bytes",
        static_cast<double>(stats.matrix_demand_bytes));
    set("reload_bytes", static_cast<double>(stats.reload_bytes));
    set("prefetch_bytes", static_cast<double>(stats.prefetch_bytes));
    set("vector_bytes", static_cast<double>(stats.vector_bytes));
    set("bw_utilization", stats.bw_utilization);
    set("os_elems", static_cast<double>(stats.os_elems));
    set("is_elems", static_cast<double>(stats.is_elems));
    set("ewise_ops", stats.ewise_ops);
    set("attr.compute",
        static_cast<double>(stats.attribution.compute));
    set("attr.dram_read_stall",
        static_cast<double>(stats.attribution.dram_read_stall));
    set("attr.dram_write_drain",
        static_cast<double>(stats.attribution.dram_write_drain));
    set("attr.buffer_swap_wait",
        static_cast<double>(stats.attribution.buffer_swap_wait));
    set("prefetch_hit_elems",
        static_cast<double>(stats.counters.prefetch_hit_elems));
    set("prefetch_miss_elems",
        static_cast<double>(stats.counters.prefetch_miss_elems));
    set("prefetch_denied_elems",
        static_cast<double>(stats.counters.prefetch_denied_elems));
    set("demand_reload_events",
        static_cast<double>(stats.counters.demand_reload_events));
    set("reload_ahead_events",
        static_cast<double>(stats.counters.reload_ahead_events));
    for (int b = 0; b < obs::kOccupancyBins; ++b) {
        reg.set(prefix + ".bucket_occupancy.bin" + std::to_string(b),
                static_cast<double>(
                    stats.counters.bucket_occupancy
                        [static_cast<std::size_t>(b)]));
    }
    set("buffer.peak_elems",
        static_cast<double>(stats.buffer.peak_elems));
    set("buffer.evicted_elems",
        static_cast<double>(stats.buffer.evicted_elems));
    set("buffer.repacks", static_cast<double>(stats.buffer.repacks));
    set("buffer.sram_reads_elems",
        static_cast<double>(stats.buffer.sram_reads_elems));
    set("buffer.sram_writes_elems",
        static_cast<double>(stats.buffer.sram_writes_elems));
}

} // namespace sparsepipe
