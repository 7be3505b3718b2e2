#include "core/pass_engine.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>

#include "core/replay.hh"
#include "util/logging.hh"

namespace sparsepipe {

namespace {

Idx
roundBytes(double bytes)
{
    return static_cast<Idx>(std::llround(bytes));
}

} // anonymous namespace

/**
 * State of one in-flight pass.  Stage instances are identified by
 * (stage, step); execute() runs a stage body at the tick where its
 * predecessors completed, issues its DRAM traffic, and schedules the
 * completion event that unlocks its successors.
 */
struct PassEngine::Run
{
    enum Stage { Load = 0, Os = 1, Ew = 2, Is = 3 };

    const SparsepipeConfig &cfg;
    DramModel &dram;
    EventQueue &eq;
    const StepBuckets &b;
    DualBufferModel *buffer; ///< null for stream passes
    PassCosts costs;
    bool fused;
    CyclePoller *poller; ///< null when cancellation is off

    Idx steps = 0;
    Idx bands = 0;
    Idx total = 0; ///< stage instances incl. the IS drain tail

    double per_step_read_bytes = 0.0;
    double per_step_ewise = 0.0;
    double per_band_write_bytes = 0.0;

    // Per-pass state lives in the engine-owned scratch arena; the
    // assign() calls below reuse its capacity across passes.
    std::vector<std::array<Tick, 4>> &done;
    std::vector<std::array<char, 4>> &completed;
    std::vector<std::array<char, 4>> &launched;

    std::vector<Idx> &prefetched;     ///< admitted per column step
    std::vector<Idx> &prefetchable;   ///< unlocked, not yet fetched
    std::vector<Idx> &slice_resident; ///< admitted CSC elems per step
    std::vector<double> &is_arrival;  ///< immediate IS work per step
    std::vector<Idx> &pre_reloaded;   ///< evictions reloaded early
    std::vector<Tick> &data_ready;    ///< per-step load data arrival

    PassStats stats;

    Run(const SparsepipeConfig &cfg_, DramModel &dram_,
        EventQueue &eq_, const StepBuckets &b_,
        DualBufferModel *buffer_, const PassCosts &costs_,
        bool fused_, CyclePoller *poller_, PassEngine::Scratch &sc)
        : cfg(cfg_), dram(dram_), eq(eq_), b(b_), buffer(buffer_),
          costs(costs_), fused(fused_), poller(poller_),
          done(sc.done),
          completed(sc.completed), launched(sc.launched),
          prefetched(sc.prefetched), prefetchable(sc.prefetchable),
          slice_resident(sc.slice_resident),
          is_arrival(sc.is_arrival), pre_reloaded(sc.pre_reloaded),
          data_ready(sc.data_ready)
    {
        steps = b.steps();
        bands = b.bands();
        total = fused ? cfg.lag + std::max(steps, bands) : steps;
        per_step_read_bytes =
            costs.vector_read_bytes / static_cast<double>(steps);
        per_step_ewise =
            costs.ewise_work / static_cast<double>(steps);
        per_band_write_bytes =
            costs.vector_write_bytes /
            static_cast<double>(std::max<Idx>(1, bands));
        done.assign(static_cast<std::size_t>(total), {});
        completed.assign(static_cast<std::size_t>(total), {});
        launched.assign(static_cast<std::size_t>(total), {});
        prefetched.assign(static_cast<std::size_t>(steps), 0);
        prefetchable.assign(static_cast<std::size_t>(steps), 0);
        slice_resident.assign(static_cast<std::size_t>(steps), 0);
        is_arrival.assign(static_cast<std::size_t>(total), 0.0);
        pre_reloaded.assign(static_cast<std::size_t>(bands), 0);
        data_ready.assign(static_cast<std::size_t>(steps), 0);
        // Os + Ew spans per step, plus the IS chain when fused.
        stats.activity.reserve(static_cast<std::size_t>(
            2 * steps + (fused ? total : 0)));
    }

    bool
    stageExists(Stage s, Idx j) const
    {
        if (j < 0)
            return false;
        if (s == Is)
            return fused && j < total;
        return j < steps;
    }

    /** Predecessors of a stage instance. */
    void
    preds(Stage s, Idx j, std::array<std::pair<Stage, Idx>, 2> &out,
          int &count) const
    {
        count = 0;
        auto add = [&](Stage ps, Idx pj) {
            if (stageExists(ps, pj))
                out[static_cast<std::size_t>(count++)] = {ps, pj};
        };
        switch (s) {
          case Load:
            add(Load, j - 1);
            add(Os, j - 2);
            break;
          case Os:
            add(Load, j);
            add(Os, j - 1);
            break;
          case Ew:
            add(Os, j);
            add(Ew, j - 1);
            break;
          case Is:
            add(Ew, std::min(j, steps - 1));
            add(Is, j - 1);
            break;
        }
    }

    bool
    ready(Stage s, Idx j) const
    {
        std::array<std::pair<Stage, Idx>, 2> p;
        int n = 0;
        preds(s, j, p, n);
        for (int i = 0; i < n; ++i) {
            auto [ps, pj] = p[static_cast<std::size_t>(i)];
            if (!completed[static_cast<std::size_t>(pj)]
                          [static_cast<std::size_t>(ps)])
                return false;
        }
        return true;
    }

    void
    tryLaunch(Stage s, Idx j)
    {
        if (!stageExists(s, j))
            return;
        auto &flag = launched[static_cast<std::size_t>(j)]
                             [static_cast<std::size_t>(s)];
        if (flag || !ready(s, j))
            return;
        flag = 1;
        // Cooperative cancellation point: one relaxed load per stage
        // launch.  Unwinds through the event queue via SpError; all
        // pass state is per-run, so abandoning it is safe.
        if (poller)
            poller->check();
        execute(s, j);
    }

    void
    onComplete(Stage s, Idx j)
    {
        completed[static_cast<std::size_t>(j)]
                 [static_cast<std::size_t>(s)] = 1;
        // Successors that might now be ready.
        switch (s) {
          case Load:
            tryLaunch(Load, j + 1);
            tryLaunch(Os, j);
            break;
          case Os:
            tryLaunch(Os, j + 1);
            tryLaunch(Ew, j);
            tryLaunch(Load, j + 2);
            break;
          case Ew:
            tryLaunch(Ew, j + 1);
            tryLaunch(Is, j);
            if (j == steps - 1) {
                // The IS drain tail depends on the final Ew.
                for (Idx k = j; k < total; ++k)
                    tryLaunch(Is, k);
            }
            break;
          case Is:
            tryLaunch(Is, j + 1);
            break;
        }
    }

    void
    finish(Stage s, Idx j, Tick end)
    {
        done[static_cast<std::size_t>(j)]
            [static_cast<std::size_t>(s)] = end;
        // Pack (stage, step) into one word so the completion closure
        // fits std::function's inline storage: a pass schedules one
        // event per stage instance, and the three-capture form
        // heap-allocates every one of them.
        const std::uint64_t key =
            (static_cast<std::uint64_t>(j) << 2) |
            static_cast<std::uint64_t>(s);
        eq.schedule(end, [this, key] {
            onComplete(static_cast<Stage>(key & 3),
                       static_cast<Idx>(key >> 2));
        });
    }

    /** Rough duration of the next step, for the prefetch deadline. */
    Tick
    estimateStepCycles(Idx j) const
    {
        Idx probe = std::min(j, steps - 1);
        double os_compute =
            static_cast<double>(b.colStepNnz(probe)) * costs.os_mult /
            static_cast<double>(cfg.pe_per_core);
        double ew_compute =
            per_step_ewise / static_cast<double>(cfg.pe_per_core);
        double mem =
            (static_cast<double>(b.colStepNnz(probe)) *
                 cfg.bytes_per_nz + per_step_read_bytes) /
            dram.config().bytesPerCycle();
        return static_cast<Tick>(std::max(
                   {os_compute, ew_compute, mem,
                    static_cast<double>(kOsTreeLatency)})) + 1;
    }

    /**
     * Opportunistic CSR loading (Fig. 9): claim bandwidth left idle
     * by demand traffic for rows whose bands already unlocked, in
     * nearest-column-step-first order (the P(r) balance heuristic at
     * band granularity).
     */
    void
    doPrefetch(Idx j, Tick now)
    {
        if (!cfg.eager_csr || !buffer)
            return;
        const Tick deadline = now + estimateStepCycles(j + 1);
        Idx budget_elems = static_cast<Idx>(
            static_cast<double>(dram.idleBytesBefore(now, deadline)) /
            cfg.bytes_per_nz);
        if (budget_elems <= 0)
            return;

        Idx taken_total = 0;
        const Idx horizon = std::min<Idx>(steps, j + 2 + 64);
        for (Idx cs = j + 2; cs < horizon && budget_elems > 0; ++cs) {
            Idx avail = prefetchable[static_cast<std::size_t>(cs)];
            if (avail <= 0)
                continue;
            Idx want = std::min(avail, budget_elems);
            Idx admitted = buffer->addPrefetch(want);
            stats.prefetch_denied_elems += want - admitted;
            if (admitted <= 0)
                break;
            prefetched[static_cast<std::size_t>(cs)] += admitted;
            prefetchable[static_cast<std::size_t>(cs)] -= admitted;
            budget_elems -= admitted;
            taken_total += admitted;
        }
        // Reload-ahead: evicted rows of the bands about to unlock
        // are re-fetched with leftover bandwidth (the paper's P(r)
        // heuristic at band granularity), instead of stalling the
        // IS core with a demand fetch at unlock time.
        Idx reload_taken = 0;
        const Idx reload_horizon =
            std::min<Idx>(bands, j + 1 - cfg.lag + 16);
        for (Idx u = std::max<Idx>(0, j + 1 - cfg.lag);
             u < reload_horizon && budget_elems > 0; ++u) {
            Idx ev = buffer->takeEvicted(u);
            if (ev <= 0)
                continue;
            Idx want = std::min(ev, budget_elems);
            Idx admitted = buffer->addPrefetch(want);
            stats.prefetch_denied_elems += want - admitted;
            if (admitted < ev)
                buffer->returnEvicted(u, ev - admitted);
            if (admitted <= 0)
                break;
            pre_reloaded[static_cast<std::size_t>(u)] += admitted;
            ++stats.reload_ahead_events;
            budget_elems -= admitted;
            reload_taken += admitted;
        }
        if (taken_total > 0) {
            Idx bytes = roundBytes(static_cast<double>(taken_total) *
                                   cfg.bytes_per_nz);
            dram.access(now, bytes, false);
            stats.prefetch_bytes += bytes;
            // Rows are unlocked, so the IS core scatters them on
            // arrival.
            is_arrival[static_cast<std::size_t>(
                std::min<Idx>(j, total - 1))] +=
                static_cast<double>(taken_total);
        }
        if (reload_taken > 0) {
            Idx bytes = roundBytes(static_cast<double>(reload_taken) *
                                   cfg.bytes_per_nz);
            dram.access(now, bytes, false);
            stats.reload_bytes += bytes;
        }
    }

    void
    execute(Stage s, Idx j)
    {
        const Tick now = eq.now();
        // Budget poll: stage launches can be arbitrarily far apart in
        // simulated time (a huge column step is one launch), so the
        // launch-site check alone does not bound abort latency in
        // cycles; the run's poller does, once per cancel_poll_cycles,
        // with pollNow() so an expired deadline is seen on this very
        // poll.
        if (poller)
            poller->at(now);
        switch (s) {
          case Load: {
            const Idx nnz_j = b.colStepNnz(j);
            const Idx pre = prefetched[static_cast<std::size_t>(j)];
            const Idx demand = nnz_j - pre;
            const Idx mat_bytes = roundBytes(
                static_cast<double>(demand) * cfg.bytes_per_nz);
            const Idx vec_bytes = roundBytes(per_step_read_bytes);
            // The loader issues back-to-back requests: its own chain
            // advances when the pin transfer finishes, while the OS
            // core additionally waits for the data (read latency).
            Tick arrival =
                dram.access(now, mat_bytes + vec_bytes, false);
            data_ready[static_cast<std::size_t>(j)] = arrival;
            stats.matrix_demand_bytes += mat_bytes;
            stats.vector_bytes += vec_bytes;
            stats.prefetch_hit_elems += pre;
            stats.prefetch_miss_elems += demand;

            if (fused && buffer) {
                slice_resident[static_cast<std::size_t>(j)] =
                    buffer->loadCscSlice(demand);
                // Column -> row conversion: arrivals into unlocked
                // bands feed the IS core directly, the rest is
                // retained in CSR space.  Elements the eager loader
                // already brought in (always unlocked-band rows)
                // were IS-consumed at prefetch time, so they do not
                // arrive again here.
                //
                // Unlocked bands form a prefix of the band axis: their
                // arrivals are one prefix-sum lookup, and the locked
                // remainder walks only the occupied buckets of this
                // column step.
                const Idx unlocked = j - cfg.lag;
                const double unlocked_arrivals = static_cast<double>(
                    b.colLoadedThrough(j, unlocked));
                const auto spans = b.colSpans(j);
                auto it = std::upper_bound(
                    spans.begin(), spans.end(), unlocked,
                    [](Idx v, const BucketSpan &sp) {
                        return v < sp.at;
                    });
                for (; it != spans.end(); ++it)
                    buffer->addRowElems(it->at, it->cnt);
                is_arrival[static_cast<std::size_t>(j)] += std::max(
                    0.0, unlocked_arrivals -
                             static_cast<double>(pre));
                doPrefetch(j, now);
            }
            finish(s, j, std::max(dram.nextFree(), now + 1));
            return;
          }
          case Os: {
            const Idx nnz_j = b.colStepNnz(j);
            stats.os_elems += nnz_j;
            // The forwarding adder tree is pipelined: its depth is a
            // fill cost paid once per pass, not per sub-tensor.
            Tick dur = static_cast<Tick>(
                std::ceil(static_cast<double>(nnz_j) * costs.os_mult /
                          static_cast<double>(cfg.pe_per_core))) + 1;
            if (j == 0)
                dur += kOsTreeLatency;
            // Wait for the slice's data to arrive from DRAM.
            const Tick ready = data_ready[static_cast<std::size_t>(j)];
            if (ready > now)
                dur += ready - now;
            // Busy once the data is in; the wait before that is
            // covered by the DRAM model's read spans.
            stats.activity.push_back({std::max(now, ready), now + dur,
                                      obs::Activity::Compute});
            if (fused && buffer) {
                buffer->releaseCscSlice(
                    slice_resident[static_cast<std::size_t>(j)]);
                buffer->releasePrefetch(
                    prefetched[static_cast<std::size_t>(j)]);
            }
            finish(s, j, now + dur);
            return;
          }
          case Ew: {
            stats.ewise_ops += per_step_ewise;
            Tick dur = static_cast<Tick>(
                std::ceil(per_step_ewise /
                          static_cast<double>(cfg.pe_per_core))) + 1;
            Tick end = now + dur;
            if (!fused) {
                // Without an IS stage the pipeline writes its
                // live-outs as the e-wise results retire.  Writes
                // are posted: the pipe occupancy matters, not the
                // write-complete latency.
                const Idx wb = roundBytes(
                    costs.vector_write_bytes /
                    static_cast<double>(steps));
                dram.access(now, wb, true);
                stats.vector_bytes += wb;
            }
            stats.activity.push_back({now, end,
                                      obs::Activity::Compute});
            finish(s, j, end);
            return;
          }
          case Is: {
            const Idx u = j - cfg.lag;
            Tick end = now + 1;
            if (u >= 0 && u < bands && buffer) {
                // Band u unlocks: elements of future column steps
                // become prefetchable for the CSR loader.
                const auto spans = b.bandSpans(u);
                auto it = std::lower_bound(
                    spans.begin(), spans.end(), j + 2,
                    [](const BucketSpan &sp, Idx v) {
                        return sp.at < v;
                    });
                for (; it != spans.end(); ++it)
                    prefetchable[static_cast<std::size_t>(it->at)] +=
                        it->cnt;
                const Idx resident = buffer->consumeBand(u);
                const Idx evicted = buffer->takeEvicted(u);
                const Idx reloaded =
                    pre_reloaded[static_cast<std::size_t>(u)];
                if (reloaded > 0)
                    buffer->releasePrefetch(reloaded);
                Tick t_fetch = now;
                if (evicted > 0) {
                    ++stats.demand_reload_events;
                    // Evictions the reload-ahead path did not cover
                    // become a demand fetch that stalls the IS core.
                    const Idx rb = roundBytes(
                        static_cast<double>(evicted) *
                        cfg.bytes_per_nz);
                    t_fetch = dram.access(now, rb, false);
                    stats.reload_bytes += rb;
                }
                const Idx wb = roundBytes(per_band_write_bytes);
                dram.access(now, wb, true); // posted write
                stats.vector_bytes += wb;

                const double work =
                    static_cast<double>(resident + evicted +
                                        reloaded) +
                    is_arrival[static_cast<std::size_t>(j)];
                stats.is_elems += static_cast<Idx>(work);
                Tick dur = static_cast<Tick>(
                    std::ceil(work * costs.os_mult /
                              static_cast<double>(cfg.pe_per_core))) +
                    1;
                if (j == cfg.lag) {
                    // Scatter-network fill charged once per pass.
                    dur += kIsScatterLatency;
                }
                end = std::max(now + dur, t_fetch);
            }
            // Includes the 1-cycle fill/drain bookkeeping steps, so
            // the pipeline tail stays attributed to the cores.
            stats.activity.push_back({now, end,
                                      obs::Activity::Compute});
            finish(s, j, end);
            return;
          }
        }
        sp_panic("PassEngine: bad stage");
    }

    Tick
    run(Tick start)
    {
        stats.start = start;
        eq.schedule(start, [this] { tryLaunch(Load, 0); });
        eq.runToCompletion();
        Tick end = start;
        for (Idx j = 0; j < total; ++j) {
            for (int s = 0; s < 4; ++s) {
                if (!stageExists(static_cast<Stage>(s), j))
                    continue;
                if (!completed[static_cast<std::size_t>(j)]
                              [static_cast<std::size_t>(s)]) {
                    sp_panic("PassEngine: stage %d of step %lld never "
                             "completed (pipeline deadlock)", s,
                             static_cast<long long>(j));
                }
                end = std::max(end,
                               done[static_cast<std::size_t>(j)]
                                   [static_cast<std::size_t>(s)]);
            }
        }
        stats.end = end;
        return end;
    }
};

PassEngine::PassEngine(const SparsepipeConfig &config, DramModel &dram,
                       EventQueue &queue)
    : config_(config), dram_(dram), queue_(queue)
{
}

PassStats
PassEngine::runFused(const StepBuckets &buckets,
                     DualBufferModel &buffer, const PassCosts &costs,
                     Tick start)
{
    Run run(config_, dram_, queue_, buckets, &buffer, costs, true,
            poller_, scratch_);
    run.run(start);
    return run.stats;
}

PassStats
PassEngine::runStream(const StepBuckets &buckets,
                      const PassCosts &costs, Tick start)
{
    Run run(config_, dram_, queue_, buckets, nullptr, costs, false,
            poller_, scratch_);
    run.run(start);
    return run.stats;
}

} // namespace sparsepipe
