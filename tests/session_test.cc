/**
 * @file
 * Round-trip tests of the api::Session facade: cache stability,
 * bitwise transparency of the cached pipeline against a hand-rolled
 * one, and the external prepared-case entry point.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "api/session.hh"
#include "apps/apps.hh"
#include "core/buckets.hh"
#include "obs/metrics.hh"
#include "prep/blocked.hh"
#include "ref/executor.hh"
#include "sparse/datasets.hh"
#include "test_helpers.hh"

namespace sparsepipe {
namespace {

obs::MetricsRegistry
exportStats(const SimStats &stats)
{
    obs::MetricsRegistry reg;
    recordSimMetrics(reg, "sim", stats);
    return reg;
}

TEST(Session, CachedArtifactsAreStableReferences)
{
    api::Session session;
    const CooMatrix &raw_a = session.raw("ca");
    const CooMatrix &raw_b = session.raw("ca");
    EXPECT_EQ(&raw_a, &raw_b);

    const api::PreparedCase &pc_a =
        session.prepared("pr", "ca", ReorderKind::Locality);
    const api::PreparedCase &pc_b =
        session.prepared("pr", "ca", ReorderKind::Locality);
    EXPECT_EQ(&pc_a, &pc_b);

    // A different key is a different entry.
    const api::PreparedCase &pc_c =
        session.prepared("pr", "ca", ReorderKind::Vanilla);
    EXPECT_NE(&pc_a, &pc_c);
    EXPECT_EQ(pc_a.nnz, pc_c.nnz);
}

TEST(Session, RunRoundTripMatchesManualPipeline)
{
    api::RunRequest req;
    req.app = "sssp";
    req.dataset = "ca";
    req.reorder = ReorderKind::Locality;
    req.iters = 8;

    api::Session session;
    const api::RunReport cached = session.run(req).value();
    EXPECT_EQ(cached.app, "sssp");
    EXPECT_EQ(cached.dataset, "ca");
    EXPECT_GT(cached.nnz, 0);
    EXPECT_GT(cached.stats.cycles, 0);

    // Hand-rolled pipeline: generate, reorder, prepare, run via the
    // external prepared-case entry point.
    CooMatrix raw = generateDataset(datasetSpec("ca"),
                                    api::kDefaultSeed);
    const api::PreparedCase pc = api::prepareCase(
        req.app, api::reorderMatrix(std::move(raw), req.reorder));
    EXPECT_EQ(pc.nnz, cached.nnz);

    api::Session scratch;
    const api::RunReport manual = scratch.run(req, pc).value();
    EXPECT_EQ(exportStats(cached.stats).entries(),
              exportStats(manual.stats).entries());

    // Re-running through the cache stays deterministic.
    const api::RunReport again = session.run(req).value();
    EXPECT_EQ(exportStats(cached.stats).entries(),
              exportStats(again.stats).entries());
}

TEST(Session, BlockedFlagControlsFootprint)
{
    api::Session session;
    api::RunRequest req;
    req.app = "pr";
    req.dataset = "ca";
    req.iters = 4;

    const api::PreparedCase &pc =
        session.prepared(req.app, req.dataset, req.reorder, req.seed);
    // The blocked layout exists to beat the naive 12 B/nz storage.
    EXPECT_LT(pc.blocked_bytes_per_nz, 12.0);

    req.blocked = false;
    const api::RunReport naive = session.run(req).value();
    req.blocked = true;
    const api::RunReport blocked = session.run(req).value();
    // Smaller footprint => same or fewer demand-reload stalls, and
    // the two must not silently share a config.
    EXPECT_LE(blocked.stats.counters.demand_reload_events,
              naive.stats.counters.demand_reload_events);
}

TEST(Session, RunReturnsStatusInsteadOfDying)
{
    api::Session session;
    api::RunRequest req;
    req.app = "no-such-app";
    req.dataset = "ca";
    StatusOr<api::RunReport> bad_app = session.run(req);
    ASSERT_FALSE(bad_app.ok());
    EXPECT_EQ(bad_app.status().code(), StatusCode::InvalidInput);
    EXPECT_NE(bad_app.status().toString().find("no-such-app"),
              std::string::npos);

    req.app = "pr";
    req.dataset = "no-such-dataset";
    StatusOr<api::RunReport> bad_data = session.run(req);
    ASSERT_FALSE(bad_data.ok());
    EXPECT_EQ(bad_data.status().code(), StatusCode::InvalidInput);

    // A failed request must not poison the session for later runs.
    req.dataset = "ca";
    req.iters = 2;
    EXPECT_TRUE(session.run(req).ok());
}

TEST(Session, PreFiredTokenCancelsRun)
{
    api::Session session;
    api::RunRequest req;
    req.app = "pr";
    req.dataset = "ca";
    req.iters = 4;
    CancelToken token;
    token.cancel();
    req.cancel = &token;
    StatusOr<api::RunReport> run = session.run(req);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), StatusCode::Cancelled);
}

TEST(Session, ExpiredDeadlineRejectsBeforeAnythingRuns)
{
    api::Session session;
    api::RunRequest req;
    req.app = "pr";
    req.dataset = "ca";
    req.iters = 4;
    CancelToken token;
    token.setDeadlineAfterMs(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    req.cancel = &token;
    StatusOr<api::RunReport> run = session.run(req);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), StatusCode::DeadlineExceeded);
    // Rejected at the boundary: not even preprocessing ran.
    const api::Session::CacheStatsSnapshot stats =
        session.cacheStats();
    EXPECT_EQ(stats.prepared.misses + stats.prepared.hits, 0u);
}

// The bounded-latency contract of deadline propagation, per backend:
// with a token attached, the engine polls it at least once every
// cancel_poll_cycles of simulated time, so a deadline expiring
// mid-sim unwinds within a fixed cycle budget.
class SessionCancelPropagation
    : public ::testing::TestWithParam<backend::BackendKind>
{
};

TEST_P(SessionCancelPropagation, PollCadenceBoundsAbortLatency)
{
    api::Session session;
    api::RunRequest req;
    req.app = "pr";
    req.dataset = "ca";
    req.iters = 8;
    req.backend = GetParam();
    req.sp.cancel_poll_cycles = 512;

    // Baseline without a token: zero polls, and the stats below pin
    // that attaching a never-firing token is free.
    const api::RunReport plain = session.run(req).value();
    EXPECT_EQ(plain.stats.counters.cancel_polls, 0);

    CancelToken token; // never fired, no deadline
    req.cancel = &token;
    const api::RunReport polled = session.run(req).value();
    EXPECT_EQ(polled.stats.cycles, plain.stats.cycles);
    EXPECT_EQ(polled.stats.counters.demand_reload_events,
              plain.stats.counters.demand_reload_events);

    // The budget polls alone guarantee one poll per
    // cancel_poll_cycles window; launch/iteration-site polls only
    // add to that.  Halve the bound to stay robust against the final
    // partial window and event-time jumps.
    const Idx windows =
        polled.stats.cycles / req.sp.cancel_poll_cycles;
    EXPECT_GE(polled.stats.counters.cancel_polls,
              std::max<Idx>(1, windows / 2))
        << "cycles=" << polled.stats.cycles;
}

TEST_P(SessionCancelPropagation, MidSimDeadlineReturnsDeadlineExceeded)
{
    api::Session session;
    api::RunRequest req;
    req.app = "pr";
    req.dataset = "co";
    req.iters = 400; // long enough to be mid-flight when it expires
    req.backend = GetParam();
    req.sp.cancel_poll_cycles = 512;

    CancelToken token;
    req.cancel = &token;
    token.setDeadlineAfterMs(20);
    StatusOr<api::RunReport> run = session.run(req);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), StatusCode::DeadlineExceeded);

    // The session is not poisoned: the same request without the
    // token completes.
    req.cancel = nullptr;
    req.iters = 2;
    EXPECT_TRUE(session.run(req).ok());
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, SessionCancelPropagation,
    ::testing::Values(backend::BackendKind::Sparsepipe,
                      backend::BackendKind::Gamma),
    [](const ::testing::TestParamInfo<backend::BackendKind> &info) {
        return std::string(backend::backendName(info.param));
    });

TEST(Session, BindWorkspaceBindsBothCompressedForms)
{
    api::Session session;
    const api::PreparedCase &pc =
        session.prepared("pr", "ca", ReorderKind::Vanilla);
    Workspace ws = api::Session::bindWorkspace(pc);
    const CsrMatrix &csr = ws.csr(pc.app.matrix);
    const CscMatrix &csc = ws.csc(pc.app.matrix);
    EXPECT_EQ(csr.nnz(), pc.nnz);
    EXPECT_EQ(csc.nnz(), pc.nnz);
    EXPECT_EQ(csr.rows(), csc.rows());
    EXPECT_EQ(csr.cols(), csc.cols());
    // The workspace shares the cached pair's arrays instead of
    // copying them.
    EXPECT_EQ(csr.vals().data(), pc.csr.vals().data());
    EXPECT_EQ(csc.vals().data(), pc.csc.vals().data());
}

TEST(Session, OwningBindKeepsATemporaryOperandAlive)
{
    api::Session session;
    const api::PreparedCase &pc =
        session.prepared("pr", "gy", ReorderKind::Vanilla);

    // The operand is a temporary, gone once the bind returns; the
    // workspace must hold its own copy of the pair.
    Workspace owned(pc.app.program);
    owned.bindMatrix(pc.app.matrix, CsrMatrix::fromCoo(pc.csr.toCoo()));
    pc.app.init(owned);
    EXPECT_NE(owned.csr(pc.app.matrix).vals().data(), pc.csr.vals().data());
    EXPECT_EQ(owned.csr(pc.app.matrix), pc.csr);
    EXPECT_EQ(owned.csc(pc.app.matrix), pc.csc);

    Workspace shared = api::Session::bindWorkspace(pc);
    RefExecutor().run(owned, 6);
    RefExecutor().run(shared, 6);
    EXPECT_EQ(owned.vec(pc.app.result), shared.vec(pc.app.result));
}

TEST(Session, ConcurrentRunsShareOnePreparedDataset)
{
    // The serve daemon funnels every tenant through one Session, so
    // concurrent run() calls on the same key must be safe and must
    // prepare the operand exactly once.  Runs under the TSan CI job.
    api::Session session;
    constexpr int kThreads = 8;
    std::vector<std::thread> threads;
    std::vector<StatusOr<api::RunReport>> reports(
        kThreads, Status(StatusCode::Internal, "unset"));
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&session, &reports, i] {
            api::RunRequest req;
            req.app = "pr";
            req.dataset = "ca";
            req.iters = 4;
            reports[i] = session.run(req);
        });
    }
    for (std::thread &t : threads)
        t.join();

    ASSERT_TRUE(reports[0].ok()) << reports[0].status().toString();
    for (int i = 1; i < kThreads; ++i) {
        ASSERT_TRUE(reports[i].ok())
            << reports[i].status().toString();
        // Identical requests through the shared caches are bitwise
        // deterministic.
        EXPECT_EQ(reports[i]->stats.cycles,
                  reports[0]->stats.cycles);
        EXPECT_EQ(reports[i]->nnz, reports[0]->nnz);
    }
    const api::Session::CacheStatsSnapshot stats =
        session.cacheStats();
    EXPECT_EQ(stats.prepared.misses, 1u);
    EXPECT_EQ(stats.prepared.hits,
              static_cast<std::uint64_t>(kThreads - 1));
}

TEST(Session, ConcurrentMixedKeysWithEvictingPreparedCache)
{
    // Bound the prepared layer below the working set so eviction
    // happens *during* concurrent runs; preparedShared pinning must
    // keep every in-flight operand alive.
    api::Session session;
    session.setCacheCapacities(2, 2, 2);
    const struct
    {
        const char *app;
        const char *dataset;
    } kCases[] = {{"pr", "ca"}, {"bfs", "gy"}, {"sssp", "ca"},
                  {"pr", "g2"}};
    constexpr int kRounds = 3;

    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    for (const auto &c : kCases) {
        threads.emplace_back([&session, &failures, c] {
            for (int round = 0; round < kRounds; ++round) {
                api::RunRequest req;
                req.app = c.app;
                req.dataset = c.dataset;
                req.iters = 4;
                StatusOr<api::RunReport> run = session.run(req);
                if (!run.ok() || run->stats.cycles <= 0)
                    failures.fetch_add(1);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(failures.load(), 0);
    // Four distinct keys through a 2-entry bound: eviction must have
    // fired, and every lookup still resolved.
    const api::Session::CacheStatsSnapshot stats =
        session.cacheStats();
    EXPECT_GT(stats.prepared.evictions, 0u);
    EXPECT_GE(stats.prepared.misses, 4u);
}

TEST(Session, ZeroEntryOperandRunsOnEveryBackend)
{
    // A valid operand with no entries: its blocked layout reports 0
    // bytes per non-zero, which both engines must accept.
    const api::PreparedCase pc = api::prepareCase("pr", CooMatrix(40, 40));
    EXPECT_EQ(pc.nnz, 0);
    EXPECT_EQ(pc.blocked_bytes_per_nz, 0.0);
    api::Session session;
    for (backend::BackendKind kind : backend::registeredBackends()) {
        api::RunRequest req;
        req.app = "pr";
        req.dataset = "zero-entries";
        req.iters = 4;
        req.backend = kind;
        StatusOr<api::RunReport> run = session.run(req, pc);
        ASSERT_TRUE(run.ok()) << backend::backendName(kind) << ": "
                              << run.status().toString();
        EXPECT_EQ(run->stats.attribution.totalCycles(),
                  run->stats.cycles);
    }
}

// ---------------------------------------------------------------
// The functional memo
// ---------------------------------------------------------------

/** `req` on `pc` through a freshly bound workspace and both engine
 *  stages, bypassing the memo: what Session::run did before it. */
SimStats
twoStageRun(const api::RunRequest &req, const api::PreparedCase &pc)
{
    SparsepipeConfig cfg = req.sp;
    cfg.bytes_per_nz = req.blocked ? pc.blocked_bytes_per_nz : 12.0;
    Workspace ws = api::Session::bindWorkspace(pc);
    return backend::makeEngine(req.backend, cfg)
        ->run(ws, req.iters > 0 ? req.iters : pc.app.default_iters);
}

TEST(FunctionalMemo, HitEqualsTheTwoStageRunAcrossSweepAxes)
{
    // sweep_warm's axes: buffer sizes on both sides of the working
    // set, the iso-GPU bandwidth ladder and the iso-CPU memory
    // system for sparsepipe, the buffer sizes for gamma.  The first
    // run of each case misses, whichever backend it runs; every other
    // one, on either backend, replays the memoized outcome and must
    // equal a full two-stage run bit for bit.  bfs converges before
    // its default iteration count.  gcn has no convergence test, so
    // its runs make no lookup at all.
    struct Point
    {
        bool iso_cpu;
        double bandwidth_gb_s;
        Idx buffer_kb;
    };
    std::vector<Point> points;
    for (Idx kb : {Idx{256}, Idx{6144}}) {
        for (double bw : {126.0, 504.0})
            points.push_back({false, bw, kb});
        points.push_back({true, 40.0, kb});
    }

    api::Session session;
    std::uint64_t lookups = 0, keys = 0;
    const struct
    {
        const char *app;
        const char *dataset;
        Idx iters;
    } kCases[] = {{"pr", "gy", 8}, {"bfs", "gy", 0}, {"gcn", "gy", 0},
                  {"cg", "ca", 8}};
    for (const auto &c : kCases) {
        const api::PreparedCase &pc =
            session.prepared(c.app, c.dataset, ReorderKind::Vanilla);
        const bool memoized = pc.app.program.hasConvergence();
        keys += memoized;
        for (backend::BackendKind kind : backend::registeredBackends()) {
            for (const Point &pt : points) {
                if (kind == backend::BackendKind::Gamma &&
                    (pt.iso_cpu || pt.bandwidth_gb_s != 504.0))
                    continue;
                api::RunRequest req;
                req.app = c.app;
                req.dataset = c.dataset;
                req.iters = c.iters;
                req.backend = kind;
                req.sp = pt.iso_cpu ? SparsepipeConfig::isoCpu()
                                    : SparsepipeConfig::isoGpu();
                req.sp.dram.bandwidth_gb_s = pt.bandwidth_gb_s;
                req.sp.buffer_bytes = pt.buffer_kb * 1024;
                const std::string label =
                    std::string(c.app) + "-" + c.dataset + " " +
                    backend::backendName(kind) +
                    (pt.iso_cpu ? " cpu " : " gpu ") +
                    std::to_string(pt.bandwidth_gb_s) + " GB/s " +
                    std::to_string(pt.buffer_kb) + " KiB";
                const api::RunReport report = session.run(req).value();
                lookups += memoized;
                testing::expectSameSimStats(report.stats,
                                            twoStageRun(req, pc), label);
            }
        }
    }
    const api::Session::CacheStatsSnapshot stats = session.cacheStats();
    EXPECT_EQ(stats.functional.misses, keys);
    EXPECT_EQ(stats.functional.hits, lookups - keys);
    EXPECT_EQ(stats.functional.evictions, 0u);
}

TEST(FunctionalMemo, ValueFreeProgramsMakeNoLookup)
{
    // kpp, knn, gcn and gmres have no convergence test, so every run
    // of them ends in valueFreeOutcome: Session::run times it without
    // binding a workspace, looking up or publishing, and still equals
    // the two-stage run bit for bit.
    api::Session session;
    for (const char *app : {"kpp", "knn", "gcn", "gmres"}) {
        for (const char *dataset : {"gy", "ca"}) {
            const api::PreparedCase &pc =
                session.prepared(app, dataset, ReorderKind::Vanilla);
            ASSERT_TRUE(
                valueFreeOutcome(pc.app.program, pc.app.default_iters))
                << app;
            for (backend::BackendKind kind :
                 backend::registeredBackends()) {
                api::RunRequest req;
                req.app = app;
                req.dataset = dataset;
                req.backend = kind;
                const std::string label = std::string(app) + "-" +
                                          dataset + " " +
                                          backend::backendName(kind);
                const api::RunReport report = session.run(req).value();
                EXPECT_EQ(report.stats.iterations, pc.app.default_iters)
                    << label;
                EXPECT_FALSE(report.stats.converged) << label;
                testing::expectSameSimStats(report.stats,
                                            twoStageRun(req, pc), label);
            }
            EXPECT_FALSE(pc.functional.find(pc.app.default_iters))
                << app << "-" << dataset;
        }
    }
    const api::Session::CacheStatsSnapshot stats = session.cacheStats();
    EXPECT_EQ(stats.functional.hits, 0u);
    EXPECT_EQ(stats.functional.misses, 0u);
    EXPECT_EQ(stats.functional.evictions, 0u);
}

TEST(FunctionalMemo, KeyedByMaxIters)
{
    api::Session session;
    api::RunRequest req;
    req.app = "pr";
    req.dataset = "gy";
    req.iters = 4;
    ASSERT_TRUE(session.run(req).ok());
    req.iters = 6; // another max_iters: another key
    ASSERT_TRUE(session.run(req).ok());
    EXPECT_EQ(session.cacheStats().functional.misses, 2u);
    EXPECT_EQ(session.cacheStats().functional.hits, 0u);

    // The backend, the blocked / naive footprint and the lane
    // override change no key.
    req.backend = backend::BackendKind::Gamma;
    ASSERT_TRUE(session.run(req).ok());
    req.blocked = false;
    req.lanes = 1;
    ASSERT_TRUE(session.run(req).ok());
    EXPECT_EQ(session.cacheStats().functional.misses, 2u);
    EXPECT_EQ(session.cacheStats().functional.hits, 2u);

    const api::PreparedCase &pc =
        session.prepared("pr", "gy", ReorderKind::Vanilla);
    const std::optional<RunResult> memo = pc.functional.find(6);
    ASSERT_TRUE(memo.has_value());
    EXPECT_EQ(memo->iterations, 6);

    // A copy of a case may be edited, so it starts with no outcomes.
    const api::PreparedCase copy = pc;
    EXPECT_FALSE(copy.functional.find(6));
}

TEST(FunctionalMemo, BackendsShareOneOutcomeInEitherOrder)
{
    // Every backend runs the same functional stage, so the first run
    // of a case computes its values under whichever backend asks
    // first, and a run of the other backend is a hit.  Each run
    // equals a fresh two-stage run.  pr stops at its iteration cap,
    // bfs and cg at their convergence tests.
    const std::vector<backend::BackendKind> &kinds =
        backend::registeredBackends();
    for (bool sparsepipe_first : {true, false}) {
        api::Session session;
        std::uint64_t cases = 0;
        for (const char *app : {"pr", "bfs", "cg"}) {
            const api::PreparedCase &pc =
                session.prepared(app, "gy", ReorderKind::Vanilla);
            ++cases;
            for (std::size_t i = 0; i < kinds.size(); ++i) {
                api::RunRequest req;
                req.app = app;
                req.dataset = "gy";
                req.backend = kinds[sparsepipe_first
                                        ? i
                                        : kinds.size() - 1 - i];
                const std::string label =
                    std::string(app) + " " +
                    backend::backendName(req.backend) +
                    (i == 0 ? " first" : " second");
                const api::RunReport report = session.run(req).value();
                testing::expectSameSimStats(report.stats,
                                            twoStageRun(req, pc), label);
                const api::Session::CacheStatsSnapshot stats =
                    session.cacheStats();
                EXPECT_EQ(stats.functional.misses, cases) << label;
                EXPECT_EQ(stats.functional.hits,
                          (cases - 1) * (kinds.size() - 1) + i)
                    << label;
            }
        }
    }
}

TEST(FunctionalMemo, FullMemoDropsItsOldestEntry)
{
    const api::PreparedCase pc =
        api::prepareCase("pr", CooMatrix(40, 40));
    api::Session session;
    api::RunRequest req;
    req.app = "pr";
    req.dataset = "empty";
    const Idx n = static_cast<Idx>(api::FunctionalMemo::kCapacity) + 1;
    for (Idx iters = 1; iters <= n; ++iters) {
        req.iters = iters;
        ASSERT_TRUE(session.run(req, pc).ok());
    }
    const api::Session::CacheStatsSnapshot stats = session.cacheStats();
    EXPECT_EQ(stats.functional.misses, static_cast<std::uint64_t>(n));
    EXPECT_EQ(stats.functional.evictions, 1u);
    EXPECT_FALSE(pc.functional.find(1));
    EXPECT_TRUE(pc.functional.find(n));
}

TEST(FunctionalMemo, RacingMissesBothPublishTheSameOutcome)
{
    // Session::run's miss path, from two threads that both look up
    // before either publishes (the barrier): neither waits for the
    // other, both compute, both publish, and the outcomes agree.
    api::Session session;
    const api::PreparedCase &pc =
        session.prepared("pr", "gy", ReorderKind::Vanilla);
    const Idx max_iters = pc.app.default_iters;
    std::barrier sync(2);
    RunResult outcome[2];
    bool missed[2] = {false, false};
    std::vector<std::thread> threads;
    for (int i = 0; i < 2; ++i) {
        threads.emplace_back([&, i] {
            missed[i] = !pc.functional.find(max_iters);
            sync.arrive_and_wait();
            Workspace ws = api::Session::bindWorkspace(pc);
            outcome[i] = backend::makeEngine(
                             backend::BackendKind::Sparsepipe,
                             SparsepipeConfig::isoGpu())
                             ->runFunctional(ws, max_iters);
            pc.functional.publish(max_iters, outcome[i]);
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_TRUE(missed[0] && missed[1]);
    EXPECT_EQ(outcome[0].iterations, outcome[1].iterations);
    EXPECT_EQ(outcome[0].converged, outcome[1].converged);
    const std::optional<RunResult> memo = pc.functional.find(max_iters);
    ASSERT_TRUE(memo.has_value());
    EXPECT_EQ(memo->iterations, outcome[0].iterations);

    // The Session's next run of the key is a hit.
    api::RunRequest req;
    req.app = "pr";
    req.dataset = "gy";
    const api::RunReport report = session.run(req).value();
    EXPECT_EQ(report.stats.iterations, outcome[0].iterations);
    EXPECT_EQ(session.cacheStats().functional.hits, 1u);
    EXPECT_EQ(session.cacheStats().functional.misses, 0u);
}

TEST(FunctionalMemo, ConcurrentRunsOfOneKeyAgree)
{
    // Runs under the TSan CI job: the memo's lookups and publishes
    // race with each other and with the timing stages reading the
    // shared operand.
    api::Session session;
    constexpr int kThreads = 6;
    std::vector<std::thread> threads;
    std::vector<StatusOr<api::RunReport>> reports(
        kThreads, Status(StatusCode::Internal, "unset"));
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&session, &reports, i] {
            api::RunRequest req;
            req.app = "bfs";
            req.dataset = "gy";
            req.sp.buffer_bytes = (256 << 10) * (1 + i % 3);
            reports[i] = session.run(req);
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (int i = 0; i < kThreads; ++i) {
        ASSERT_TRUE(reports[i].ok()) << reports[i].status().toString();
        EXPECT_EQ(reports[i]->stats.iterations,
                  reports[0]->stats.iterations);
        // Same buffer size, same stats, hit or miss.
        if (i >= 3) {
            EXPECT_EQ(reports[i]->stats.cycles,
                      reports[i - 3]->stats.cycles);
        }
    }
    const api::Session::CacheStatsSnapshot stats = session.cacheStats();
    EXPECT_GE(stats.functional.misses, 1u);
    EXPECT_EQ(stats.functional.hits + stats.functional.misses,
              static_cast<std::uint64_t>(kThreads));
}

TEST(FunctionalMemo, CancelledRunPublishesNothing)
{
    // pr's program, stopping once its residual (a sum of absolute
    // differences) drops below 0: a convergence test its values never
    // meet, so the run goes on until the deadline and the functional
    // stage's per-iteration poll unwinds it mid-way.
    api::Session session;
    api::PreparedCase pc =
        session.prepared("pr", "gy", ReorderKind::Vanilla);
    pc.app.program.setConvergence(pc.app.program.convergenceScalar(),
                                  0.0);
    api::RunRequest req;
    req.app = "pr";
    req.dataset = "gy";
    req.iters = 1000000;
    CancelToken token;
    req.cancel = &token;
    token.setDeadlineAfterMs(100);
    StatusOr<api::RunReport> run = session.run(req, pc);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), StatusCode::DeadlineExceeded);
    EXPECT_EQ(session.cacheStats().functional.misses, 1u);
    EXPECT_FALSE(pc.functional.find(req.iters));

    // knn has no convergence test: its run is timing-only, and the
    // pass engine's polls unwind it.
    const api::PreparedCase &knn =
        session.prepared("knn", "gy", ReorderKind::Vanilla);
    req.app = "knn";
    CancelToken knn_token;
    req.cancel = &knn_token;
    knn_token.setDeadlineAfterMs(100);
    run = session.run(req, knn);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), StatusCode::DeadlineExceeded);
    EXPECT_EQ(session.cacheStats().functional.misses, 1u);
    EXPECT_FALSE(knn.functional.find(req.iters));
}

// ---------------------------------------------------------------
// Operands shared across apps
// ---------------------------------------------------------------

/** The operand fields of `a` and `b` hold equal contents. */
void
expectSameOperand(const api::PreparedOperand &a,
                  const api::PreparedOperand &b, const std::string &label)
{
    EXPECT_TRUE(a.csr == b.csr) << label;
    EXPECT_TRUE(a.csc == b.csc) << label;
    EXPECT_EQ(a.blocked_bytes_per_nz, b.blocked_bytes_per_nz) << label;
    EXPECT_EQ(a.nnz, b.nnz) << label;
}

TEST(Session, AppsOfOneKindShareOneOperand)
{
    // The 11 apps use 4 prepare kinds: 4 operands, each built once
    // and shared (same arrays) by the apps of its kind.
    api::Session session;
    const CooMatrix reordered =
        session.reordered("gy", ReorderKind::Vanilla).csr.toCoo();
    std::map<PrepareKind, const api::PreparedCase *> first_of_kind;
    for (const AppInfo &info : appInfos()) {
        const api::PreparedCase &pc =
            session.prepared(info.name, "gy", ReorderKind::Vanilla);
        expectSameOperand(pc, api::prepareCase(info.name, reordered),
                          info.name);
        const auto [first, inserted] =
            first_of_kind.emplace(pc.app.prepare.kind, &pc);
        if (inserted)
            continue;
        EXPECT_EQ(pc.csr.vals().data(), first->second->csr.vals().data())
            << info.name;
        EXPECT_EQ(pc.csc.vals().data(), first->second->csc.vals().data())
            << info.name;
        EXPECT_EQ(pc.pattern, first->second->pattern) << info.name;
    }
    ASSERT_EQ(first_of_kind.size(), 4u);
    // The three value kinds share one pattern's index arrays and keep
    // their own values; SPD's A + A^T shares neither.
    const auto spd = [](PrepareKind kind) {
        return kind == PrepareKind::Spd;
    };
    for (const auto &[kind_a, a] : first_of_kind) {
        for (const auto &[kind_b, b] : first_of_kind) {
            if (kind_a == kind_b)
                continue;
            const bool one_pattern = !spd(kind_a) && !spd(kind_b);
            EXPECT_NE(a->csr.vals().data(), b->csr.vals().data());
            EXPECT_NE(a->csc.vals().data(), b->csc.vals().data());
            EXPECT_EQ(a->csr.colIdx().data() == b->csr.colIdx().data(),
                      one_pattern);
            EXPECT_EQ(a->csr.rowPtr().data() == b->csr.rowPtr().data(),
                      one_pattern);
            EXPECT_EQ(a->csc.rowIdx().data() == b->csc.rowIdx().data(),
                      one_pattern);
            EXPECT_EQ(a->csc.colPtr().data() == b->csc.colPtr().data(),
                      one_pattern);
            EXPECT_EQ(a->pattern == b->pattern, one_pattern);
        }
    }
    for (const auto &[kind, pc] : first_of_kind) {
        ASSERT_NE(pc->pattern, nullptr);
        EXPECT_EQ(pc->csr.pattern(), pc->pattern->csr);
        EXPECT_EQ(pc->csc.pattern(), pc->pattern->csc);
        EXPECT_EQ(pc->blocked_bytes_per_nz,
                  pc->pattern->blocked_bytes_per_nz);
    }
    const api::Session::CacheStatsSnapshot stats = session.cacheStats();
    EXPECT_EQ(stats.pattern.misses, 1u);
    EXPECT_EQ(stats.pattern.hits, 2u);
    EXPECT_EQ(stats.operand.misses, 4u);
    EXPECT_EQ(stats.operand.hits, 7u);
    EXPECT_EQ(stats.prepared.misses, 11u);
    EXPECT_EQ(stats.prepared.hits, 0u);

    // Another reorder or seed of the dataset is another operand.
    const api::PreparedCase *pr = first_of_kind.at(PrepareKind::Stochastic);
    for (const auto &[reorder, seed] :
         {std::pair{ReorderKind::Locality, api::kDefaultSeed},
          std::pair{ReorderKind::Vanilla, std::uint64_t{7}}}) {
        const api::PreparedCase &other =
            session.prepared("label", "gy", reorder, seed);
        expectSameOperand(
            other,
            api::prepareCase(
                "label", session.reordered("gy", reorder, seed).csr.toCoo()),
            "label");
        EXPECT_NE(other.csr.vals().data(), pr->csr.vals().data());
    }
    EXPECT_EQ(session.cacheStats().operand.misses, 6u);
}

TEST(Session, SpdOperandKeepsAPatternOfItsOwn)
{
    // cg's SPD operand stores other coordinates than the matrix, so
    // it builds its own pattern without touching the pattern layer,
    // and its CSC form reads its CSR's arrays.  The value kinds
    // prepared after it share the layer's, which reads the reordered
    // matrix's arrays.
    api::Session session;
    const api::PreparedCase &cg =
        session.prepared("cg", "ca", ReorderKind::Vanilla);
    const api::PreparedCase &pr =
        session.prepared("pr", "ca", ReorderKind::Vanilla);
    const api::PreparedCase &bfs =
        session.prepared("bfs", "ca", ReorderKind::Vanilla);
    EXPECT_NE(cg.pattern, pr.pattern);
    EXPECT_EQ(pr.pattern, bfs.pattern);
    EXPECT_EQ(session.cacheStats().pattern.misses, 1u);
    EXPECT_EQ(session.cacheStats().pattern.hits, 1u);
    EXPECT_EQ(cg.csc.pattern(), cg.csr.pattern());
    EXPECT_EQ(cg.csc.vals().data(), cg.csr.vals().data());
    const api::ReorderedMatrix &matrix =
        session.reordered("ca", ReorderKind::Vanilla);
    EXPECT_EQ(pr.pattern->csr, matrix.csr.pattern());
    EXPECT_EQ(pr.pattern->csc, matrix.csc.pattern());
    const CooMatrix reordered = matrix.csr.toCoo();
    EXPECT_EQ(*pr.pattern->csr,
              *Prepare{PrepareKind::Boolean}(reordered).pattern());
    expectSameOperand(pr, api::prepareCase("pr", reordered), "pr");
    expectSameOperand(bfs, api::prepareCase("bfs", reordered), "bfs");
    expectSameOperand(cg, api::prepareCase("cg", reordered), "cg");
}

TEST(Session, OperandsMatchTheCooPrepareOnEveryStandIn)
{
    // Every app's operand, derived from the reordered layer's two
    // forms, against the COO path: the reordered COO, the app's
    // Prepare on it, and a full transpose.  One Session per matrix
    // keeps the resident set to one stand-in's.
    for (const DatasetSpec &spec : datasetSpecs()) {
        for (ReorderKind reorder : {ReorderKind::None, ReorderKind::Vanilla,
                                    ReorderKind::Locality}) {
            api::Session session;
            const CooMatrix coo =
                api::reorderMatrix(session.raw(spec.name), reorder);
            std::map<PrepareKind, std::pair<CsrMatrix, CscMatrix>> want;
            for (const AppInfo &info : appInfos()) {
                const std::string label = info.name + "-" + spec.name + "-" +
                                          reorderKindName(reorder);
                const api::PreparedCase &pc =
                    session.prepared(info.name, spec.name, reorder);
                const PrepareKind kind = pc.app.prepare.kind;
                auto it = want.find(kind);
                if (it == want.end()) {
                    CsrMatrix csr = Prepare{kind}(coo);
                    CscMatrix csc = CscMatrix::fromCsr(csr);
                    it = want.emplace(kind, std::pair{std::move(csr),
                                                      std::move(csc)})
                             .first;
                }
                EXPECT_TRUE(testing::sameArrays(pc.csr, it->second.first))
                    << label;
                EXPECT_TRUE(testing::sameArrays(pc.csc, it->second.second))
                    << label;
                EXPECT_EQ(pc.nnz, pc.csr.nnz()) << label;
                if (kind == PrepareKind::Spd) {
                    EXPECT_EQ(pc.csc.pattern(), pc.csr.pattern()) << label;
                    EXPECT_EQ(pc.csc.vals().data(), pc.csr.vals().data())
                        << label;
                }
            }
        }
    }
}

TEST(Session, PrepareCaseOnMessyCooUsesTheCooPrepare)
{
    // prepareCase takes any COO: duplicates, explicit zeros, any
    // order.  Its operand is the COO Prepare, its CSC the full
    // transpose and its blocked sizing that of the prepared CSR.
    Rng rng(5);
    CooMatrix messy(40, 40);
    for (int k = 0; k < 500; ++k)
        messy.add(static_cast<Idx>(rng.nextBelow(40)),
                  static_cast<Idx>(rng.nextBelow(40)),
                  k % 5 == 0 ? 0.0 : rng.nextDouble() - 0.25);
    ASSERT_FALSE(messy.isCanonical());
    for (const char *app : {"bfs", "pr", "sssp", "cg"}) {
        const api::PreparedCase pc = api::prepareCase(app, messy);
        const CsrMatrix want = pc.app.prepare(messy);
        EXPECT_TRUE(testing::sameArrays(pc.csr, want)) << app;
        EXPECT_TRUE(testing::sameArrays(pc.csc, CscMatrix::fromCsr(want)))
            << app;
        EXPECT_EQ(pc.blocked_bytes_per_nz,
                  buildBlockedLayout(want).value().bytesPerNonzero())
            << app;
        EXPECT_EQ(pc.nnz, want.nnz()) << app;
    }
}

TEST(Session, ResidentOperandNeedsNoReorderedMatrix)
{
    // With one raw and one reordered entry, preparing ca evicts gy's
    // matrices; label on gy then finds pr's operand resident and must
    // not generate or reorder gy again.
    api::Session session;
    session.setCacheCapacities(1, 1, 4);
    session.prepared("pr", "gy", ReorderKind::Vanilla);
    session.prepared("pr", "ca", ReorderKind::Vanilla);
    session.prepared("label", "gy", ReorderKind::Vanilla);
    const api::Session::CacheStatsSnapshot stats = session.cacheStats();
    EXPECT_EQ(stats.operand.hits, 1u);
    EXPECT_EQ(stats.reordered.misses, 2u);
    EXPECT_EQ(stats.raw.misses, 2u);
}

TEST(Session, RebuiltReorderedMatrixLeavesEveryOperandOnItsOwnArrays)
{
    // One reordered entry: preparing ca evicts gy's reordered matrix
    // while the pattern layer keeps gy's pattern.  bfs on gy then
    // rebuilds the matrix, whose arrays are not the layer's: its
    // operand must name the pattern its arrays read, and still equal
    // the COO path.
    api::Session session;
    session.setCacheCapacities(1, 1, 8);
    const api::PreparedCase &pr =
        session.prepared("pr", "gy", ReorderKind::Vanilla);
    session.prepared("pr", "ca", ReorderKind::Vanilla);
    const api::PreparedCase &bfs =
        session.prepared("bfs", "gy", ReorderKind::Vanilla);
    const api::Session::CacheStatsSnapshot stats = session.cacheStats();
    EXPECT_EQ(stats.reordered.misses, 3u);
    EXPECT_EQ(stats.pattern.hits, 1u);
    for (const api::PreparedCase *pc : {&pr, &bfs}) {
        EXPECT_EQ(pc->csr.pattern(), pc->pattern->csr);
        EXPECT_EQ(pc->csc.pattern(), pc->pattern->csc);
    }
    EXPECT_NE(bfs.pattern, pr.pattern);
    const CooMatrix reordered =
        session.reordered("gy", ReorderKind::Vanilla).csr.toCoo();
    expectSameOperand(bfs, api::prepareCase("bfs", reordered), "bfs");
    expectSameOperand(pr, api::prepareCase("pr", reordered), "pr");
}

TEST(FunctionalMemo, AppsSharingAnOperandKeepTheirOwnMemos)
{
    api::Session session;
    const api::PreparedCase &pr =
        session.prepared("pr", "gy", ReorderKind::Vanilla);
    const api::PreparedCase &label =
        session.prepared("label", "gy", ReorderKind::Vanilla);
    ASSERT_EQ(pr.csr.vals().data(), label.csr.vals().data());

    api::RunRequest req;
    req.dataset = "gy";
    req.iters = 6;
    for (const char *app : {"pr", "label", "pr", "label"}) {
        req.app = app;
        const api::PreparedCase &pc = req.app == "pr" ? pr : label;
        testing::expectSameSimStats(session.run(req).value().stats,
                                    twoStageRun(req, pc), app);
    }
    // label's first run misses: pr's outcome is not label's.
    const api::Session::CacheStatsSnapshot stats = session.cacheStats();
    EXPECT_EQ(stats.functional.misses, 2u);
    EXPECT_EQ(stats.functional.hits, 2u);
    EXPECT_TRUE(pr.functional.find(6));
    EXPECT_TRUE(label.functional.find(6));
}

TEST(Session, EvictedOperandLeavesItsCasesArraysIntact)
{
    // Runs under the ASan CI job: with every layer bounded to one
    // entry, preparing bfs evicts pr's case and its operand, and the
    // case pr's caller still pins must own its arrays.
    api::Session session;
    session.setCacheCapacities(1, 1, 1);
    const std::shared_ptr<const api::PreparedCase> pr =
        session.preparedShared("pr", "gy", ReorderKind::Vanilla);
    const std::shared_ptr<const api::PreparedCase> bfs =
        session.preparedShared("bfs", "gy", ReorderKind::Vanilla);
    api::Session::CacheStatsSnapshot stats = session.cacheStats();
    EXPECT_EQ(stats.operand.evictions, 1u);
    EXPECT_EQ(stats.prepared.evictions, 1u);

    const CooMatrix reordered =
        session.reordered("gy", ReorderKind::Vanilla).csr.toCoo();
    const api::PreparedCase fresh = api::prepareCase("pr", reordered);
    expectSameOperand(*pr, fresh, "pr");
    expectSameOperand(*bfs, api::prepareCase("bfs", reordered), "bfs");
    api::RunRequest req;
    req.app = "pr";
    req.dataset = "gy";
    req.iters = 4;
    testing::expectSameSimStats(session.run(req, *pr).value().stats,
                                twoStageRun(req, fresh), "pr");

    // label finds the stochastic operand evicted and builds it anew.
    const std::shared_ptr<const api::PreparedCase> label =
        session.preparedShared("label", "gy", ReorderKind::Vanilla);
    stats = session.cacheStats();
    EXPECT_EQ(stats.operand.misses, 3u);
    EXPECT_NE(label->csr.vals().data(), pr->csr.vals().data());
    expectSameOperand(*label, *pr, "label");
}

TEST(Session, EvictedOperandLeavesItsCasesPatternAndBucketsAlive)
{
    // Runs under the ASan CI job: pr's run fills its pattern's bucket
    // memo; preparing cg and then bfs on another dataset evicts pr's
    // case, its operand and the pattern layer's entry.  The case pr's
    // caller pins must keep the pattern, and a rerun must read the
    // memoized buckets it holds.
    api::Session session;
    session.setCacheCapacities(1, 1, 1);
    const std::shared_ptr<const api::PreparedCase> pr =
        session.preparedShared("pr", "gy", ReorderKind::Vanilla);
    const std::weak_ptr<const api::PreparedPattern> pattern = pr->pattern;
    api::RunRequest req;
    req.app = "pr";
    req.dataset = "gy";
    req.iters = 4;
    const SimStats first = session.run(req, *pr).value().stats;
    session.preparedShared("cg", "gy", ReorderKind::Vanilla);
    session.preparedShared("bfs", "ca", ReorderKind::Vanilla);
    api::Session::CacheStatsSnapshot stats = session.cacheStats();
    EXPECT_GE(stats.pattern.evictions, 1u);
    EXPECT_GE(stats.operand.evictions, 2u);
    EXPECT_EQ(stats.buckets.misses, 1u);

    ASSERT_FALSE(pattern.expired());
    EXPECT_GT(pr->pattern->buckets.heldBytes(), 0u);
    req.iters = 6; // a functional miss, then timing on the memo
    testing::expectSameSimStats(
        session.run(req, *pr).value().stats,
        twoStageRun(req, api::prepareCase(
                             "pr", session.reordered("gy", ReorderKind::Vanilla)
                                       .csr.toCoo())),
        "pr");
    req.iters = 4;
    testing::expectSameSimStats(session.run(req, *pr).value().stats,
                                first, "pr again");
    stats = session.cacheStats();
    EXPECT_EQ(stats.buckets.misses, 1u);
    EXPECT_EQ(stats.buckets.hits, 2u);
}

/** True when the program's leading sparse op is an SpMM (gcn). */
bool
usesSpmm(const Program &program)
{
    for (const OpNode &op : program.ops())
        if (op.kind == OpKind::Spmm)
            return true;
    return false;
}

/** The memo's buckets of a prepared case at the default width. */
std::shared_ptr<const StepBuckets>
memoBuckets(const api::PreparedCase &pc)
{
    const Idx t = SparsepipeConfig::isoGpu().resolveSubTensor(
        pc.csc.cols(), pc.csc.nnz());
    return usesSpmm(pc.app.program)
               ? pc.pattern->buckets.buildTransposed(pc.csr, t)
               : pc.pattern->buckets.build(pc.csc, t);
}

TEST(BucketMemo, EveryAppOnEveryStandInMatchesAFreshBuild)
{
    // The paper grid at two iterations: every case's memoized buckets
    // equal a fresh build, and every Session run equals the two-stage
    // run on a bound workspace, which builds its buckets per call.
    // Each dataset's eleven apps build three bucket sets: the value
    // kinds' pattern in CSC order and transposed (gcn), and SPD's.
    api::Session session;
    std::size_t datasets = 0;
    for (const DatasetSpec &spec : datasetSpecs()) {
        ++datasets;
        for (const AppInfo &info : appInfos()) {
            const std::string label = info.name + "-" + spec.name;
            api::RunRequest req;
            req.app = info.name;
            req.dataset = spec.name;
            req.iters = 2;
            const api::RunReport report = session.run(req).value();
            const api::PreparedCase &pc = session.prepared(
                info.name, spec.name, ReorderKind::Vanilla);
            ASSERT_NE(pc.pattern, nullptr) << label;
            const Idx t = SparsepipeConfig::isoGpu().resolveSubTensor(
                pc.csc.cols(), pc.csc.nnz());
            const StepBuckets fresh =
                usesSpmm(pc.app.program)
                    ? StepBuckets::buildTransposed(pc.csr, t)
                    : StepBuckets::build(pc.csc, t);
            EXPECT_TRUE(*memoBuckets(pc) == fresh) << label;
            testing::expectSameSimStats(report.stats,
                                        twoStageRun(req, pc), label);
        }
    }
    const api::Session::CacheStatsSnapshot stats = session.cacheStats();
    EXPECT_EQ(stats.buckets.misses, 3 * datasets);
    EXPECT_EQ(stats.buckets.evictions, 0u);
    EXPECT_EQ(stats.pattern.misses, datasets);
    EXPECT_EQ(stats.pattern.hits, 2 * datasets);
}

TEST(BucketMemo, ElevenAppsOfADatasetBuildThreeSets)
{
    api::Session session;
    api::RunRequest req;
    req.dataset = "gy";
    req.iters = 2;
    for (const AppInfo &info : appInfos()) {
        req.app = info.name;
        ASSERT_TRUE(session.run(req).ok()) << info.name;
    }
    // A second round reads every set from the memos.
    for (const AppInfo &info : appInfos()) {
        req.app = info.name;
        req.sp.buffer_bytes = 256 << 10;
        ASSERT_TRUE(session.run(req).ok()) << info.name;
    }
    const api::Session::CacheStatsSnapshot stats = session.cacheStats();
    EXPECT_EQ(stats.buckets.misses, 3u);
    EXPECT_EQ(stats.buckets.hits, 2 * appInfos().size() - 3);
    EXPECT_EQ(stats.buckets.evictions, 0u);
}

TEST(BucketMemo, ReplacedOperandGetsFreshBuckets)
{
    // A copied case keeps its pattern's memo, but once its operand is
    // replaced by another pattern (the same dataset at another seed:
    // same shape, other coordinates) the memo must not serve it.
    api::Session session;
    for (const char *app : {"pr", "gcn"}) {
        api::RunRequest req;
        req.app = app;
        req.dataset = "gy";
        req.iters = 3;
        ASSERT_TRUE(session.run(req).ok()) << app;
        api::PreparedCase copy =
            session.prepared(app, "gy", ReorderKind::Vanilla);
        const api::PreparedCase &other =
            session.prepared(app, "gy", ReorderKind::Vanilla, 7);
        ASSERT_FALSE(copy.csr == other.csr);
        copy.csr = other.csr;
        copy.csc = other.csc;
        copy.blocked_bytes_per_nz = other.blocked_bytes_per_nz;
        copy.nnz = other.nnz;
        ASSERT_NE(copy.pattern, other.pattern);
        const api::Session::CacheStatsSnapshot before =
            session.cacheStats();
        const SimStats replaced = session.run(req, copy).value().stats;
        const api::Session::CacheStatsSnapshot after =
            session.cacheStats();
        EXPECT_EQ(after.buckets.hits, before.buckets.hits) << app;
        EXPECT_EQ(after.buckets.misses, before.buckets.misses) << app;
        testing::expectSameSimStats(replaced, twoStageRun(req, other),
                                    app);
    }
}

TEST(BucketMemo, WidthsBeyondCapacityDropTheOldest)
{
    // pr on gy at more sub-tensor widths than the memo holds: each
    // width's first run builds, the oldest widths go, and every run
    // equals the two-stage run.
    api::Session session;
    api::RunRequest req;
    req.app = "pr";
    req.dataset = "gy";
    req.iters = 3;
    const std::vector<Idx> widths = {64, 128, 256, 512, 1024, 2048};
    ASSERT_GT(widths.size(), BucketMemo::kCapacity);
    const api::PreparedCase &pc =
        session.prepared("pr", "gy", ReorderKind::Vanilla);
    for (const Idx t : widths) {
        req.sp.sub_tensor_cols = t;
        testing::expectSameSimStats(session.run(req).value().stats,
                                    twoStageRun(req, pc),
                                    "t=" + std::to_string(t));
    }
    const std::uint64_t dropped = widths.size() - BucketMemo::kCapacity;
    api::Session::CacheStatsSnapshot stats = session.cacheStats();
    EXPECT_EQ(stats.buckets.misses, widths.size());
    EXPECT_EQ(stats.buckets.evictions, dropped);

    // The newest width is still held; the oldest was dropped.
    req.sp.sub_tensor_cols = widths.back();
    ASSERT_TRUE(session.run(req).ok());
    EXPECT_EQ(session.cacheStats().buckets.hits, 1u);
    req.sp.sub_tensor_cols = widths.front();
    testing::expectSameSimStats(session.run(req).value().stats,
                                twoStageRun(req, pc), "t=64 again");
    stats = session.cacheStats();
    EXPECT_EQ(stats.buckets.misses, widths.size() + 1);
    EXPECT_EQ(stats.buckets.evictions, dropped + 1);
}

TEST(BucketMemo, ConcurrentRunsOnOnePatternAgree)
{
    // Runs under the TSan CI job: threads running every value kind of
    // gy at once share one pattern, build its buckets once, and each
    // equals its two-stage run.
    api::Session session;
    const std::vector<const char *> apps = {"pr", "label", "bfs",
                                            "sssp", "kpp", "kcore"};
    const int threads_per_app = 2;
    std::vector<std::thread> threads;
    std::vector<StatusOr<api::RunReport>> reports(
        apps.size() * threads_per_app,
        Status(StatusCode::Internal, "unset"));
    std::barrier start(static_cast<std::ptrdiff_t>(reports.size()));
    for (std::size_t i = 0; i < reports.size(); ++i) {
        threads.emplace_back([&, i] {
            api::RunRequest req;
            req.app = apps[i % apps.size()];
            req.dataset = "gy";
            req.iters = 3;
            start.arrive_and_wait();
            reports[i] = session.run(req);
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (std::size_t i = 0; i < reports.size(); ++i) {
        const char *app = apps[i % apps.size()];
        ASSERT_TRUE(reports[i].ok()) << reports[i].status().toString();
        api::RunRequest req;
        req.app = app;
        req.dataset = "gy";
        req.iters = 3;
        testing::expectSameSimStats(
            reports[i]->stats,
            twoStageRun(req, session.prepared(app, "gy",
                                              ReorderKind::Vanilla)),
            app);
    }
    const api::Session::CacheStatsSnapshot stats = session.cacheStats();
    EXPECT_EQ(stats.buckets.misses, 1u);
    EXPECT_EQ(stats.buckets.hits, reports.size() - 1);
}

} // anonymous namespace
} // namespace sparsepipe
