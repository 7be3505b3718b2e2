/**
 * @file
 * Tests for the parallel experiment-runner subsystem (src/runner)
 * and its integration with the bench harness: pool semantics,
 * per-job exception capture, deterministic result ordering,
 * once-per-key cache construction, the sweep journal, and
 * serial-vs-parallel sweep equivalence.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "harness.hh"
#include "runner/journal.hh"
#include "runner/keyed_cache.hh"
#include "runner/result_sink.hh"
#include "runner/scheduler.hh"
#include "runner/thread_pool.hh"
#include "util/logging.hh"
#include "util/status.hh"

using namespace sparsepipe;
using namespace sparsepipe::runner;

TEST(ThreadPool, ExecutesEveryTaskExactlyOnce)
{
    constexpr int kTasks = 200;
    std::vector<std::atomic<int>> counts(kTasks);
    {
        ThreadPool pool(4);
        for (int i = 0; i < kTasks; ++i)
            pool.submit([&counts, i] { counts[i].fetch_add(1); });
        pool.wait();
        for (int i = 0; i < kTasks; ++i)
            EXPECT_EQ(counts[i].load(), 1) << "task " << i;
    }
}

TEST(ThreadPool, WaitDrainsRecursiveSubmissions)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    pool.submit([&] {
        ran.fetch_add(1);
        pool.submit([&] { ran.fetch_add(1); });
    });
    pool.wait();
    EXPECT_EQ(ran.load(), 2);
}

TEST(ThreadPool, DefaultJobsRespectsEnvOverride)
{
    ASSERT_EQ(setenv("SPARSEPIPE_JOBS", "3", 1), 0);
    EXPECT_EQ(ThreadPool::defaultJobs(), 3);

    setLogQuiet(true); // the invalid value warns
    ASSERT_EQ(setenv("SPARSEPIPE_JOBS", "abc", 1), 0);
    EXPECT_GE(ThreadPool::defaultJobs(), 1);
    ASSERT_EQ(setenv("SPARSEPIPE_JOBS", "-2", 1), 0);
    EXPECT_GE(ThreadPool::defaultJobs(), 1);
    setLogQuiet(false);

    ASSERT_EQ(unsetenv("SPARSEPIPE_JOBS"), 0);
    EXPECT_GE(ThreadPool::defaultJobs(), 1);
}

TEST(ResultSink, TakeReturnsIndexOrderRegardlessOfPutOrder)
{
    ResultSink<int> sink(4);
    sink.put(2, 20);
    sink.put(0, 0);
    sink.put(3, 30);
    EXPECT_FALSE(sink.complete());
    sink.put(1, 10);
    EXPECT_TRUE(sink.complete());
    sink.waitAll();
    EXPECT_EQ(sink.take(), (std::vector<int>{0, 10, 20, 30}));
}

TEST(Scheduler, CapturesExceptionsPerJob)
{
    ThreadPool pool(3);
    SweepScheduler scheduler(pool);
    std::atomic<int> ran{0};
    scheduler.add("ok-1", [&] {
        ran.fetch_add(1);
        return okStatus();
    });
    scheduler.add("boom", []() -> Status {
        throw std::runtime_error("deliberate failure");
    });
    scheduler.add("ok-2", [&] {
        ran.fetch_add(1);
        return okStatus();
    });

    std::vector<JobOutcome> outcomes = scheduler.run();
    ASSERT_EQ(outcomes.size(), 3u);
    EXPECT_TRUE(outcomes[0].ok());
    EXPECT_EQ(outcomes[0].label, "ok-1");
    EXPECT_FALSE(outcomes[1].ok());
    EXPECT_EQ(outcomes[1].label, "boom");
    EXPECT_EQ(outcomes[1].status.code(), StatusCode::Internal);
    EXPECT_NE(outcomes[1].status.toString().find(
                  "deliberate failure"),
              std::string::npos);
    EXPECT_TRUE(outcomes[2].ok());
    // The failing job neither killed the pool nor its neighbours.
    EXPECT_EQ(ran.load(), 2);
    // The scheduler is reusable after run().
    EXPECT_EQ(scheduler.pending(), 0u);
}

TEST(Scheduler, ReturnedStatusIsolatesFailedJobs)
{
    // Fault-isolation contract: a job that *returns* a non-Ok Status
    // is reported as failed while every other job still completes.
    ThreadPool pool(4);
    SweepScheduler scheduler(pool);
    std::atomic<int> completed{0};
    scheduler.add("bad-input", [] {
        return invalidInput("dataset row 7 out of range");
    });
    for (int i = 0; i < 6; ++i) {
        scheduler.add("ok-" + std::to_string(i), [&] {
            completed.fetch_add(1);
            return okStatus();
        });
    }
    std::vector<JobOutcome> outcomes = scheduler.run();
    ASSERT_EQ(outcomes.size(), 7u);
    EXPECT_FALSE(outcomes[0].ok());
    EXPECT_EQ(outcomes[0].status.code(), StatusCode::InvalidInput);
    for (std::size_t i = 1; i < outcomes.size(); ++i)
        EXPECT_TRUE(outcomes[i].ok()) << outcomes[i].label;
    EXPECT_EQ(completed.load(), 6);
}

TEST(Scheduler, CancelledJobReportsCancelledRestComplete)
{
    // A pre-fired token cancels its job; neighbours are unaffected.
    ThreadPool pool(4);
    SweepScheduler scheduler(pool);
    CancelToken cancelled;
    cancelled.cancel();
    CancelToken live;
    std::atomic<int> completed{0};
    scheduler.add("doomed", [&]() -> Status {
        if (Status s = cancelled.check(); !s.ok())
            return s;
        completed.fetch_add(1);
        return okStatus();
    });
    for (int i = 0; i < 4; ++i) {
        scheduler.add("live-" + std::to_string(i), [&]() -> Status {
            if (Status s = live.check(); !s.ok())
                return s;
            completed.fetch_add(1);
            return okStatus();
        });
    }
    std::vector<JobOutcome> outcomes = scheduler.run();
    ASSERT_EQ(outcomes.size(), 5u);
    EXPECT_EQ(outcomes[0].status.code(), StatusCode::Cancelled);
    for (std::size_t i = 1; i < outcomes.size(); ++i)
        EXPECT_TRUE(outcomes[i].ok()) << outcomes[i].label;
    EXPECT_EQ(completed.load(), 4);
}

TEST(CancelToken, ParentChainingAndDeadline)
{
    CancelToken parent;
    CancelToken child(&parent);
    EXPECT_TRUE(child.check().ok());
    parent.cancel();
    EXPECT_TRUE(child.cancelled());
    EXPECT_EQ(child.check().code(), StatusCode::Cancelled);

    CancelToken timed;
    timed.setDeadlineAfterMs(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    // The stride-latched probe must fire within one stride of calls.
    Status last = okStatus();
    for (int i = 0; i < 64 && last.ok(); ++i)
        last = timed.check();
    EXPECT_EQ(last.code(), StatusCode::DeadlineExceeded);
    // Disarming clears the deadline.
    timed.setDeadlineAfterMs(0);
    EXPECT_TRUE(timed.check().ok());
}

TEST(Scheduler, ParallelIndexedPreservesOrderAndRethrows)
{
    ThreadPool pool(4);
    std::vector<int> squares = parallelIndexed(
        pool, 50, [](std::size_t i) {
            if (i % 7 == 0)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
            return static_cast<int>(i * i);
        });
    ASSERT_EQ(squares.size(), 50u);
    for (std::size_t i = 0; i < squares.size(); ++i)
        EXPECT_EQ(squares[i], static_cast<int>(i * i));

    EXPECT_THROW(parallelIndexed(pool, 8,
                                 [](std::size_t i) -> int {
                                     if (i == 5)
                                         throw std::runtime_error(
                                             "job 5 failed");
                                     return 0;
                                 }),
                 std::runtime_error);
    pool.wait(); // pool stays usable after a throwing grid
}

TEST(KeyedCache, ConstructsEachKeyExactlyOnceUnderContention)
{
    KeyedCache<int, int> cache;
    std::atomic<int> constructions{0};
    ThreadPool pool(8);
    constexpr int kLookupsPerKey = 64;
    for (int key = 0; key < 3; ++key) {
        for (int i = 0; i < kLookupsPerKey; ++i) {
            pool.submit([&cache, &constructions, key] {
                const int &value = cache.get(key, [&] {
                    constructions.fetch_add(1);
                    return key * 10;
                });
                EXPECT_EQ(value, key * 10);
            });
        }
    }
    pool.wait();
    EXPECT_EQ(constructions.load(), 3);
    EXPECT_EQ(cache.size(), 3u);
}

TEST(KeyedCache, ReferencesStayStableAcrossInsertions)
{
    KeyedCache<int, int> cache;
    const int *first = &cache.get(0, [] { return 42; });
    for (int key = 1; key < 100; ++key)
        cache.get(key, [key] { return key; });
    EXPECT_EQ(first, &cache.get(0, [] { return -1; }));
    EXPECT_EQ(*first, 42);
}

TEST(KeyedCache, CapacityEvictsLeastRecentlyUsed)
{
    KeyedCache<int, int> cache;
    cache.setCapacity(2);
    cache.get(1, [] { return 10; });
    cache.get(2, [] { return 20; });
    cache.get(1, [] { return -1; }); // touch 1: now 2 is LRU
    cache.get(3, [] { return 30; }); // evicts 2
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.get(1, [] { return -1; }), 10); // 1 survived
    int rebuilt = 0;
    EXPECT_EQ(cache.get(2,
                        [&] {
                            ++rebuilt;
                            return 21;
                        }),
              21); // 2 was evicted: make() runs again
    EXPECT_EQ(rebuilt, 1);

    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.misses, 4u);    // keys 1, 2, 3, and 2 again
    EXPECT_EQ(stats.hits, 2u);      // the two re-touches of 1
    EXPECT_EQ(stats.evictions, 2u); // 2, then 3 on 2's re-insert
}

TEST(KeyedCache, LoweringCapacityEvictsImmediately)
{
    KeyedCache<int, int> cache;
    for (int key = 0; key < 8; ++key)
        cache.get(key, [key] { return key; });
    EXPECT_EQ(cache.size(), 8u);
    cache.setCapacity(3);
    EXPECT_EQ(cache.size(), 3u);
    EXPECT_EQ(cache.stats().evictions, 5u);
    // The three most recently used keys survive.
    for (int key = 5; key < 8; ++key)
        EXPECT_EQ(cache.get(key, [] { return -1; }), key);
}

TEST(KeyedCache, GetSharedPinsValueAcrossEviction)
{
    KeyedCache<int, std::vector<int>> cache;
    cache.setCapacity(1);
    std::shared_ptr<const std::vector<int>> pinned =
        cache.getShared(0, [] {
            return std::vector<int>{1, 2, 3};
        });
    cache.get(1, [] { return std::vector<int>(4, 9); }); // evicts 0
    EXPECT_EQ(cache.stats().evictions, 1u);
    // The evicted value stays alive through the shared_ptr.
    ASSERT_EQ(pinned->size(), 3u);
    EXPECT_EQ((*pinned)[2], 3);
}

TEST(KeyedCache, BoundedCacheStillConstructsOncePerResidency)
{
    // Satellite check: capacity bounds must not reopen the
    // construction race — concurrent lookups of one missing key
    // still elect exactly one builder.
    KeyedCache<int, int> cache;
    cache.setCapacity(2);
    std::atomic<int> constructions{0};
    ThreadPool pool(8);
    for (int i = 0; i < 64; ++i) {
        pool.submit([&cache, &constructions] {
            auto value = cache.getShared(7, [&] {
                constructions.fetch_add(1);
                return 70;
            });
            EXPECT_EQ(*value, 70);
        });
    }
    pool.wait();
    EXPECT_EQ(constructions.load(), 1);
    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 63u);
}

namespace {

/** Field-by-field equality; the parallel sweep must be bit-equal. */
void
expectCaseEqual(const sparsepipe::bench::CaseResult &a,
                const sparsepipe::bench::CaseResult &b)
{
    EXPECT_EQ(a.app, b.app);
    EXPECT_EQ(a.dataset, b.dataset);
    EXPECT_EQ(a.nnz, b.nnz);
    EXPECT_EQ(a.sp.cycles, b.sp.cycles);
    EXPECT_EQ(a.sp.iterations, b.sp.iterations);
    EXPECT_EQ(a.sp.dram_read_bytes, b.sp.dram_read_bytes);
    EXPECT_EQ(a.spSeconds(), b.spSeconds());
    EXPECT_EQ(a.ideal.seconds, b.ideal.seconds);
    EXPECT_EQ(a.oracle.seconds, b.oracle.seconds);
    EXPECT_EQ(a.cpu.seconds, b.cpu.seconds);
    EXPECT_EQ(a.gpu.seconds, b.gpu.seconds);
    EXPECT_EQ(a.speedupVsIdeal(), b.speedupVsIdeal());
}

} // anonymous namespace

TEST(Sweep, ParallelMatchesSerialByteForByte)
{
    using namespace sparsepipe::bench;

    // A bench_fig14-shaped sweep: 3 apps x 3 datasets, jobs=4.
    std::vector<std::string> apps = allApps();
    apps.resize(3);
    std::vector<std::string> datasets = allDatasets();
    datasets.resize(3);
    RunConfig cfg;

    std::vector<CaseResult> serial;
    for (const std::string &app : apps)
        for (const std::string &dataset : datasets)
            serial.push_back(runCase(app, dataset, cfg));

    std::vector<CaseResult> parallel =
        runSweep(sweepGrid(apps, datasets, cfg), 4);

    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE(serial[i].app + "-" + serial[i].dataset);
        expectCaseEqual(serial[i], parallel[i]);
    }
}

TEST(Journal, RecordsSurviveAndResume)
{
    const std::string path =
        ::testing::TempDir() + "/sp_journal_test.log";
    std::remove(path.c_str());

    {
        SweepJournal journal;
        ASSERT_TRUE(journal.init(path, /*resume=*/false).ok());
        EXPECT_EQ(journal.resumedCount(), 0u);
        journal.recordOk("app=pr dataset=wi seed=1");
        journal.recordFail("app=gcn dataset=co seed=1",
                           StatusCode::DeadlineExceeded);
        journal.recordOk("app=sssp dataset=ro seed=1");
    } // destructor closes; records were flushed per call anyway

    SweepJournal resumed;
    ASSERT_TRUE(resumed.init(path, /*resume=*/true).ok());
    EXPECT_EQ(resumed.resumedCount(), 2u);
    EXPECT_TRUE(resumed.completed("app=pr dataset=wi seed=1"));
    EXPECT_TRUE(resumed.completed("app=sssp dataset=ro seed=1"));
    // Failed jobs are retried, not skipped.
    EXPECT_FALSE(resumed.completed("app=gcn dataset=co seed=1"));
    EXPECT_FALSE(resumed.completed("app=pr dataset=xx seed=1"));
    std::remove(path.c_str());
}

TEST(Journal, ConcurrentRecordsAllSurvive)
{
    const std::string path =
        ::testing::TempDir() + "/sp_journal_mt.log";
    std::remove(path.c_str());
    constexpr int kJobs = 64;
    {
        SweepJournal journal;
        ASSERT_TRUE(journal.init(path, false).ok());
        ThreadPool pool(8);
        for (int i = 0; i < kJobs; ++i) {
            pool.submit([&journal, i] {
                journal.recordOk("job-" + std::to_string(i));
            });
        }
        pool.wait();
    }
    SweepJournal resumed;
    ASSERT_TRUE(resumed.init(path, true).ok());
    EXPECT_EQ(resumed.resumedCount(),
              static_cast<std::size_t>(kJobs));
    for (int i = 0; i < kJobs; ++i)
        EXPECT_TRUE(resumed.completed("job-" + std::to_string(i)));
    std::remove(path.c_str());
}

TEST(Journal, ResumeToleratesMissingFileRejectsGarbage)
{
    const std::string missing =
        ::testing::TempDir() + "/sp_journal_none.log";
    std::remove(missing.c_str());
    SweepJournal fresh;
    EXPECT_TRUE(fresh.init(missing, /*resume=*/true).ok());
    EXPECT_EQ(fresh.resumedCount(), 0u);
    std::remove(missing.c_str());

    const std::string garbled =
        ::testing::TempDir() + "/sp_journal_garbled.log";
    {
        std::ofstream out(garbled);
        out << "ok app=pr dataset=wi\n"
            << "this is not a journal record\n";
    }
    SweepJournal broken;
    Status status = broken.init(garbled, /*resume=*/true);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::InvalidInput);
    std::remove(garbled.c_str());
}

TEST(Harness, RunCaseOrRejectsUnknownSpecs)
{
    using namespace sparsepipe::bench;
    RunConfig cfg;
    StatusOr<CaseResult> bad_app =
        runCaseOr("no-such-app", allDatasets()[0], cfg);
    ASSERT_FALSE(bad_app.ok());
    EXPECT_EQ(bad_app.status().code(), StatusCode::InvalidInput);

    StatusOr<CaseResult> bad_data =
        runCaseOr(allApps()[0], "no-such-dataset", cfg);
    ASSERT_FALSE(bad_data.ok());
    EXPECT_EQ(bad_data.status().code(), StatusCode::InvalidInput);
}

TEST(Harness, CancelAndDeadlineSurfaceWhileOthersComplete)
{
    using namespace sparsepipe::bench;
    const std::string app = allApps()[0];
    const std::string dataset = allDatasets()[0];
    RunConfig cfg;

    CancelToken cancelled;
    cancelled.cancel();
    CancelToken expired;
    expired.setDeadlineAfterMs(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));

    ThreadPool pool(3);
    SweepScheduler scheduler(pool);
    scheduler.add("cancelled", [&] {
        StatusOr<CaseResult> r =
            runCaseOr(app, dataset, cfg, &cancelled);
        return r.ok() ? okStatus() : r.status();
    });
    scheduler.add("deadline", [&] {
        StatusOr<CaseResult> r =
            runCaseOr(app, dataset, cfg, &expired);
        return r.ok() ? okStatus() : r.status();
    });
    scheduler.add("plain", [&] {
        StatusOr<CaseResult> r = runCaseOr(app, dataset, cfg);
        return r.ok() ? okStatus() : r.status();
    });

    std::vector<JobOutcome> outcomes = scheduler.run();
    ASSERT_EQ(outcomes.size(), 3u);
    EXPECT_EQ(outcomes[0].status.code(), StatusCode::Cancelled);
    EXPECT_EQ(outcomes[1].status.code(),
              StatusCode::DeadlineExceeded);
    EXPECT_TRUE(outcomes[2].ok())
        << outcomes[2].status.toString();
}

TEST(Sweep, GridOrderIsAppMajor)
{
    using namespace sparsepipe::bench;
    RunConfig cfg;
    auto specs = sweepGrid({"a", "b"}, {"x", "y", "z"}, cfg);
    ASSERT_EQ(specs.size(), 6u);
    EXPECT_EQ(specs[0].app, "a");
    EXPECT_EQ(specs[0].dataset, "x");
    EXPECT_EQ(specs[2].dataset, "z");
    EXPECT_EQ(specs[3].app, "b");
    EXPECT_EQ(specs[5].dataset, "z");
}
