/**
 * @file
 * Tests of the simulation kernel (event queue) and the DRAM model:
 * deterministic ordering, bandwidth serialization, latency, the
 * utilization ledger, and the idle-bandwidth query used by the
 * opportunistic CSR loader.
 */

#include <gtest/gtest.h>

#include "mem/dram.hh"
#include "sim/event_queue.hh"

namespace sparsepipe {
namespace {

TEST(EventQueue, ExecutesInTickThenInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&] { order.push_back(2); });
    eq.schedule(5, [&] { order.push_back(1); });
    eq.schedule(10, [&] { order.push_back(3); }); // same tick, later
    eq.runToCompletion();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 10u);
    EXPECT_EQ(eq.eventsExecuted(), 3u);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] {
        eq.scheduleAfter(4, [&] { fired = static_cast<int>(eq.now()); });
    });
    eq.runToCompletion();
    EXPECT_EQ(fired, 5);
}

TEST(EventQueue, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(10, [&] {
        EXPECT_DEATH(eq.schedule(5, [] {}), "scheduling in the past");
    });
    eq.runToCompletion();
}

TEST(EventQueue, RunNextOnEmptyReturnsFalse)
{
    EventQueue eq;
    EXPECT_FALSE(eq.runNext());
    EXPECT_TRUE(eq.empty());
}

TEST(DramConfig, TableIIConfigs)
{
    DramConfig gddr = DramConfig::gddr6x();
    EXPECT_DOUBLE_EQ(gddr.bandwidth_gb_s, 504.0);
    EXPECT_EQ(gddr.readLatencyCycles(), 12u);
    EXPECT_EQ(gddr.writeLatencyCycles(), 5u);

    DramConfig ddr4 = DramConfig::ddr4();
    EXPECT_DOUBLE_EQ(ddr4.bandwidth_gb_s, 40.0);
    EXPECT_EQ(ddr4.readLatencyCycles(), 14u); // 13.75 rounded
    // At 1 GHz, GB/s equals bytes/cycle.
    EXPECT_DOUBLE_EQ(gddr.bytesPerCycle(), 504.0);
}

TEST(DramModel, SerializesThroughBandwidth)
{
    DramModel dram(DramConfig::gddr6x());
    // 50400 bytes @ 504 B/cycle = 100 cycles + 12 read latency.
    Tick t1 = dram.access(0, 50400, false);
    EXPECT_EQ(t1, 112u);
    // Second request queues behind the first transfer (ends at 100).
    Tick t2 = dram.access(0, 50400, false);
    EXPECT_EQ(t2, 212u);
    EXPECT_EQ(dram.bytesRead(), 100800);
    EXPECT_EQ(dram.nextFree(), 200u);
}

TEST(DramModel, WriteLatencyDiffers)
{
    DramModel dram(DramConfig::gddr6x());
    Tick t = dram.access(0, 504, true);
    EXPECT_EQ(t, 1u + 5u);
    EXPECT_EQ(dram.bytesWritten(), 504);
}

TEST(DramModel, ZeroBytesIsFree)
{
    DramModel dram(DramConfig::gddr6x());
    EXPECT_EQ(dram.access(42, 0, false), 42u);
    EXPECT_EQ(dram.bytesTotal(), 0);
}

TEST(DramModel, IdleBytesBeforeDeadline)
{
    DramModel dram(DramConfig::gddr6x());
    dram.access(0, 50400, false); // busy until 100
    EXPECT_EQ(dram.idleBytesBefore(0, 100), 0);
    EXPECT_EQ(dram.idleBytesBefore(0, 200),
              static_cast<Idx>(100 * 504));
    EXPECT_EQ(dram.idleBytesBefore(150, 200),
              static_cast<Idx>(50 * 504));
}

TEST(DramModel, UtilizationLedger)
{
    // Window size divides the bucket size so the ledger has no
    // boundary smear in this scenario.
    DramModel dram(DramConfig::gddr6x(), /*window=*/10);
    dram.access(0, 504 * 100, false); // busy [0, 100)
    // Fully busy for the first 100 of 200 cycles: 50% overall.
    EXPECT_NEAR(dram.utilization(200), 0.5, 1e-9);
    auto series = dram.utilizationSeries(200, 4);
    ASSERT_EQ(series.size(), 4u);
    EXPECT_NEAR(series[0], 1.0, 0.05);
    EXPECT_NEAR(series[1], 1.0, 0.05);
    EXPECT_NEAR(series[2], 0.0, 0.05);
    EXPECT_NEAR(series[3], 0.0, 0.05);
}

TEST(DramModel, UtilizationNeverExceedsOne)
{
    DramModel dram(DramConfig::ddr4(), 32);
    for (int i = 0; i < 50; ++i)
        dram.access(0, 4096, i % 2 == 0);
    Tick end = dram.nextFree();
    for (double u : dram.utilizationSeries(end, 10)) {
        EXPECT_GE(u, 0.0);
        EXPECT_LE(u, 1.0);
    }
    EXPECT_LE(dram.utilization(end), 1.0 + 1e-9);
}

TEST(DramModel, OccupyAppliesAServedCallAgain)
{
    // access() at its start is occupy() plus latency and the hook, so
    // occupying the pins at the starts access() chose leaves the same
    // ledger, counters and nextFree().
    DramModel served(DramConfig::ddr4(), 32);
    DramModel again(DramConfig::ddr4(), 32);
    Tick now = 0;
    for (int i = 0; i < 20; ++i) {
        const Idx bytes = 100 + 37 * i;
        const bool write = i % 3 == 0;
        const Tick start = std::max(now, served.nextFree());
        now = served.access(now, bytes, write) - 5 * (i % 4);
        EXPECT_EQ(again.occupy(start, bytes, write), served.nextFree());
    }
    EXPECT_EQ(again.bytesRead(), served.bytesRead());
    EXPECT_EQ(again.bytesWritten(), served.bytesWritten());
    const Tick end = served.nextFree();
    EXPECT_EQ(again.utilizationSeries(end, 7),
              served.utilizationSeries(end, 7));

    // A start the pins are not free for, or an empty transfer, is a
    // replay out of step: it must not overlap transfers in the ledger.
    EXPECT_DEATH(again.occupy(end - 1, 64, false), "before the pins");
    EXPECT_DEATH(again.occupy(end, 0, false), "empty transfer");
}

TEST(DramModel, InvalidConfigIsFatal)
{
    DramConfig bad = DramConfig::gddr6x();
    bad.bandwidth_gb_s = 0.0;
    EXPECT_DEATH(DramModel{bad}, "non-positive bandwidth");
}

} // namespace
} // namespace sparsepipe
