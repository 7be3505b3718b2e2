/**
 * @file
 * Tests of the observability layer (src/obs) and its integration
 * with the simulator: exact cycle attribution for every application,
 * Chrome-trace emission, metrics-v1 round-tripping, and the
 * tolerance-diff engine behind tools/metrics_diff.
 */

#include <gtest/gtest.h>

#include "apps/apps.hh"
#include "core/sparsepipe_sim.hh"
#include "obs/attribution.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "test_helpers.hh"
#include "util/random.hh"

namespace sparsepipe {
namespace {

using obs::Activity;
using obs::ActivityLog;
using obs::CycleAttribution;
using obs::JsonValue;
using obs::MetricsDiffOptions;
using obs::MetricsDiffResult;
using obs::MetricsRegistry;
using obs::PhaseKind;
using obs::PhaseWindow;
using obs::TraceSink;
using obs::TraceTrack;
using testing::smallGraph;
using testing::smallRmat;

// ---------------------------------------------------------------
// attributeCycles in isolation
// ---------------------------------------------------------------

TEST(Attribution, ClassifiesByPriorityAndTilesExactly)
{
    // One 100-cycle phase: compute [0,30), read transfer [20,50),
    // read wait [50,60), write [55,80).  Priority gives compute 30,
    // read 30 (the non-compute part of [20,60)), write 20, idle 20.
    ActivityLog log;
    log.record(Activity::Compute, 0, 30);
    log.record(Activity::ReadTransfer, 20, 50);
    log.record(Activity::ReadWait, 50, 60);
    log.record(Activity::WriteTransfer, 55, 80);

    std::vector<PhaseWindow> windows = {
        {PhaseKind::FusedPass, 0, 0, 100}};
    CycleAttribution attr = attributeCycles(windows, log.spans());

    ASSERT_EQ(attr.phases.size(), 1u);
    EXPECT_EQ(attr.compute, 30);
    EXPECT_EQ(attr.dram_read_stall, 30);
    EXPECT_EQ(attr.dram_write_drain, 20);
    EXPECT_EQ(attr.buffer_swap_wait, 20);
    EXPECT_EQ(attr.totalCycles(), 100);
    EXPECT_EQ(attr.phases[0].total(), attr.phases[0].span());
}

TEST(Attribution, SpansCrossingWindowBoundariesSplit)
{
    // A single compute span crossing the boundary of two windows
    // contributes to each side without double counting.
    ActivityLog log;
    log.record(Activity::Compute, 40, 60);
    std::vector<PhaseWindow> windows = {
        {PhaseKind::FusedPass, 0, 0, 50},
        {PhaseKind::WriteDrain, 1, 50, 100}};
    CycleAttribution attr = attributeCycles(windows, log.spans());
    ASSERT_EQ(attr.phases.size(), 2u);
    EXPECT_EQ(attr.phases[0].compute, 10);
    EXPECT_EQ(attr.phases[1].compute, 10);
    EXPECT_EQ(attr.compute, 20);
    EXPECT_EQ(attr.totalCycles(), 100);
}

TEST(Attribution, OverlappingSpansOfOneKindCountOnce)
{
    ActivityLog log;
    log.record(Activity::ReadTransfer, 0, 40);
    log.record(Activity::ReadTransfer, 20, 60);
    log.record(Activity::ReadWait, 30, 50);
    std::vector<PhaseWindow> windows = {
        {PhaseKind::StreamPass, 0, 0, 60}};
    CycleAttribution attr = attributeCycles(windows, log.spans());
    EXPECT_EQ(attr.dram_read_stall, 60);
    EXPECT_EQ(attr.totalCycles(), 60);
}

TEST(Attribution, ZeroLengthSpansAreDropped)
{
    ActivityLog log;
    log.record(Activity::Compute, 10, 10);
    log.record(Activity::Compute, 12, 11);
    EXPECT_TRUE(log.spans().empty());
}

/** Field-by-field equality of two attributions' phase rows. */
void
expectSamePhases(const CycleAttribution &a, const CycleAttribution &b,
                 const std::string &label)
{
    ASSERT_EQ(a.phases.size(), b.phases.size()) << label;
    for (std::size_t i = 0; i < a.phases.size(); ++i) {
        const obs::PhaseCycles &pa = a.phases[i];
        const obs::PhaseCycles &pb = b.phases[i];
        EXPECT_EQ(pa.begin, pb.begin) << label << " phase " << i;
        EXPECT_EQ(pa.end, pb.end) << label << " phase " << i;
        EXPECT_EQ(pa.compute, pb.compute) << label << " phase " << i;
        EXPECT_EQ(pa.dram_read_stall, pb.dram_read_stall)
            << label << " phase " << i;
        EXPECT_EQ(pa.dram_write_drain, pb.dram_write_drain)
            << label << " phase " << i;
        EXPECT_EQ(pa.buffer_swap_wait, pb.buffer_swap_wait)
            << label << " phase " << i;
    }
}

/**
 * The specification of attributeCycles, one cycle at a time: a cycle
 * goes to the highest-priority kind with a span covering it.
 */
CycleAttribution
classifyEachCycle(const std::vector<PhaseWindow> &windows,
                  const std::vector<obs::ActivitySpan> &spans)
{
    CycleAttribution attr;
    for (const PhaseWindow &w : windows) {
        obs::PhaseCycles ph;
        ph.kind = w.kind;
        ph.index = w.index;
        ph.begin = w.begin;
        ph.end = w.end;
        for (Tick c = w.begin; c < w.end; ++c) {
            bool busy[4] = {false, false, false, false};
            for (const obs::ActivitySpan &s : spans)
                if (s.begin <= c && c < s.end)
                    busy[static_cast<int>(s.kind)] = true;
            if (busy[static_cast<int>(Activity::Compute)])
                ++ph.compute;
            else if (busy[static_cast<int>(Activity::ReadTransfer)] ||
                     busy[static_cast<int>(Activity::ReadWait)])
                ++ph.dram_read_stall;
            else if (busy[static_cast<int>(Activity::WriteTransfer)])
                ++ph.dram_write_drain;
            else
                ++ph.buffer_swap_wait;
        }
        attr.phases.push_back(ph);
    }
    return attr;
}

TEST(Attribution, CoalescingKeepsEveryCycleAndMatchesPerCycleClassifier)
{
    // Random spans of all four kinds, each either touching the last
    // span of its kind, overlapping it, or anywhere (out of order);
    // zero-length ones included.  The log folds many of them, and
    // the attribution of the folded log must equal both the
    // attribution of the raw spans and the per-cycle specification.
    Rng rng(2024);
    std::size_t raw_total = 0, kept_total = 0;
    for (int trial = 0; trial < 300; ++trial) {
        const Tick horizon = 40 + static_cast<Tick>(rng.nextBelow(160));
        std::vector<obs::ActivitySpan> raw;
        ActivityLog log;
        Tick last_begin[4] = {0, 0, 0, 0};
        Tick last_end[4] = {0, 0, 0, 0};
        const int n = static_cast<int>(rng.nextBelow(80));
        for (int i = 0; i < n; ++i) {
            const int k = static_cast<int>(rng.nextBelow(4));
            Tick begin = 0;
            switch (rng.nextBelow(3)) {
              case 0: begin = last_end[k]; break; // touching
              case 1:                             // overlapping
                begin = last_begin[k] +
                        static_cast<Tick>(rng.nextBelow(static_cast<
                            std::uint64_t>(last_end[k] - last_begin[k] +
                                           1)));
                break;
              default: // anywhere, often before the last span
                begin = static_cast<Tick>(
                    rng.nextBelow(static_cast<std::uint64_t>(horizon)));
            }
            const Tick end =
                std::min(horizon,
                         begin + static_cast<Tick>(rng.nextBelow(25)));
            const Activity kind = static_cast<Activity>(k);
            log.record(kind, begin, end);
            if (end > begin) {
                raw.push_back({begin, end, kind});
                last_begin[k] = begin;
                last_end[k] = end;
            }
        }
        // Random windows tiling [0, horizon).
        std::vector<PhaseWindow> windows;
        Tick at = 0;
        while (at < horizon) {
            const Tick next = std::min(
                horizon, at + 1 + static_cast<Tick>(rng.nextBelow(50)));
            windows.push_back({PhaseKind::StreamPass,
                               static_cast<Idx>(windows.size()), at,
                               next});
            at = next;
        }

        const std::string label = "trial " + std::to_string(trial);
        const CycleAttribution folded =
            attributeCycles(windows, log.spans());
        expectSamePhases(folded, attributeCycles(windows, raw), label);
        expectSamePhases(folded, classifyEachCycle(windows, raw), label);
        EXPECT_EQ(folded.totalCycles(), horizon) << label;
        EXPECT_LE(log.spans().size(), raw.size()) << label;
        raw_total += raw.size();
        kept_total += log.spans().size();
    }
    // Touching and overlapping spans were generated, so some folded.
    EXPECT_LT(kept_total, raw_total);
}

TEST(Attribution, OccupancyBinsAreLog2)
{
    EXPECT_EQ(obs::occupancyBin(1), 0);
    EXPECT_EQ(obs::occupancyBin(2), 1);
    EXPECT_EQ(obs::occupancyBin(3), 1);
    EXPECT_EQ(obs::occupancyBin(4), 2);
    EXPECT_EQ(obs::occupancyBin(127), 6);
    EXPECT_EQ(obs::occupancyBin(128), 7);
    EXPECT_EQ(obs::occupancyBin(1 << 20), 7);
}

TEST(Attribution, PhaseKindNamesAreStable)
{
    EXPECT_STREQ(obs::phaseKindName(PhaseKind::FusedPass),
                 "fused-pass");
    EXPECT_STREQ(obs::phaseKindName(PhaseKind::StreamPass),
                 "stream-pass");
    EXPECT_STREQ(obs::phaseKindName(PhaseKind::EwiseIteration),
                 "ewise-iteration");
    EXPECT_STREQ(obs::phaseKindName(PhaseKind::WriteDrain),
                 "write-drain");
}

// ---------------------------------------------------------------
// Attribution reconciliation on real simulated runs
// ---------------------------------------------------------------

void
expectReconciled(const SimStats &stats, const std::string &label)
{
    const CycleAttribution &attr = stats.attribution;
    EXPECT_EQ(attr.totalCycles(), stats.cycles) << label;
    Tick cursor = 0;
    for (const obs::PhaseCycles &ph : attr.phases) {
        EXPECT_EQ(ph.begin, cursor) << label << ": phase gap/overlap";
        EXPECT_EQ(ph.total(), ph.span())
            << label << ": phase buckets do not tile its span";
        cursor = ph.end;
    }
    EXPECT_EQ(cursor, stats.cycles)
        << label << ": phases do not cover the run";
}

TEST(ObsIntegration, AttributionReconcilesForEveryApp)
{
    // Every application (all three schedule modes: cross-iteration,
    // intra-iteration, stream) over both matrix classes.
    for (const AppInfo &info : appInfos()) {
        for (int skew = 0; skew < 2; ++skew) {
            AppInstance app = makeApp(info.name, 64);
            CooMatrix raw = skew ? smallRmat() : smallGraph();
            SimStats stats = SparsepipeSim(SparsepipeConfig::isoGpu())
                                 .simulateApp(app, raw, 6);
            expectReconciled(stats, std::string(info.name) +
                                        (skew ? "/rmat" : "/uniform"));
            EXPECT_GT(stats.attribution.compute, 0)
                << info.name << ": no compute cycles attributed";
        }
    }
}

TEST(ObsIntegration, AttributionReconcilesUnderTinyBuffer)
{
    // A starved buffer exercises eviction/reload paths.
    SparsepipeConfig tiny = SparsepipeConfig::isoGpu();
    tiny.buffer_bytes = 2048 * 12; // ~2k resident elements
    AppInstance app = makeApp("pr", 64);
    CooMatrix raw = smallRmat();
    SimStats stats = SparsepipeSim(tiny).simulateApp(app, raw, 6);
    expectReconciled(stats, "pr/tiny-buffer");
}

TEST(ObsIntegration, CountersArePopulated)
{
    AppInstance app = makeApp("pr", 64);
    CooMatrix raw = smallGraph();
    SimStats stats = SparsepipeSim(SparsepipeConfig::isoGpu())
                         .simulateApp(app, raw, 6);
    const obs::ObsCounters &c = stats.counters;
    // Every matrix element the OS consumed came from one loader.
    EXPECT_GT(c.prefetch_hit_elems + c.prefetch_miss_elems, 0);
    Idx occupied = 0;
    for (Idx bin : c.bucket_occupancy)
        occupied += bin;
    EXPECT_GT(occupied, 0) << "no occupancy histogram recorded";
}

TEST(ObsIntegration, TimelineSampleCountIsConfigurable)
{
    AppInstance app = makeApp("bfs", 64);
    CooMatrix raw = smallGraph();
    SparsepipeConfig cfg = SparsepipeConfig::isoGpu();
    cfg.bw_timeline_samples = 7;
    SimStats stats = SparsepipeSim(cfg).simulateApp(app, raw, 6);
    ASSERT_EQ(stats.bw_timeline.size(), 7u);
    for (double u : stats.bw_timeline) {
        EXPECT_GE(u, 0.0);
        EXPECT_LE(u, 1.0);
    }
}

TEST(ObsIntegration, ShortRunTimelineStaysNormalized)
{
    // A run far shorter than one 2048-cycle utilization window used
    // to divide the partial window's traffic by the full window
    // width, deflating the sample; the extent fix keeps every sample
    // a true fraction of the covered cycles.
    AppInstance app = makeApp("bfs", 16);
    CooMatrix raw = smallGraph(16, 40);
    SparsepipeConfig cfg = SparsepipeConfig::isoGpu();
    cfg.bw_timeline_samples = 5;
    SimStats stats = SparsepipeSim(cfg).simulateApp(app, raw, 2);
    ASSERT_EQ(stats.bw_timeline.size(), 5u);
    double peak = 0.0;
    for (double u : stats.bw_timeline) {
        EXPECT_GE(u, 0.0);
        EXPECT_LE(u, 1.0);
        peak = std::max(peak, u);
    }
    // The run moved real bytes, so the busiest sample must register.
    EXPECT_GT(peak, 0.0);
}

// ---------------------------------------------------------------
// Trace emission
// ---------------------------------------------------------------

TEST(Trace, SimRunEmitsParsableChromeTrace)
{
    AppInstance app = makeApp("pr", 64);
    CooMatrix raw = smallGraph();
    SparsepipeSim sim(SparsepipeConfig::isoGpu());
    TraceSink sink(1.0);
    sim.attachTrace(&sink);
    SimStats stats = sim.simulateApp(app, raw, 6);
    ASSERT_GT(sink.eventCount(), 0u);

    JsonValue doc;
    std::string error;
    ASSERT_TRUE(obs::parseJson(sink.toJson(), doc, &error)) << error;
    const JsonValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());

    std::size_t phase_events = 0, dram_events = 0, meta = 0;
    for (const JsonValue &ev : events->array) {
        const JsonValue *ph = ev.find("ph");
        ASSERT_NE(ph, nullptr);
        if (ph->string == "M") {
            ++meta;
            continue;
        }
        EXPECT_EQ(ph->string, "X");
        ASSERT_NE(ev.find("ts"), nullptr);
        ASSERT_NE(ev.find("dur"), nullptr);
        EXPECT_GE(ev.find("dur")->number, 0.0);
        const JsonValue *cat = ev.find("cat");
        ASSERT_NE(cat, nullptr);
        if (cat->string == "phase")
            ++phase_events;
        else if (cat->string == "dram")
            ++dram_events;
    }
    EXPECT_EQ(meta, 2u) << "expect one thread_name per track";
    EXPECT_EQ(phase_events, stats.attribution.phases.size());
    EXPECT_GT(dram_events, 0u);
}

TEST(Trace, TicksConvertToMicroseconds)
{
    TraceSink sink(2.0); // 2 GHz -> 0.0005 us per tick
    sink.complete("ev", "cat", TraceTrack::Phases, 1000, 3000);
    JsonValue doc;
    ASSERT_TRUE(obs::parseJson(sink.toJson(), doc, nullptr));
    const JsonValue &ev = doc.find("traceEvents")->array.back();
    EXPECT_DOUBLE_EQ(ev.find("ts")->number, 0.5);
    EXPECT_DOUBLE_EQ(ev.find("dur")->number, 1.0);
}

TEST(Trace, EscapesEventNames)
{
    TraceSink sink;
    sink.complete("quote\"back\\slash", "cat", TraceTrack::Dram, 0, 1);
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(obs::parseJson(sink.toJson(), doc, &error)) << error;
    EXPECT_EQ(doc.find("traceEvents")->array.back().find("name")->string,
              "quote\"back\\slash");
}

// ---------------------------------------------------------------
// Metrics registry + metrics-v1 round-trip
// ---------------------------------------------------------------

TEST(Metrics, RoundTripsThroughJson)
{
    MetricsRegistry reg;
    reg.set("b.integer", 42.0);
    reg.set("a.fraction", 0.125);
    reg.set("c.large", 9.0e15);
    reg.set("d.negative", -17.0);
    reg.add("b.integer", 8.0);

    MetricsRegistry back = MetricsRegistry::fromJson(reg.toJson());
    ASSERT_EQ(back.size(), 4u);
    EXPECT_DOUBLE_EQ(back.get("b.integer"), 50.0);
    EXPECT_DOUBLE_EQ(back.get("a.fraction"), 0.125);
    EXPECT_DOUBLE_EQ(back.get("c.large"), 9.0e15);
    EXPECT_DOUBLE_EQ(back.get("d.negative"), -17.0);
    // Stable schema: dumping the parsed registry is byte-identical.
    EXPECT_EQ(back.toJson(), reg.toJson());
}

TEST(Metrics, IntegersPrintWithoutDecimalPoint)
{
    MetricsRegistry reg;
    reg.set("n", 123456789.0);
    EXPECT_NE(reg.toJson().find("\"n\": 123456789"), std::string::npos);
    EXPECT_EQ(reg.toJson().find("123456789.0"), std::string::npos);
}

TEST(Metrics, RecordSimMetricsEmitsAttributionKeys)
{
    AppInstance app = makeApp("sssp", 64);
    CooMatrix raw = smallGraph();
    SimStats stats = SparsepipeSim(SparsepipeConfig::isoGpu())
                         .simulateApp(app, raw, 6);
    MetricsRegistry reg;
    recordSimMetrics(reg, "sssp.t", stats);
    EXPECT_TRUE(reg.has("sssp.t.cycles"));
    EXPECT_TRUE(reg.has("sssp.t.attr.compute"));
    EXPECT_TRUE(reg.has("sssp.t.attr.dram_read_stall"));
    EXPECT_TRUE(reg.has("sssp.t.attr.dram_write_drain"));
    EXPECT_TRUE(reg.has("sssp.t.attr.buffer_swap_wait"));
    EXPECT_TRUE(reg.has("sssp.t.bucket_occupancy.bin0"));
    EXPECT_TRUE(reg.has("sssp.t.prefetch_hit_elems"));
    // The dumped attribution reconciles just like the in-memory one.
    EXPECT_DOUBLE_EQ(reg.get("sssp.t.attr.compute") +
                         reg.get("sssp.t.attr.dram_read_stall") +
                         reg.get("sssp.t.attr.dram_write_drain") +
                         reg.get("sssp.t.attr.buffer_swap_wait"),
                     reg.get("sssp.t.cycles"));
}

// ---------------------------------------------------------------
// Metrics diffing
// ---------------------------------------------------------------

TEST(MetricsDiff, PatternMatching)
{
    EXPECT_TRUE(obs::diffPatternMatches("a.b", "a.b"));
    EXPECT_FALSE(obs::diffPatternMatches("a.b", "a.bc"));
    EXPECT_TRUE(obs::diffPatternMatches("a.*", "a.bc"));
    EXPECT_TRUE(obs::diffPatternMatches("*", "anything"));
    EXPECT_FALSE(obs::diffPatternMatches("b.*", "a.bc"));
}

TEST(MetricsDiff, FirstMatchingRuleWins)
{
    MetricsDiffOptions options;
    options.default_rtol = 0.5;
    options.rules = {{"a.b", 0.01}, {"a.*", 0.1}};
    EXPECT_DOUBLE_EQ(obs::toleranceFor("a.b", options), 0.01);
    EXPECT_DOUBLE_EQ(obs::toleranceFor("a.c", options), 0.1);
    EXPECT_DOUBLE_EQ(obs::toleranceFor("z", options), 0.5);
}

TEST(MetricsDiff, IdenticalRegistriesPass)
{
    MetricsRegistry a;
    a.set("x", 1.0);
    a.set("y", 2.5);
    MetricsDiffResult r = diffMetrics(a, a);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.compared, 2);
    EXPECT_TRUE(r.failures.empty());
}

TEST(MetricsDiff, ExactModeFlagsAnyDrift)
{
    MetricsRegistry base, cur;
    base.set("x", 1000.0);
    cur.set("x", 1001.0);
    MetricsDiffResult r = diffMetrics(base, cur);
    EXPECT_FALSE(r.ok);
    ASSERT_EQ(r.failures.size(), 1u);
    EXPECT_NE(r.failures[0].find("x"), std::string::npos);
}

TEST(MetricsDiff, ToleranceAbsorbsSmallDrift)
{
    MetricsRegistry base, cur;
    base.set("x", 1000.0);
    cur.set("x", 1001.0);
    MetricsDiffOptions options;
    options.rules = {{"x", 0.01}};
    EXPECT_TRUE(diffMetrics(base, cur, options).ok);
    options.rules = {{"x", 1e-6}};
    EXPECT_FALSE(diffMetrics(base, cur, options).ok);
}

TEST(MetricsDiff, ZeroBaselineRequiresZeroCurrentWhenExact)
{
    MetricsRegistry base, cur;
    base.set("x", 0.0);
    cur.set("x", 0.0);
    EXPECT_TRUE(diffMetrics(base, cur).ok);
    cur.set("x", 1e-12);
    EXPECT_FALSE(diffMetrics(base, cur).ok);
}

TEST(MetricsDiff, MissingAndExtraCounters)
{
    MetricsRegistry base, cur;
    base.set("gone", 1.0);
    base.set("kept", 2.0);
    cur.set("kept", 2.0);
    cur.set("new", 3.0);

    MetricsDiffResult r = diffMetrics(base, cur);
    EXPECT_FALSE(r.ok) << "missing counter must fail by default";

    MetricsDiffOptions options;
    options.allow_missing = true;
    EXPECT_TRUE(diffMetrics(base, cur, options).ok)
        << "extra counters are fine by default";

    options.allow_extra = false;
    EXPECT_FALSE(diffMetrics(base, cur, options).ok)
        << "--no-allow-extra must reject the new counter";
}

// ---------------------------------------------------------------
// JSON primitives
// ---------------------------------------------------------------

TEST(Json, RejectsMalformedDocuments)
{
    JsonValue out;
    EXPECT_FALSE(obs::parseJson("{", out, nullptr));
    EXPECT_FALSE(obs::parseJson("{} trailing", out, nullptr));
    EXPECT_FALSE(obs::parseJson("{'single': 1}", out, nullptr));
    std::string error;
    EXPECT_FALSE(obs::parseJson("[1, 2,, 3]", out, &error));
    EXPECT_FALSE(error.empty());
}

TEST(Json, ParsesNestedStructures)
{
    JsonValue out;
    ASSERT_TRUE(obs::parseJson(
        "{\"a\": [1, 2.5, \"s\"], \"b\": {\"c\": true, \"d\": null}}",
        out, nullptr));
    const JsonValue *a = out.find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_EQ(a->array.size(), 3u);
    EXPECT_DOUBLE_EQ(a->array[1].number, 2.5);
    EXPECT_EQ(a->array[2].string, "s");
    EXPECT_TRUE(out.find("b")->find("c")->boolean);
}

TEST(Json, NumberFormatting)
{
    EXPECT_EQ(obs::jsonNumber(0.0), "0");
    EXPECT_EQ(obs::jsonNumber(-12.0), "-12");
    EXPECT_EQ(obs::jsonNumber(0.5), "0.5");
    // Round-trips through the parser exactly.
    JsonValue out;
    ASSERT_TRUE(obs::parseJson(obs::jsonNumber(1.0 / 3.0), out,
                               nullptr));
    EXPECT_DOUBLE_EQ(out.number, 1.0 / 3.0);
}

} // namespace
} // namespace sparsepipe
