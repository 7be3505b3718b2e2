/**
 * @file
 * Tests of the differential-fuzzing subsystem (src/check): generator
 * determinism and validity, the N-way differential check (reference,
 * OEI driver, and every registered cycle backend), bug injection,
 * shrinking, and corpus round-trips.
 */

#include <cstdint>
#include <sstream>

#include <gtest/gtest.h>

#include "check/case_gen.hh"
#include "check/corpus.hh"
#include "check/diff_check.hh"
#include "check/fault.hh"
#include "check/invariants.hh"
#include "check/oei_driver.hh"
#include "check/shrink.hh"
#include "graph/analysis.hh"
#include "lang/serialize.hh"
#include "util/random.hh"

namespace sparsepipe {
namespace {

TEST(MixSeed, StreamsAreIndependentOfEachOther)
{
    // Per-case seeds must not collide across nearby streams and must
    // not depend on anything but (seed, stream).
    EXPECT_EQ(mixSeed(42, 7), mixSeed(42, 7));
    EXPECT_NE(mixSeed(42, 7), mixSeed(42, 8));
    EXPECT_NE(mixSeed(42, 7), mixSeed(43, 7));
    EXPECT_NE(mixSeed(0, 0), mixSeed(0, 1));
}

TEST(CaseGen, DeterministicForSeed)
{
    for (std::uint64_t seed : {1ULL, 99ULL, 31337ULL}) {
        FuzzCase a = generateCase(seed);
        FuzzCase b = generateCase(seed);
        EXPECT_EQ(a.name, b.name);
        EXPECT_EQ(programToText(a.program),
                  programToText(b.program));
        EXPECT_EQ(a.operand.nnz(), b.operand.nnz());
        EXPECT_EQ(a.iters, b.iters);
        EXPECT_EQ(a.config.buffer_bytes, b.config.buffer_bytes);
        std::ostringstream sa, sb;
        EXPECT_TRUE(writeCase(sa, a).ok());
        EXPECT_TRUE(writeCase(sb, b).ok());
        EXPECT_EQ(sa.str(), sb.str());
    }
}

TEST(CaseGen, ProgramsValidateAndBindAcrossSeeds)
{
    // A wide seed sweep: every generated case must produce a valid
    // program whose workspace binds without a fatal.
    for (std::uint64_t seed = 0; seed < 64; ++seed) {
        FuzzCase fuzz = generateCase(mixSeed(7, seed));
        EXPECT_FALSE(fuzz.program.ops().empty()) << seed;
        EXPECT_GE(fuzz.operand.rows(), 8) << seed;
        Workspace ws = makeWorkspace(fuzz);
        EXPECT_EQ(&ws.program(), &fuzz.program);
    }
}

TEST(CaseGen, CoversMultipleScheduleModes)
{
    // The archetype mix must actually reach the simulator's distinct
    // scheduling modes; otherwise the differential check is blind to
    // most of the machine.
    bool saw_cross = false, saw_intra = false, saw_stream = false;
    for (std::uint64_t seed = 0; seed < 48; ++seed) {
        FuzzCase fuzz = generateCase(mixSeed(11, seed));
        Workspace ws = makeWorkspace(fuzz);
        OeiResult r = runOeiFunctional(ws, 1, fuzz.oei_sub_tensor);
        saw_cross |= r.mode == ScheduleMode::CrossIteration;
        saw_intra |= r.mode == ScheduleMode::IntraIteration;
        saw_stream |= r.mode == ScheduleMode::Stream;
    }
    EXPECT_TRUE(saw_cross);
    EXPECT_TRUE(saw_intra);
    EXPECT_TRUE(saw_stream);
}

TEST(DiffCheck, CleanCasesPass)
{
    for (std::uint64_t seed = 0; seed < 32; ++seed) {
        FuzzCase fuzz = generateCase(mixSeed(3, seed));
        CaseReport report = checkCase(fuzz);
        EXPECT_TRUE(report.ok)
            << "seed " << seed << ": "
            << (report.failures.empty() ? "?" : report.failures[0]);
    }
}

TEST(DiffCheck, InjectedResultEpsilonIsCaught)
{
    // The perturbation targets the first non-constant vector, so any
    // case with vector outputs must flag it.
    int caught = 0, eligible = 0;
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        FuzzCase fuzz = generateCase(mixSeed(5, seed));
        ++eligible;
        CaseReport report =
            checkCase(fuzz, InjectedBug::ResultEpsilon);
        if (!report.ok)
            ++caught;
    }
    EXPECT_GE(caught, eligible - 1)
        << "epsilon injection went undetected";
}

TEST(DiffCheck, InjectedBufferOverflowIsCaught)
{
    // The overflow is reported unconditionally (passes forced > 0),
    // so every case must fail the buffer-capacity invariant.
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        FuzzCase fuzz = generateCase(mixSeed(5, seed));
        CaseReport report =
            checkCase(fuzz, InjectedBug::BufferOverflow);
        EXPECT_FALSE(report.ok) << seed;
        bool buffer_failure = false;
        for (const std::string &f : report.failures)
            buffer_failure |=
                f.find("buffer-capacity") != std::string::npos;
        EXPECT_TRUE(buffer_failure) << seed;
    }
}

TEST(Invariants, RegistryPassesOnCleanRun)
{
    FuzzCase fuzz = generateCase(mixSeed(13, 1));
    Workspace ws = makeWorkspace(fuzz);
    SparsepipeSim sim(fuzz.config);
    SimStats stats = sim.run(ws, fuzz.iters);
    Analysis an = analyzeProgram(fuzz.program);
    InvariantContext ctx{fuzz, an, stats, ws};
    for (const Invariant &inv : defaultInvariants())
        EXPECT_EQ(inv.check(ctx), "") << inv.name;
}

TEST(Invariants, RegistryIncludesCycleAttribution)
{
    bool found = false;
    for (const Invariant &inv : defaultInvariants())
        found |= inv.name == "cycle-attribution";
    EXPECT_TRUE(found);
}

TEST(Invariants, CycleAttributionCatchesBrokenAttribution)
{
    // A run whose attribution totals were tampered with must be
    // rejected — this is what makes the reconciliation claim of
    // OBSERVABILITY.md falsifiable under fuzzing.
    FuzzCase fuzz = generateCase(mixSeed(13, 4));
    Workspace ws = makeWorkspace(fuzz);
    SparsepipeSim sim(fuzz.config);
    SimStats stats = sim.run(ws, fuzz.iters);
    Analysis an = analyzeProgram(fuzz.program);

    const Invariant *attr_inv = nullptr;
    for (const Invariant &inv : defaultInvariants())
        if (inv.name == "cycle-attribution")
            attr_inv = &inv;
    ASSERT_NE(attr_inv, nullptr);

    InvariantContext clean{fuzz, an, stats, ws};
    EXPECT_EQ(attr_inv->check(clean), "");

    SimStats leak = stats;
    leak.attribution.compute += 1; // bucket total drifts off cycles
    InvariantContext broken{fuzz, an, leak, ws};
    EXPECT_NE(attr_inv->check(broken), "");

    SimStats gap = stats;
    if (!gap.attribution.phases.empty()) {
        gap.attribution.phases.back().end += 1; // window tiling gap
        InvariantContext gapped{fuzz, an, gap, ws};
        EXPECT_NE(attr_inv->check(gapped), "");
    }
}

TEST(Shrink, ReducesWhileStillFailing)
{
    FuzzCase fuzz = generateCase(mixSeed(17, 2));
    auto fails = [](const FuzzCase &c) {
        return !checkCase(c, InjectedBug::BufferOverflow).ok;
    };
    ASSERT_TRUE(fails(fuzz));
    ShrinkStats st;
    FuzzCase small = shrinkCase(fuzz, fails, &st);
    EXPECT_TRUE(fails(small));
    EXPECT_GT(st.accepted, 0);
    EXPECT_LE(small.operand.rows(), fuzz.operand.rows());
    EXPECT_LE(small.operand.nnz(), fuzz.operand.nnz());
    EXPECT_LE(small.program.ops().size(), fuzz.program.ops().size());
    EXPECT_LE(small.iters, fuzz.iters);
    // The unconditional overflow report shrinks all the way down.
    EXPECT_LE(small.operand.rows(), 8);
    EXPECT_LE(small.iters, 1);
}

TEST(Shrink, KeepsCaseRunnable)
{
    // Whatever the shrinker produces must still run through the full
    // check without tripping validation fatals.
    FuzzCase fuzz = generateCase(mixSeed(17, 3));
    auto fails = [](const FuzzCase &c) {
        return !checkCase(c, InjectedBug::ResultEpsilon).ok;
    };
    if (!fails(fuzz))
        GTEST_SKIP() << "seed produced no vector output to perturb";
    FuzzCase small = shrinkCase(fuzz, fails);
    CaseReport clean = checkCase(small);
    EXPECT_TRUE(clean.ok)
        << (clean.failures.empty() ? "?" : clean.failures[0]);
}

TEST(Serialize, ProgramRoundTrips)
{
    for (std::uint64_t seed = 0; seed < 16; ++seed) {
        FuzzCase fuzz = generateCase(mixSeed(23, seed));
        const std::string text = programToText(fuzz.program);
        StatusOr<Program> parsed = programFromText(text);
        ASSERT_TRUE(parsed.ok())
            << seed << ": " << parsed.status().toString();
        const Program &back = *parsed;
        EXPECT_EQ(programToText(back), text) << seed;
        EXPECT_EQ(back.tensors().size(),
                  fuzz.program.tensors().size());
        EXPECT_EQ(back.ops().size(), fuzz.program.ops().size());
        EXPECT_EQ(back.carries().size(),
                  fuzz.program.carries().size());
        EXPECT_EQ(back.hasConvergence(),
                  fuzz.program.hasConvergence());
    }
}

TEST(Corpus, CaseRoundTrips)
{
    for (std::uint64_t seed = 0; seed < 16; ++seed) {
        FuzzCase fuzz = generateCase(mixSeed(29, seed));
        std::ostringstream os;
        ASSERT_TRUE(writeCase(os, fuzz).ok());
        std::istringstream is(os.str());
        StatusOr<FuzzCase> reread = readCase(is);
        ASSERT_TRUE(reread.ok())
            << seed << ": " << reread.status().toString();
        const FuzzCase back = std::move(reread).value();

        EXPECT_EQ(back.name, fuzz.name);
        EXPECT_EQ(back.seed, fuzz.seed);
        EXPECT_EQ(back.iters, fuzz.iters);
        EXPECT_EQ(back.oei_sub_tensor, fuzz.oei_sub_tensor);
        EXPECT_EQ(back.matrix, fuzz.matrix);
        EXPECT_EQ(back.config.buffer_bytes, fuzz.config.buffer_bytes);
        EXPECT_EQ(back.config.sub_tensor_cols,
                  fuzz.config.sub_tensor_cols);
        EXPECT_EQ(back.config.dram.tech, fuzz.config.dram.tech);
        EXPECT_EQ(back.operand.nnz(), fuzz.operand.nnz());
        EXPECT_EQ(back.vec_init.size(), fuzz.vec_init.size());
        EXPECT_EQ(back.den_init.size(), fuzz.den_init.size());

        // Writing the parsed case again must be byte-identical.
        std::ostringstream os2;
        ASSERT_TRUE(writeCase(os2, back).ok());
        EXPECT_EQ(os2.str(), os.str()) << seed;

        // And the parsed case must check identically to the source.
        EXPECT_EQ(checkCase(back).ok, checkCase(fuzz).ok) << seed;
    }
}

TEST(Corpus, ListCorpusOnMissingDirIsEmpty)
{
    EXPECT_TRUE(listCorpus("/nonexistent/sparsepipe-dir").empty());
}

TEST(Fault, PlansAreDeterministicAndCoverAllKinds)
{
    bool seen[static_cast<int>(FaultKind::Count_)] = {};
    for (std::uint64_t i = 0; i < 32; ++i) {
        FaultPlan a = planFault(99, i);
        FaultPlan b = planFault(99, i);
        EXPECT_EQ(a.kind, b.kind);
        EXPECT_EQ(a.seed, b.seed);
        seen[static_cast<int>(a.kind)] = true;
    }
    for (int k = 0; k < static_cast<int>(FaultKind::Count_); ++k)
        EXPECT_TRUE(seen[k]) << faultKindName(
            static_cast<FaultKind>(k));
}

TEST(Fault, EveryKindSurfacesTheExpectedStatus)
{
    // One deterministic sweep over every fault kind: the reader must
    // answer with exactly the documented code — never a crash, never
    // a silent success.  The CLI smoke test covers the wide sweep;
    // this keeps a narrow reproducer in the unit suite.
    for (std::uint64_t i = 0;
         i < 3 * static_cast<std::uint64_t>(FaultKind::Count_); ++i) {
        const FaultPlan plan = planFault(4242, i);
        const FaultReport report = runFaultCase(plan);
        EXPECT_TRUE(report.pass)
            << faultKindName(plan.kind) << " seed " << plan.seed
            << ": expected " << statusCodeName(report.expected)
            << ", observed "
            << (report.observed.ok() ? "silent success"
                                     : report.observed.toString());
    }
}

TEST(Fault, TransportFaultTableIsTotalAndSelfConsistent)
{
    // Every transport fault kind has a stable name and a pinned
    // expectation, and the expectation is internally coherent: a
    // caller can only observe a Status code when a response is
    // expected at all.
    for (int k = 0;
         k < static_cast<int>(TransportFaultKind::Count_); ++k) {
        const auto kind = static_cast<TransportFaultKind>(k);
        const char *name = transportFaultKindName(kind);
        ASSERT_NE(name, nullptr);
        EXPECT_GT(std::string(name).size(), 0u);
        const TransportExpectation want =
            expectedTransportOutcome(kind);
        if (!want.response_expected) {
            // No response: the only observable is the close.
            EXPECT_TRUE(want.connection_closes)
                << name << ": no response and no close would be "
                "indistinguishable from a hang";
        }
    }
    // Spot-pin the contract rows the chaos tool leans on hardest.
    EXPECT_EQ(std::string(transportFaultKindName(
                  TransportFaultKind::SlowLoris)),
              "slow-loris");
    const TransportExpectation loris =
        expectedTransportOutcome(TransportFaultKind::SlowLoris);
    EXPECT_TRUE(loris.response_expected);
    EXPECT_EQ(loris.code, StatusCode::DeadlineExceeded);
    EXPECT_TRUE(loris.connection_closes);
    const TransportExpectation oversized =
        expectedTransportOutcome(TransportFaultKind::OversizedLine);
    EXPECT_EQ(oversized.code, StatusCode::InvalidInput);
    const TransportExpectation degraded =
        expectedTransportOutcome(TransportFaultKind::ShortRead);
    EXPECT_TRUE(degraded.response_expected);
    EXPECT_EQ(degraded.code, StatusCode::Ok);
    EXPECT_FALSE(degraded.connection_closes);
}

} // namespace
} // namespace sparsepipe
