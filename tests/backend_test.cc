/**
 * @file
 * Tests of the backend registry and the Gamma-style cycle engine:
 * name round-trips, the Status path for unknown names, the fiber
 * cache's hit/cold/eviction ledger, bitwise value identity of the
 * gamma backend against the reference executor, exact cycle
 * attribution, and the explore axis staying in sync with the
 * registry.
 */

#include <cstring>
#include <optional>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "api/session.hh"
#include "apps/apps.hh"
#include "backend/backend.hh"
#include "backend/gamma.hh"
#include "explore/spec.hh"
#include "ref/executor.hh"
#include "test_helpers.hh"

namespace sparsepipe {
namespace {

using testing::smallRmat;

TEST(BackendRegistry, NamesRoundTrip)
{
    const std::vector<backend::BackendKind> &kinds =
        backend::registeredBackends();
    ASSERT_FALSE(kinds.empty());
    EXPECT_EQ(kinds.front(), backend::BackendKind::Sparsepipe);
    for (backend::BackendKind kind : kinds) {
        StatusOr<backend::BackendKind> back =
            backend::backendFromName(backend::backendName(kind));
        ASSERT_TRUE(back.ok()) << backend::backendName(kind);
        EXPECT_EQ(*back, kind);
    }
    EXPECT_EQ(backend::registeredBackendList(), "sparsepipe, gamma");
}

TEST(BackendRegistry, UnknownNameIsInvalidInput)
{
    StatusOr<backend::BackendKind> kind =
        backend::backendFromName("warp");
    ASSERT_FALSE(kind.ok());
    EXPECT_EQ(kind.status().code(), StatusCode::InvalidInput);
    EXPECT_NE(kind.status().message().find(
                  "registered: sparsepipe, gamma"),
              std::string::npos)
        << kind.status().toString();
}

TEST(BackendRegistry, EveryKindBuildsAnEngine)
{
    for (backend::BackendKind kind : backend::registeredBackends())
        EXPECT_NE(backend::makeEngine(kind, SparsepipeConfig::isoGpu()),
                  nullptr);
}

// 1 KiB, 2-way, 64 B lines -> 8 sets; line address l maps to set
// l % 8, so lines 0, 8, 16 all contend for set 0.
TEST(FiberCache, ColdMissThenHit)
{
    backend::FiberCache cache(1024, 2, 64);
    EXPECT_EQ(cache.sets(), 8);
    EXPECT_EQ(cache.ways(), 2);

    backend::FiberCache::Access first = cache.access(0, 64);
    EXPECT_EQ(first.hit_lines, 0);
    EXPECT_EQ(first.miss_lines, 1);
    EXPECT_EQ(first.cold_lines, 1);

    backend::FiberCache::Access again = cache.access(0, 64);
    EXPECT_EQ(again.hit_lines, 1);
    EXPECT_EQ(again.miss_lines, 0);

    EXPECT_EQ(cache.stats().hit_lines, 1);
    EXPECT_EQ(cache.stats().miss_lines, 1);
    EXPECT_EQ(cache.stats().cold_lines, 1);
    EXPECT_EQ(cache.stats().evictions, 0);
}

TEST(FiberCache, RangeTouchesEveryOverlappingLine)
{
    backend::FiberCache cache(1024, 2, 64);
    // [0, 200) overlaps lines 0..3.
    backend::FiberCache::Access a = cache.access(0, 200);
    EXPECT_EQ(a.miss_lines, 4);
    EXPECT_EQ(a.cold_lines, 4);
    // [100, 129) stays inside lines 1..2, both resident.
    backend::FiberCache::Access b = cache.access(100, 129);
    EXPECT_EQ(b.hit_lines, 2);
    EXPECT_EQ(b.miss_lines, 0);
}

TEST(FiberCache, LruEvictionAndWarmReload)
{
    backend::FiberCache cache(1024, 2, 64);
    cache.access(0 * 64, 1 * 64);   // line 0  -> set 0
    cache.access(8 * 64, 9 * 64);   // line 8  -> set 0
    cache.access(16 * 64, 17 * 64); // line 16 -> set 0, evicts 0
    EXPECT_EQ(cache.stats().evictions, 1);

    // Line 0 was seen before: a capacity miss, not a cold one.
    backend::FiberCache::Access reload = cache.access(0, 64);
    EXPECT_EQ(reload.miss_lines, 1);
    EXPECT_EQ(reload.cold_lines, 0);
    EXPECT_EQ(cache.stats().evictions, 2); // line 8 was the LRU way

    EXPECT_EQ(cache.stats().miss_lines, 4);
    EXPECT_EQ(cache.stats().cold_lines, 3);
}

/** Bitwise comparison of two double vectors. */
bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(),
                                     a.size() * sizeof(double)) == 0);
}

TEST(GammaBackend, BitIdenticalToReferenceExecutor)
{
    for (const char *name : {"pr", "sssp", "kcore"}) {
        AppInstance app = makeApp(name, 96);
        CsrMatrix prepared = app.prepare(smallRmat(96, 900));

        Workspace ref_ws(app.program);
        ref_ws.bindMatrix(app.matrix, prepared);
        app.init(ref_ws);
        RefExecutor ref;
        RunResult ref_run = ref.run(ref_ws, app.default_iters);

        Workspace gamma_ws(app.program);
        gamma_ws.bindMatrix(app.matrix, prepared);
        app.init(gamma_ws);
        const backend::BackendExecutor exec(
            backend::BackendKind::Gamma, SparsepipeConfig::isoGpu());
        ExecOutcome out = exec.execute(gamma_ws, app.default_iters);

        EXPECT_EQ(out.backend, "gamma");
        EXPECT_FALSE(out.mode.has_value());
        ASSERT_TRUE(out.stats.has_value());
        EXPECT_EQ(out.run.iterations, ref_run.iterations) << name;
        EXPECT_EQ(out.run.converged, ref_run.converged) << name;
        EXPECT_GT(out.stats->cycles, 0u);

        for (TensorId id = 0;
             id < static_cast<TensorId>(app.program.tensors().size());
             ++id) {
            if (app.program.tensor(id).kind != TensorKind::Vector)
                continue;
            EXPECT_TRUE(
                sameBits(ref_ws.vec(id), gamma_ws.vec(id)))
                << name << ": tensor '"
                << app.program.tensor(id).name << "' diverged";
        }
    }
}

TEST(GammaBackend, AttributionReconcilesExactly)
{
    AppInstance app = makeApp("pr", 96);
    CsrMatrix prepared = app.prepare(smallRmat(96, 900));
    Workspace ws(app.program);
    ws.bindMatrix(app.matrix, prepared);
    app.init(ws);

    backend::GammaSim sim(SparsepipeConfig::isoGpu());
    SimStats stats = sim.run(ws, app.default_iters);

    // The phase windows tile [0, cycles] and each phase's buckets
    // sum to its span, so the totals reconcile with no slack.
    EXPECT_EQ(stats.attribution.totalCycles(), stats.cycles);
    Tick cursor = 0;
    for (const obs::PhaseCycles &phase : stats.attribution.phases) {
        EXPECT_EQ(phase.begin, cursor);
        EXPECT_EQ(phase.total(), phase.span());
        cursor = phase.end;
    }
    EXPECT_EQ(cursor, stats.cycles);

    // The fiber-cache ledger surfaces through the reuse counters.
    const backend::FiberCacheStats &fc = sim.fiberCacheStats();
    EXPECT_GT(fc.hit_lines + fc.miss_lines, 0);
    EXPECT_LE(fc.cold_lines, fc.miss_lines);
    EXPECT_EQ(stats.counters.prefetch_hit_elems, fc.hit_lines);
    EXPECT_EQ(stats.counters.prefetch_miss_elems, fc.miss_lines);
    EXPECT_EQ(stats.matrix_demand_bytes, fc.cold_lines * 64);
    EXPECT_EQ(stats.reload_bytes,
              (fc.miss_lines - fc.cold_lines) * 64);
}

TEST(GammaBackend, SessionRunReportsBackend)
{
    api::RunRequest req;
    req.app = "pr";
    req.dataset = "gy";
    req.iters = 4;
    req.backend = backend::BackendKind::Gamma;

    api::Session session;
    const api::RunReport report = session.run(req).value();
    EXPECT_EQ(report.backend, "gamma");
    EXPECT_GT(report.stats.cycles, 0u);
    EXPECT_EQ(report.stats.attribution.totalCycles(),
              report.stats.cycles);

    // The same request under the default backend differs in cycles
    // (different architecture) but not in run shape.
    req.backend = backend::BackendKind::Sparsepipe;
    const api::RunReport base = session.run(req).value();
    EXPECT_EQ(base.backend, "sparsepipe");
    EXPECT_EQ(base.stats.iterations, report.stats.iterations);
}

TEST(CycleEngines, TimingIgnoresValues)
{
    // Every backend's timing stage reads the operand's pattern only:
    // the same pattern and outcome with other values gives the same
    // stats, which is what lets api::Session replay a memoized
    // outcome.  A small buffer makes the fiber cache evict.
    SparsepipeConfig cfg = SparsepipeConfig::isoGpu();
    cfg.buffer_bytes = 8 << 10;
    for (backend::BackendKind kind : backend::registeredBackends()) {
        for (const char *name : {"pr", "sssp", "kcore", "gcn", "cg"}) {
            const std::string label =
                std::string(backend::backendName(kind)) + "/" + name;
            const AppInstance app = makeApp(name, 200);
            const CsrMatrix csr = app.prepare(smallRmat(200, 3000, 3));
            const CscMatrix csc = CscMatrix::fromCsr(csr);
            const CsrMatrix other = testing::perturbValues(csr);
            const CscMatrix other_csc = CscMatrix::fromCsr(other);

            const std::unique_ptr<backend::CycleEngine> engine =
                backend::makeEngine(kind, cfg);
            Workspace ws(app.program);
            ws.bindMatrix(app.matrix, csr, csc);
            app.init(ws);
            const SimStats full = engine->run(ws, app.default_iters);
            const SimStats replay = engine->runTiming(
                app.program,
                OperandPatterns(app.matrix, other, other_csc),
                {full.iterations, full.converged}, app.default_iters);
            testing::expectSameSimStats(full, replay, label);
            EXPECT_EQ(replay.iterations, full.iterations) << label;
            EXPECT_EQ(replay.converged, full.converged) << label;
        }
    }
}

TEST(CycleEngines, FunctionalStageOfAValueFreeProgramIsValueFreeOutcome)
{
    // api::Session and the autotuner time a program without a
    // convergence test from valueFreeOutcome() instead of running its
    // functional stage, so every backend's stage must return exactly
    // that.  The four apps below are the registry's programs without
    // a convergence test; one that gains a test fails here.
    const std::set<std::string> value_free = {"gcn", "gmres", "knn",
                                              "kpp"};
    const Idx n = 200;
    const CooMatrix raw = smallRmat(n, 3000, 3);
    for (const AppInfo &info : appInfos()) {
        const AppInstance app = makeApp(info.name, n);
        if (!value_free.count(info.name)) {
            EXPECT_FALSE(valueFreeOutcome(app.program, app.default_iters))
                << info.name;
            continue;
        }
        const CsrMatrix csr = app.prepare(raw);
        const CscMatrix csc = CscMatrix::fromCsr(csr);
        for (backend::BackendKind kind : backend::registeredBackends()) {
            for (Idx iters : {Idx{0}, Idx{1}, Idx{2}, app.default_iters}) {
                const std::string label =
                    std::string(backend::backendName(kind)) + "/" +
                    info.name + " iters " + std::to_string(iters);
                const std::optional<RunResult> expected =
                    valueFreeOutcome(app.program, iters);
                ASSERT_TRUE(expected.has_value()) << label;
                Workspace ws(app.program);
                ws.bindMatrix(app.matrix, csr, csc);
                app.init(ws);
                const RunResult got =
                    backend::makeEngine(kind, SparsepipeConfig::isoGpu())
                        ->runFunctional(ws, iters);
                EXPECT_EQ(got.iterations, expected->iterations) << label;
                EXPECT_EQ(got.converged, expected->converged) << label;
            }
        }
    }
}

TEST(CycleEngines, ValueSemanticsNameTheKernels)
{
    const SparsepipeConfig cfg = SparsepipeConfig::isoGpu();
    EXPECT_EQ(backend::makeEngine(backend::BackendKind::Sparsepipe, cfg)
                  ->valueSemantics(),
              backend::ValueSemantics::FusedOei);
    EXPECT_EQ(backend::makeEngine(backend::BackendKind::Gamma, cfg)
                  ->valueSemantics(),
              backend::ValueSemantics::Reference);
}

TEST(ExploreAxis, BackendAxisTracksRegistry)
{
    const explore::AxisDef *axis = nullptr;
    for (const explore::AxisDef &def : explore::axisRegistry())
        if (def.name == "backend")
            axis = &def;
    ASSERT_NE(axis, nullptr);
    EXPECT_EQ(axis->type, explore::AxisType::Enum);
    EXPECT_EQ(axis->default_value, "sparsepipe");

    std::vector<std::string> names;
    for (backend::BackendKind kind : backend::registeredBackends())
        names.emplace_back(backend::backendName(kind));
    EXPECT_EQ(axis->enum_values, names);

    api::RunRequest req;
    axis->apply("gamma", req);
    EXPECT_EQ(req.backend, backend::BackendKind::Gamma);
}

} // anonymous namespace
} // namespace sparsepipe
