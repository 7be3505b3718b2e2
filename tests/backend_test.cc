/**
 * @file
 * Tests of the backend registry and the Gamma-style cycle engine:
 * name round-trips, the Status path for unknown names, the fiber
 * cache's hit/cold/eviction ledger and the PE-group pick against
 * their scanning forms, bitwise value identity of the gamma backend
 * against the reference executor, exact cycle attribution, and the
 * explore axis staying in sync with the registry.
 */

#include <algorithm>
#include <cstring>
#include <optional>
#include <set>
#include <string>
#include <unordered_set>

#include <gtest/gtest.h>

#include "api/session.hh"
#include "apps/apps.hh"
#include "backend/backend.hh"
#include "backend/gamma.hh"
#include "explore/spec.hh"
#include "ref/executor.hh"
#include "util/random.hh"
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

/**
 * The fiber cache in its scanning form: a modulo per line, a scan of
 * the set for every line, and a hash set of the lines ever fetched.
 * FiberCache must match it access for access.
 */
class ScanningFiberCache
{
  public:
    ScanningFiberCache(Idx capacity_bytes, Idx ways, Idx line_bytes)
        : line_bytes_(std::max<Idx>(1, line_bytes)),
          ways_(std::max<Idx>(1, ways))
    {
        const Idx lines =
            std::max<Idx>(ways_, capacity_bytes / line_bytes_);
        sets_ = std::max<Idx>(1, lines / ways_);
        lines_.assign(static_cast<std::size_t>(sets_ * ways_), Line{});
    }

    backend::FiberCache::Access
    access(Idx byte_begin, Idx byte_end)
    {
        backend::FiberCache::Access out;
        if (byte_end <= byte_begin)
            return out;
        for (Idx addr = byte_begin / line_bytes_;
             addr <= (byte_end - 1) / line_bytes_; ++addr) {
            ++clock_;
            Line *set = lines_.data() + (addr % sets_) * ways_;
            Line *hit = nullptr;
            Line *victim = set;
            for (Idx w = 0; w < ways_; ++w) {
                if (set[w].tag == addr) {
                    hit = &set[w];
                    break;
                }
                if (set[w].last_use < victim->last_use)
                    victim = &set[w];
            }
            if (hit) {
                hit->last_use = clock_;
                ++out.hit_lines;
                continue;
            }
            ++out.miss_lines;
            if (seen_.insert(addr).second)
                ++out.cold_lines;
            if (victim->tag >= 0)
                ++stats_.evictions;
            victim->tag = addr;
            victim->last_use = clock_;
        }
        stats_.hit_lines += out.hit_lines;
        stats_.miss_lines += out.miss_lines;
        stats_.cold_lines += out.cold_lines;
        return out;
    }

    const backend::FiberCacheStats &stats() const { return stats_; }

  private:
    struct Line
    {
        Idx tag = -1;
        std::uint64_t last_use = 0;
    };

    Idx line_bytes_;
    Idx ways_;
    Idx sets_;
    std::vector<Line> lines_;
    std::unordered_set<Idx> seen_;
    std::uint64_t clock_ = 0;
    backend::FiberCacheStats stats_;
};

/**
 * A seeded fiber stream shaped like gamma's: runs of consecutive
 * fibers (so neighbours share their boundary line), several fibers
 * inside one line, fibers longer than the cache (so the set index
 * wraps), empty fibers, and jumps between operands; plus runs of
 * short fibers at random places in a window twice the cache, which
 * come back to a line after other lines of its set were touched.
 */
std::vector<std::pair<Idx, Idx>>
fiberStream(std::uint64_t seed, Idx line_bytes, Idx cache_bytes)
{
    Rng rng(seed);
    std::vector<std::pair<Idx, Idx>> stream;
    const auto below = [&rng](Idx bound) {
        return static_cast<Idx>(
            rng.nextBelow(static_cast<std::uint64_t>(bound)));
    };
    for (int run = 0; run < 12; ++run) {
        Idx pos = below(8 * cache_bytes);
        const int fibers = 1 + static_cast<int>(rng.nextBelow(300));
        if (run % 3 == 2) {
            for (int f = 0; f < fibers; ++f) {
                const Idx begin = pos + below(2 * cache_bytes);
                stream.emplace_back(begin, begin + 1 + below(line_bytes));
            }
            continue;
        }
        for (int f = 0; f < fibers; ++f) {
            Idx len = 0;
            switch (rng.nextBelow(10)) {
              case 0: // empty
                break;
              case 1: case 2: case 3: // inside one line
                len = 1 + below(line_bytes / 3 + 1);
                break;
              case 4: // wraps the sets
                len = below(2 * cache_bytes + 1);
                break;
              default: // a few lines
                len = below(4 * line_bytes);
                break;
            }
            stream.emplace_back(pos, pos + len);
            pos += len;
        }
    }
    // Re-stream the whole sequence: warm hits, capacity reloads.
    const std::size_t once = stream.size();
    for (std::size_t i = 0; i < once; ++i)
        stream.push_back(stream[i]);
    return stream;
}

TEST(FiberCache, MatchesTheScanningCacheOnSeededStreams)
{
    const struct
    {
        Idx capacity_bytes, ways, line_bytes;
    } kShapes[] = {
        {1024, 1, 64},     // direct-mapped, 16 sets
        {1024, 2, 64},     // 8 sets
        {32768, 8, 64},    // gamma's associativity, 64 sets
        {3 * 8 * 64, 8, 64}, // 3 sets: not a power of two
        {1000, 2, 48},     // 48 B lines, 10 sets
        {2000, 8, 40},     // 40 B lines, 6 sets
        {10, 2, 64},       // below one line: 1 set of 2 ways
    };
    for (const auto &shape : kShapes) {
        for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
            const std::string label =
                std::to_string(shape.capacity_bytes) + " B, " +
                std::to_string(shape.ways) + " ways, " +
                std::to_string(shape.line_bytes) + " B lines, seed " +
                std::to_string(seed);
            backend::FiberCache cache(shape.capacity_bytes, shape.ways,
                                      shape.line_bytes);
            ScanningFiberCache scan(shape.capacity_bytes, shape.ways,
                                    shape.line_bytes);
            const auto stream = fiberStream(seed, shape.line_bytes,
                                            shape.capacity_bytes);
            for (std::size_t i = 0; i < stream.size(); ++i) {
                const auto [begin, end] = stream[i];
                const backend::FiberCache::Access got =
                    cache.access(begin, end);
                const backend::FiberCache::Access want =
                    scan.access(begin, end);
                ASSERT_EQ(got.hit_lines, want.hit_lines)
                    << label << ", access " << i;
                ASSERT_EQ(got.miss_lines, want.miss_lines)
                    << label << ", access " << i;
                ASSERT_EQ(got.cold_lines, want.cold_lines)
                    << label << ", access " << i;
            }
            EXPECT_EQ(cache.stats().hit_lines, scan.stats().hit_lines)
                << label;
            EXPECT_EQ(cache.stats().miss_lines, scan.stats().miss_lines)
                << label;
            EXPECT_EQ(cache.stats().cold_lines, scan.stats().cold_lines)
                << label;
            EXPECT_EQ(cache.stats().evictions, scan.stats().evictions)
                << label;
            EXPECT_GT(cache.stats().evictions, 0) << label;
        }
    }
}

TEST(PeGroupTree, PicksTheFirstMinimumOfAScan)
{
    // Free ticks drawn from a narrow range, so ties are common; groups
    // are reassigned at random as well as at the pick, and the whole
    // tree is reset mid-sequence.
    for (Idx groups : {Idx{1}, Idx{2}, Idx{3}, Idx{5}, Idx{8}, Idx{32},
                       Idx{33}}) {
        for (std::uint64_t seed : {1u, 2u, 3u}) {
            Rng rng(seed);
            const std::string label = std::to_string(groups) +
                                      " groups, seed " +
                                      std::to_string(seed);
            backend::PeGroupTree tree(groups, 7);
            std::vector<Tick> free(static_cast<std::size_t>(groups), 7);
            for (int step = 0; step < 3000; ++step) {
                std::size_t first_min = 0;
                for (std::size_t k = 1; k < free.size(); ++k)
                    if (free[k] < free[first_min])
                        first_min = k;
                ASSERT_EQ(tree.earliest(), static_cast<Idx>(first_min))
                    << label << ", step " << step;
                ASSERT_EQ(tree.latest(),
                          *std::max_element(free.begin(), free.end()))
                    << label << ", step " << step;
                if (step == 1500) {
                    tree.reset(3);
                    std::fill(free.begin(), free.end(), 3);
                    continue;
                }
                const bool at_pick = rng.nextBool(0.7);
                const std::size_t g = at_pick
                    ? first_min
                    : rng.nextBelow(free.size());
                const Tick tick = at_pick
                    ? free[g] + rng.nextBelow(3)
                    : 3 + rng.nextBelow(12);
                tree.assign(static_cast<Idx>(g), tick);
                free[g] = tick;
                ASSERT_EQ(tree.freeAt(static_cast<Idx>(g)), tick)
                    << label;
            }
        }
    }
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
    // Every registry app whose values decide when it stops, on two
    // stand-ins: the gamma backend's functional stage (the fused
    // kernels every backend runs) must end where RefExecutor does,
    // on every tensor bit.
    api::Session session;
    for (const AppInfo &info : appInfos()) {
        for (const char *dataset : {"gy", "ro"}) {
            const api::PreparedCase &pc =
                session.prepared(info.name, dataset, ReorderKind::Vanilla);
            if (!pc.app.program.hasConvergence())
                continue;
            const std::string label = info.name + "-" + dataset;
            const Program &p = pc.app.program;
            const Idx iters = pc.app.default_iters;

            Workspace ref_ws = api::Session::bindWorkspace(pc);
            const RunResult ref_run = RefExecutor().run(ref_ws, iters);

            Workspace gamma_ws = api::Session::bindWorkspace(pc);
            const backend::BackendExecutor exec(
                backend::BackendKind::Gamma, SparsepipeConfig::isoGpu());
            const ExecOutcome out = exec.execute(gamma_ws, iters);

            EXPECT_EQ(out.backend, "gamma");
            EXPECT_FALSE(out.mode.has_value());
            ASSERT_TRUE(out.stats.has_value());
            EXPECT_EQ(out.run.iterations, ref_run.iterations) << label;
            EXPECT_EQ(out.run.converged, ref_run.converged) << label;
            EXPECT_GT(out.stats->cycles, 0u);

            for (TensorId id = 0;
                 id < static_cast<TensorId>(p.tensors().size()); ++id) {
                const std::string tensor =
                    label + ": tensor '" + p.tensor(id).name + "'";
                switch (p.tensor(id).kind) {
                  case TensorKind::Vector:
                    EXPECT_TRUE(sameBits(ref_ws.vec(id), gamma_ws.vec(id)))
                        << tensor << " diverged";
                    break;
                  case TensorKind::DenseMatrix:
                    EXPECT_TRUE(sameBits(ref_ws.den(id).data(),
                                         gamma_ws.den(id).data()))
                        << tensor << " diverged";
                    break;
                  case TensorKind::Scalar:
                    EXPECT_TRUE(sameBits({ref_ws.scalar(id)},
                                         {gamma_ws.scalar(id)}))
                        << tensor << " diverged";
                    break;
                  case TensorKind::SparseMatrix:
                    break; // constant operand
                }
            }
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
