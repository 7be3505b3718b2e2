#include "api/session.hh"

#include <chrono>
#include <utility>

#include "prep/blocked.hh"
#include "sparse/datasets.hh"

namespace sparsepipe::api {

FunctionalMemo &
FunctionalMemo::operator=(const FunctionalMemo &)
{
    std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
    return *this;
}

std::optional<RunResult>
FunctionalMemo::find(Idx max_iters)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (const Entry &e : entries_)
        if (e.max_iters == max_iters)
            return e.outcome;
    return std::nullopt;
}

bool
FunctionalMemo::publish(Idx max_iters, const RunResult &outcome)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (const Entry &e : entries_)
        if (e.max_iters == max_iters)
            return false; // a racing miss published the same outcome
    const bool full = entries_.size() == kCapacity;
    if (full)
        entries_.erase(entries_.begin());
    entries_.push_back({max_iters, outcome});
    return full;
}

namespace {

/**
 * The pattern of `csr` and `csc`, the two forms of one matrix: the
 * blocked sizing and a bucket memo adding to `counters`.
 */
PreparedPattern
makePattern(const CsrMatrix &csr, const CscMatrix &csc,
            std::shared_ptr<BucketMemoCounters> counters)
{
    // The default block size is always legal, so value() cannot trip.
    return PreparedPattern{
        csr.pattern(), csc.pattern(),
        buildBlockedLayout(csr).value().bytesPerNonzero(),
        BucketMemo(csr.pattern(), csc.pattern(), std::move(counters))};
}

/** The operand of both forms, which read `pattern`'s arrays. */
PreparedOperand
makeOperand(std::pair<CsrMatrix, CscMatrix> forms,
            std::shared_ptr<const PreparedPattern> pattern)
{
    PreparedOperand op;
    op.csr = std::move(forms.first);
    op.csc = std::move(forms.second);
    op.blocked_bytes_per_nz = pattern->blocked_bytes_per_nz;
    op.nnz = op.csr.nnz();
    op.pattern = std::move(pattern);
    return op;
}

/**
 * The reordered layer's entry: `raw` compressed, relabelled by `kind`
 * row to row, and transposed once.
 */
ReorderedMatrix
compressReordered(const CooMatrix &raw, ReorderKind kind)
{
    CsrMatrix csr = CsrMatrix::fromCoo(raw);
    // makeReorder emits a bijection over a square matrix by
    // construction, so value() cannot trip.
    if (kind != ReorderKind::None)
        csr = permuteSymmetric(csr, makeReorder(kind, csr)).value();
    CscMatrix csc = CscMatrix::fromCsr(csr);
    return ReorderedMatrix{std::move(csr), std::move(csc)};
}

} // anonymous namespace

PreparedCase
prepareCase(const std::string &app_name, const CooMatrix &reordered)
{
    PreparedCase pc;
    pc.app = makeApp(app_name, reordered.rows());
    CsrMatrix csr = pc.app.prepare(reordered);
    CscMatrix csc = CscMatrix::fromCsr(csr);
    auto pattern = std::make_shared<const PreparedPattern>(
        makePattern(csr, csc, nullptr));
    static_cast<PreparedOperand &>(pc) =
        makeOperand({std::move(csr), std::move(csc)}, std::move(pattern));
    return pc;
}

CooMatrix
reorderMatrix(CooMatrix raw, ReorderKind kind)
{
    if (kind == ReorderKind::None)
        return raw;
    return compressReordered(raw, kind).csr.toCoo();
}

Session &
Session::process()
{
    static Session session;
    return session;
}

std::shared_ptr<const CooMatrix>
Session::rawShared(const std::string &dataset, std::uint64_t seed)
{
    return raw_.getShared(std::make_pair(dataset, seed), [&] {
        return generateDataset(datasetSpec(dataset), seed);
    });
}

std::shared_ptr<const ReorderedMatrix>
Session::reorderedShared(const std::string &dataset,
                         ReorderKind kind, std::uint64_t seed)
{
    return reordered_.getShared(
        std::make_tuple(dataset, kind, seed), [&] {
            // The pin keeps LRU eviction of the raw layer from
            // freeing the matrix mid-permutation.
            auto pinned = rawShared(dataset, seed);
            return compressReordered(*pinned, kind);
        });
}

const CooMatrix &
Session::raw(const std::string &dataset, std::uint64_t seed)
{
    return *rawShared(dataset, seed);
}

const ReorderedMatrix &
Session::reordered(const std::string &dataset, ReorderKind kind,
                   std::uint64_t seed)
{
    return *reorderedShared(dataset, kind, seed);
}

const PreparedCase &
Session::prepared(const std::string &app, const std::string &dataset,
                  ReorderKind kind, std::uint64_t seed)
{
    return *preparedShared(app, dataset, kind, seed);
}

std::shared_ptr<const PreparedCase>
Session::preparedShared(const std::string &app,
                        const std::string &dataset, ReorderKind kind,
                        std::uint64_t seed)
{
    return prepared_.getShared(
        std::make_tuple(app, dataset, kind, seed), [&] {
            // Stand-ins are square with the spec's row count, so the
            // app needs no matrix, and a resident operand no
            // reordered matrix either.
            PreparedCase pc;
            pc.app = makeApp(app, datasetSpec(dataset).rows);
            const PrepareKind prepare = pc.app.prepare.kind;
            // Copying the operand's fields shares its arrays, which
            // stay alive with the case if the operand is evicted.
            static_cast<PreparedOperand &>(pc) = *operands_.getShared(
                std::make_tuple(dataset, kind, seed, prepare), [&] {
                    // The pin keeps LRU eviction of the reordered
                    // layer from freeing the matrix mid-prepare.
                    auto pinned = reorderedShared(dataset, kind, seed);
                    auto forms = Prepare{prepare}(pinned->csr, pinned->csc);
                    // The value kinds read the reordered matrix's
                    // patterns, which the pattern layer holds; SPD's
                    // operand has a pattern of its own.
                    std::shared_ptr<const PreparedPattern> pattern;
                    if (prepare != PrepareKind::Spd)
                        pattern = patterns_.getShared(
                            std::make_tuple(dataset, kind, seed), [&] {
                                return makePattern(pinned->csr, pinned->csc,
                                                   bucket_counters_);
                            });
                    // A layer entry built before the reordered layer
                    // evicted and rebuilt the matrix holds equal but
                    // other arrays: the operand then gets its own.
                    if (!pattern || pattern->csr != forms.first.pattern())
                        pattern = std::make_shared<const PreparedPattern>(
                            makePattern(forms.first, forms.second,
                                        bucket_counters_));
                    return makeOperand(std::move(forms), std::move(pattern));
                });
            return pc;
        });
}

void
Session::setCacheCapacities(std::size_t raw, std::size_t reordered,
                            std::size_t prepared)
{
    raw_.setCapacity(raw);
    reordered_.setCapacity(reordered);
    patterns_.setCapacity(prepared);
    operands_.setCapacity(prepared);
    prepared_.setCapacity(prepared);
}

Session::CacheStatsSnapshot
Session::cacheStats() const
{
    runner::CacheStats functional;
    functional.hits = functional_hits_.load(std::memory_order_relaxed);
    functional.misses =
        functional_misses_.load(std::memory_order_relaxed);
    functional.evictions =
        functional_evictions_.load(std::memory_order_relaxed);
    runner::CacheStats buckets;
    buckets.hits = bucket_counters_->hits.load(std::memory_order_relaxed);
    buckets.misses =
        bucket_counters_->misses.load(std::memory_order_relaxed);
    buckets.evictions =
        bucket_counters_->evictions.load(std::memory_order_relaxed);
    return CacheStatsSnapshot{raw_.stats(),      reordered_.stats(),
                              patterns_.stats(), operands_.stats(),
                              prepared_.stats(), functional,
                              buckets};
}

Workspace
Session::bindWorkspace(const PreparedCase &pc)
{
    Workspace ws(pc.app.program);
    ws.bindMatrix(pc.app.matrix, pc.csr, pc.csc);
    pc.app.init(ws);
    return ws;
}

StatusOr<RunReport>
Session::run(const RunRequest &req)
{
    // Pre-validate the request's names so a typo comes back as
    // InvalidInput instead of tripping the fatal registry lookups
    // inside the cache builders.
    if (req.dataset.empty())
        return invalidInput(
            "Session::run: request names no dataset (use the "
            "PreparedCase overload for external matrices)");
    if (!findAppInfo(req.app))
        return invalidInput("Session::run: unknown application '%s'",
                            req.app.c_str());
    if (!findDatasetSpec(req.dataset))
        return invalidInput("Session::run: unknown dataset '%s'",
                            req.dataset.c_str());
    if (req.cancel) {
        // A dead request must not pay preprocessing either: reject
        // before the prepared-operand build, not just before the sim.
        if (Status status = req.cancel->pollNow(); !status.ok())
            return status;
    }
    try {
        // Hold the pin for the whole run: the workspace references
        // the prepared program while the simulator executes, and the
        // entry may be LRU-evicted concurrently under a bounded
        // cache.
        auto pinned = preparedShared(req.app, req.dataset,
                                     req.reorder, req.seed);
        return run(req, *pinned);
    } catch (...) {
        return statusFromCurrentException();
    }
}

StatusOr<RunReport>
Session::run(const RunRequest &req, const PreparedCase &pc)
{
    if (req.cancel) {
        // Don't bother binding a workspace for an already-dead job.
        // pollNow(), not check(): the boundary must see an
        // already-expired deadline immediately, not a latch stride
        // of engine polls later.
        if (Status status = req.cancel->pollNow(); !status.ok())
            return status;
    }
    try {
        SparsepipeConfig cfg = req.sp;
        cfg.bytes_per_nz =
            req.blocked ? pc.blocked_bytes_per_nz : 12.0;
        if (req.lanes >= 0)
            cfg.lanes = req.lanes;
        if (req.band_threads >= 0)
            cfg.band_threads = req.band_threads;

        const std::unique_ptr<backend::CycleEngine> engine =
            backend::makeEngine(req.backend, cfg);
        if (req.trace)
            engine->attachTrace(req.trace);
        engine->setCancelToken(req.cancel);

        // Values never for a program without a convergence test, and
        // once per max_iters for the others, whatever the backend: a
        // known outcome replays only the timing stage and binds no
        // workspace.
        const Idx max_iters =
            req.iters > 0 ? req.iters : pc.app.default_iters;
        std::optional<RunResult> known =
            valueFreeOutcome(pc.app.program, max_iters);
        if (!known) {
            known = pc.functional.find(max_iters);
            (known ? functional_hits_ : functional_misses_)
                .fetch_add(1, std::memory_order_relaxed);
        }
        std::optional<Workspace> ws;
        if (!known)
            ws.emplace(bindWorkspace(pc));

        RunReport report;
        report.app = req.app;
        report.dataset = req.dataset;
        report.backend = backend::backendName(req.backend);
        report.nnz = pc.nnz;
        const auto t0 = std::chrono::steady_clock::now();
        const RunResult outcome =
            known ? *known : engine->runFunctional(*ws, max_iters);
        report.stats = engine->runTiming(
            pc.app.program,
            OperandPatterns(pc.app.matrix, pc.csr, pc.csc,
                            pc.pattern ? &pc.pattern->buckets : nullptr),
            outcome, max_iters);
        report.host_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - t0)
                .count();
        if (!known && pc.functional.publish(max_iters, outcome))
            functional_evictions_.fetch_add(1, std::memory_order_relaxed);
        return report;
    } catch (...) {
        // SpError (cancellation, deadline) keeps its status;
        // bad_alloc maps to ResourceExhausted; anything else is
        // Internal.
        return statusFromCurrentException();
    }
}

} // namespace sparsepipe::api
