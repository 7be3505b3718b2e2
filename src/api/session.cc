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
FunctionalMemo::find(Idx max_iters, backend::ValueSemantics semantics)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (const Entry &e : entries_)
        if (e.max_iters == max_iters && e.semantics == semantics)
            return e.outcome;
    return std::nullopt;
}

bool
FunctionalMemo::publish(Idx max_iters, backend::ValueSemantics semantics,
                        const RunResult &outcome)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (const Entry &e : entries_)
        if (e.max_iters == max_iters && e.semantics == semantics)
            return false; // a racing miss published the same outcome
    const bool full = entries_.size() == kCapacity;
    if (full)
        entries_.erase(entries_.begin());
    entries_.push_back({max_iters, semantics, outcome});
    return full;
}

namespace {

/**
 * The pattern of `csr`: its row form, the column form, the blocked
 * sizing and a bucket memo adding to `counters`.
 */
PreparedPattern
makePattern(const CsrMatrix &csr,
            std::shared_ptr<BucketMemoCounters> counters)
{
    const PatternPtr csc = CscMatrix::patternOf(csr);
    // The default block size is always legal, so value() cannot trip.
    return PreparedPattern{
        csr.pattern(), csc,
        buildBlockedLayout(csr).value().bytesPerNonzero(),
        BucketMemo(csr.pattern(), csc, std::move(counters))};
}

/**
 * True when `csr` stores exactly the coordinates of `coo`'s entries,
 * in their order (`csr` is canonical, so `coo` is then sorted and
 * duplicate-free).  Every such operand of one matrix has one pattern.
 */
bool
storesEveryEntryOf(const CsrMatrix &csr, const CooMatrix &coo)
{
    if (csr.rows() != coo.rows() || csr.cols() != coo.cols() ||
        csr.nnz() != coo.nnz())
        return false;
    auto entry = coo.entries().begin();
    for (Idx r = 0; r < csr.rows(); ++r) {
        for (Idx c : csr.rowCols(r)) {
            if (entry->row != r || entry->col != c)
                return false;
            ++entry;
        }
    }
    return true;
}

/**
 * Finish a prepared CSR into an operand: on `shared` when its
 * coordinates equal that pattern's, keeping only its own values,
 * else on a pattern of its own.  Then the CSC twin's values and the
 * blocked sizing come from the pattern.
 */
PreparedOperand
prepareOperand(CsrMatrix csr, std::shared_ptr<const PreparedPattern> shared,
               std::shared_ptr<BucketMemoCounters> counters)
{
    if (shared)
        csr = csr.withPattern(shared->csr);
    if (!shared || csr.pattern() != shared->csr)
        shared = std::make_shared<const PreparedPattern>(
            makePattern(csr, std::move(counters)));
    PreparedOperand op;
    op.csr = std::move(csr);
    op.csc = CscMatrix::fromCsr(op.csr, shared->csc);
    op.blocked_bytes_per_nz = shared->blocked_bytes_per_nz;
    op.nnz = op.csr.nnz();
    op.pattern = std::move(shared);
    return op;
}

} // anonymous namespace

PreparedCase
prepareCase(const std::string &app_name, const CooMatrix &reordered)
{
    PreparedCase pc;
    pc.app = makeApp(app_name, reordered.rows());
    static_cast<PreparedOperand &>(pc) =
        prepareOperand(pc.app.prepare(reordered), nullptr, nullptr);
    return pc;
}

CooMatrix
reorderMatrix(CooMatrix raw, ReorderKind kind)
{
    if (kind == ReorderKind::None)
        return raw;
    CsrMatrix csr = CsrMatrix::fromCoo(raw);
    // makeReorder emits a bijection over a square matrix by
    // construction, so value() cannot trip.
    return applySymmetricPermutation(raw, makeReorder(kind, csr))
        .value();
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

std::shared_ptr<const CooMatrix>
Session::reorderedShared(const std::string &dataset,
                         ReorderKind kind, std::uint64_t seed)
{
    if (kind == ReorderKind::None)
        return rawShared(dataset, seed);
    return reordered_.getShared(
        std::make_tuple(dataset, kind, seed), [&] {
            // The pin keeps LRU eviction of the raw layer from
            // freeing the matrix mid-permutation.
            auto pinned = rawShared(dataset, seed);
            return reorderMatrix(*pinned, kind);
        });
}

const CooMatrix &
Session::raw(const std::string &dataset, std::uint64_t seed)
{
    return *rawShared(dataset, seed);
}

const CooMatrix &
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
                    CsrMatrix csr = Prepare{prepare}(*pinned);
                    // The first operand that stores every entry of
                    // the matrix supplies the layer's pattern; the
                    // others adopt it.
                    std::shared_ptr<const PreparedPattern> shared;
                    if (storesEveryEntryOf(csr, *pinned))
                        shared = patterns_.getShared(
                            std::make_tuple(dataset, kind, seed), [&] {
                                return makePattern(csr, bucket_counters_);
                            });
                    return prepareOperand(std::move(csr), std::move(shared),
                                          bucket_counters_);
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
        // once per (max_iters, semantics) for the others: a known
        // outcome replays only the timing stage and binds no
        // workspace.
        const Idx max_iters =
            req.iters > 0 ? req.iters : pc.app.default_iters;
        const backend::ValueSemantics semantics =
            engine->valueSemantics();
        std::optional<RunResult> known =
            valueFreeOutcome(pc.app.program, max_iters);
        if (!known) {
            known = pc.functional.find(max_iters, semantics);
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
        if (!known && pc.functional.publish(max_iters, semantics, outcome))
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
