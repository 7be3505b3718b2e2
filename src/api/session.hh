/**
 * @file
 * The Session API: one front door for the dataset -> reorder ->
 * prepare -> configure -> run pipeline.
 *
 * Before this facade every entry point (the bench harness, the CLI,
 * the fuzzer, the autotuner) re-assembled the pipeline by hand, and
 * each run paid the preprocessing twice: once to size the blocked
 * layout and once more to bind the operand.  A Session owns
 * thread-safe keyed caches for the expensive artifacts —
 *
 *   raw        generated stand-in matrix (COO) (dataset, seed)
 *   reordered  the raw matrix compressed and   (dataset, reorder,
 *              symmetrically permuted: CSR +    seed)
 *              CSC, each with values
 *   pattern    the reordered matrix's CSR +    (dataset, reorder,
 *              CSC patterns + blocked bytes/nz  seed)
 *              + bucket memo
 *   operand    CSR + CSC values on a pattern   (dataset, reorder,
 *              + blocked bytes/nz + nnz         seed, PrepareKind)
 *   prepared   AppInstance + functional memo   (app, dataset,
 *              + the operand's fields           reorder, seed)
 *
 * — so a sweep touching the same (app, dataset) under many hardware
 * configurations prepares exactly once, and a single run prepares
 * exactly once instead of twice.  The eleven apps use four prepare
 * kinds (see PrepareKind), and apps of one kind build the same
 * operand from the same matrix: the operand layer builds it once,
 * and every app's PreparedCase copies its fields.  CsrMatrix and
 * CscMatrix share their arrays on copy, so the eleven cases of one
 * dataset hold four sets of arrays, not eleven.  Caching is
 * bitwise-transparent: every simulated counter is identical to the
 * uncached pipeline.
 *
 * Reordered and pattern layers.  Each (dataset, reorder, seed) is
 * compressed, permuted and transposed once: the reordered layer holds
 * that matrix as CSR and CSC with values, and every prepare kind is
 * derived from the two forms in linear passes (Prepare's two-form
 * call).  The boolean, row-stochastic and weighted kinds change
 * values, not coordinates: their operands apply one value function
 * to the reordered CSR and CSC values and read the reordered
 * matrix's two patterns, which the pattern layer holds with their
 * blocked bytes/nz.  They share that pattern by construction; no
 * content check is left.  SPD's (A + A^T) / 2 has coordinates of its
 * own: it merges the two reordered forms, and since it is symmetric
 * bit for bit, its CSC form reads its CSR's own pattern and value
 * arrays (CscMatrix::fromSymmetric), on a pattern built outside the
 * layer, as is a value-kind operand whose reordered matrix was
 * evicted and rebuilt while the pattern layer kept the entry of its
 * old arrays.  Either way PreparedOperand::pattern names the pattern
 * its arrays read.  Each pattern memoizes its timing StepBuckets per
 * (sub-tensor width, orientation) (BucketMemo), so the timing stage
 * of a prepared case builds them once per pattern instead of once
 * per run: one dataset's eleven apps build three sets (the shared
 * pattern in CSC order and, for gcn's SpMM, transposed; SPD's in CSC
 * order).
 *
 * By default entries live for the Session's lifetime, so the
 * references handed out stay valid while the Session exists.
 * Session::process() is the shared process-wide instance the benches
 * and CLI use.
 *
 * Long-running daemons (src/serve) instead call setCacheCapacities()
 * to bound each layer with LRU eviction (the pattern and operand
 * layers share the prepared layer's bound); the run path pins its
 * case through shared_ptr (preparedShared) for the duration of a
 * simulation, so eviction can never dangle an in-flight run.  A case
 * owns shares of its operand's arrays and of its pattern (memo
 * included), so evicting the operand or the pattern frees nothing a
 * case still holds.  The plain reference accessors remain valid only
 * while the entry is resident once a bound is set.
 *
 * Functional memo.  A run has a functional stage (values, which
 * decide only the iteration a convergent app stops at) and a timing
 * stage (cycles, from the operand pattern and the hardware
 * configuration; see backend::CycleEngine).  A program without a
 * convergence test (kpp, knn, gcn, gmres) runs every iteration
 * whatever its values, so its runs take their outcome from
 * valueFreeOutcome(): they bind no workspace, run the timing stage
 * alone, and neither look up nor publish anything.  For the others,
 * each PreparedCase memoizes the functional outcome {iterations,
 * converged} per max_iters.  Every backend runs the same functional
 * stage, so the key names no backend: the first run of a max_iters,
 * under whichever backend asks first, binds a workspace and runs
 * both stages; every later run of it, whatever its backend, buffer,
 * bandwidth, memory system or lane settings, is timing-only and
 * binds nothing.  Either way the stats are bit for bit those of the
 * two-stage run.  Two threads that miss on one key both compute (a
 * miss never waits on another thread) and publish the same outcome;
 * a run that fails or is cancelled publishes nothing.
 * cacheStats().functional counts the hits and misses of the programs
 * with a convergence test, across backends.  The sub-tensor
 * autotuner (api/autotune.hh) probes a case through run(), so its
 * probes share one outcome the same way.
 *
 * Thread safety: a Session may be shared by concurrent callers.  The
 * caches serialize construction per key (KeyedCache), every run gets
 * its own Workspace + engine, and a PreparedCase is read-only after
 * construction apart from its internally locked memos (functional
 * outcomes, and its pattern's buckets).  bindWorkspace binds copies
 * of the cached CSR / CSC pair, which share its arrays, so concurrent
 * runs of every app of one kind read a single copy of the operand;
 * each run owns only its dense tensors and scalars.
 */

#ifndef SPARSEPIPE_API_SESSION_HH
#define SPARSEPIPE_API_SESSION_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "apps/apps.hh"
#include "backend/backend.hh"
#include "core/sparsepipe_sim.hh"
#include "prep/reorder.hh"
#include "runner/keyed_cache.hh"
#include "sparse/coo.hh"
#include "util/status.hh"

namespace sparsepipe {
namespace obs {
class TraceSink;
} // namespace obs
} // namespace sparsepipe

namespace sparsepipe::api {

/** Seed every request uses unless it overrides it. */
inline constexpr std::uint64_t kDefaultSeed = 0x5eed5eedULL;

/** Everything that defines one simulator run. */
struct RunRequest
{
    /** Application (Table III key). */
    std::string app = "pr";
    /** Built-in dataset stand-in (Table I key). */
    std::string dataset;
    /** Hardware configuration; bytes_per_nz is overwritten from the
     *  blocked layout when `blocked` is set. */
    SparsepipeConfig sp = SparsepipeConfig::isoGpu();
    /**
     * Cycle-level engine that runs the request (backend registry,
     * src/backend).  Entry points that accept a backend *name*
     * validate it through backend::backendFromName before building
     * a request, so an unknown spelling surfaces as InvalidInput at
     * the boundary instead of here.
     */
    backend::BackendKind backend = backend::BackendKind::Sparsepipe;
    /** Loop iterations; 0 uses the app's default. */
    Idx iters = 0;
    ReorderKind reorder = ReorderKind::Vanilla;
    /** Derive bytes_per_nz from the blocked build (else 12.0). */
    bool blocked = true;
    /**
     * Packed-lane width override: -1 inherits sp.lanes, 0 picks the
     * preferred width (4), 1 forces the element path, 2..8 explicit.
     * Bit-identical for every value (see SparsepipeConfig::lanes).
     */
    Idx lanes = -1;
    /** Band-thread override: -1 inherits sp.band_threads. */
    int band_threads = -1;
    std::uint64_t seed = kDefaultSeed;
    /** Optional trace sink attached for the run. */
    obs::TraceSink *trace = nullptr;
    /**
     * Optional cancellation / deadline token.  Checked before the
     * run starts and per pass-engine stage launch during it; a fired
     * token makes run() return Cancelled / DeadlineExceeded.
     */
    const CancelToken *cancel = nullptr;
};

/**
 * Thread-safe memo of one prepared case's functional outcomes, keyed
 * by max_iters, whatever the backend.  It holds up to kCapacity
 * entries; the oldest goes once it is full.  A copied or assigned
 * memo starts empty: entries describe the operand they were computed
 * on, and a copied case may be edited.
 */
class FunctionalMemo
{
  public:
    static constexpr std::size_t kCapacity = 16;

    FunctionalMemo() = default;
    FunctionalMemo(const FunctionalMemo &) {}
    FunctionalMemo &operator=(const FunctionalMemo &);

    std::optional<RunResult> find(Idx max_iters);
    /** @return true when the oldest entry made room for this one. */
    bool publish(Idx max_iters, const RunResult &outcome);

  private:
    struct Entry
    {
        Idx max_iters;
        RunResult outcome;
    };

    std::mutex mu_;
    std::vector<Entry> entries_;
};

/**
 * One sparsity pattern of prepared operands: the row and column
 * forms of their coordinates, its blocked sizing, and the memo of its
 * timing buckets (see the file comment).
 */
struct PreparedPattern
{
    PatternPtr csr;
    PatternPtr csc;
    /** Per-nonzero footprint of the blocked dual storage. */
    double blocked_bytes_per_nz = 12.0;
    /** StepBuckets of this pattern, built on first use. */
    mutable BucketMemo buckets;
};

/**
 * One PrepareKind of one reordered matrix: the app-independent part
 * of a prepared case, which every app of that kind shares.
 */
struct PreparedOperand
{
    /** The prepared operand in both compressed forms. */
    CsrMatrix csr;
    CscMatrix csc;
    /** Per-nonzero footprint of the blocked dual storage. */
    double blocked_bytes_per_nz = 12.0;
    Idx nnz = 0;
    /**
     * The pattern csr and csc read, whose bucket memo Session::run
     * uses.  Null for a case assembled field by field: its runs
     * build their buckets per call.
     */
    std::shared_ptr<const PreparedPattern> pattern;
};

/**
 * A fully preprocessed (app, matrix) pair: everything downstream of
 * the raw COO that does not depend on the hardware configuration.
 * Its operand fields share their arrays with every other case of the
 * same operand (see the file comment).
 */
struct PreparedCase : PreparedOperand
{
    /** Program + operand handles + init (shared, stateless). */
    AppInstance app;
    /** Functional outcomes of Session runs (see the file comment). */
    mutable FunctionalMemo functional;
};

/** Result of Session::run. */
struct RunReport
{
    std::string app;
    std::string dataset;
    /** Registry name of the backend that produced `stats`. */
    std::string backend;
    Idx nnz = 0;
    SimStats stats;
    /**
     * Host wall-clock spent inside the engine: the timing stage,
     * plus the functional stage when the run computes values (a memo
     * miss of a program with a convergence test; binding and
     * preprocessing excluded).  Machine-dependent — never part of a
     * byte-compared artifact; the explore dataset records it so the
     * cost of producing each row is queryable.
     */
    double host_ms = 0.0;
};

/** A reordered matrix in both compressed forms, with its values. */
struct ReorderedMatrix
{
    CsrMatrix csr;
    CscMatrix csc;
};

/**
 * Preprocess an app operand from an already-reordered matrix in any
 * order: makeApp + Prepare on the COO + CSC twin + blocked layout
 * sizing, on a pattern of its own (whose bucket memo counts in no
 * Session).  For external matrices (MatrixMarket / synthetic
 * inputs); on a canonical matrix its operand equals the Session's.
 */
PreparedCase prepareCase(const std::string &app_name,
                         const CooMatrix &reordered);

/**
 * Apply a symmetric row reorder (None returns the input): the COO
 * form of the Session's reordered layer.
 */
CooMatrix reorderMatrix(CooMatrix raw, ReorderKind kind);

class Session
{
  public:
    Session() = default;
    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /** Shared process-wide session (benches, CLI). */
    static Session &process();

    /** Generated stand-in matrix, cached per (dataset, seed). */
    const CooMatrix &raw(const std::string &dataset,
                         std::uint64_t seed = kDefaultSeed);

    /**
     * Reordered matrix in both forms, cached per (dataset, kind,
     * seed); ReorderKind::None compresses the raw matrix as is.
     */
    const ReorderedMatrix &reordered(const std::string &dataset,
                                     ReorderKind kind,
                                     std::uint64_t seed = kDefaultSeed);

    /**
     * Preprocessed case, cached per (app, dataset, kind, seed); its
     * operand comes from the operand layer (see the file comment).
     */
    const PreparedCase &prepared(const std::string &app,
                                 const std::string &dataset,
                                 ReorderKind kind,
                                 std::uint64_t seed = kDefaultSeed);

    /**
     * prepared(), but pinned: the returned shared_ptr keeps the
     * operand alive across LRU eviction.  The serve layer holds one
     * per in-flight run.
     */
    std::shared_ptr<const PreparedCase>
    preparedShared(const std::string &app, const std::string &dataset,
                   ReorderKind kind,
                   std::uint64_t seed = kDefaultSeed);

    /**
     * Bound the cache layers with LRU eviction (0 = unbounded, the
     * default); `prepared` bounds the pattern and operand layers
     * too.  Entry counts, not bytes: a daemon serving k distinct
     * datasets hot keeps `prepared` at a small multiple of k.  See the file
     * comment for the reference-validity contract once a bound is
     * set.
     */
    void setCacheCapacities(std::size_t raw, std::size_t reordered,
                            std::size_t prepared);

    /**
     * Per-layer hit / miss / eviction counters.  `operand` counts
     * the operand layer, looked up once per `prepared` miss, and
     * `pattern` the pattern layer, looked up once per `operand` miss
     * of a kind other than SPD; `prepared`
     * counts the per-app layer.  `functional` counts run() lookups
     * in the cases' functional memos (runs of a program with a
     * convergence test only: the others make none), and as evictions
     * the entries a full memo dropped (entries also go, uncounted,
     * with their case).
     * `buckets` counts the timing stage's lookups in the bucket memos
     * of the patterns this Session built: a miss is a bucket build.
     */
    struct CacheStatsSnapshot
    {
        runner::CacheStats raw;
        runner::CacheStats reordered;
        runner::CacheStats pattern;
        runner::CacheStats operand;
        runner::CacheStats prepared;
        runner::CacheStats functional;
        runner::CacheStats buckets;
    };
    CacheStatsSnapshot cacheStats() const;

    /**
     * Build a workspace for a prepared case: allocate the dense
     * tensors, bind copies of the cached CSR/CSC pair (they share
     * its arrays: no array copy, no transpose), run the app's init.
     * The workspace references pc.app.program, so `pc` must outlive
     * it; Session::run holds a pin on the case for the whole run.
     */
    static Workspace bindWorkspace(const PreparedCase &pc);

    /**
     * Run one request end to end through the caches.
     *
     * Recoverable failures come back as a Status instead of killing
     * the process: InvalidInput for unknown app / dataset names or a
     * missing dataset, Cancelled / DeadlineExceeded when req.cancel
     * fires, ResourceExhausted on allocation failure, Internal for
     * anything unexpected escaping the simulator.
     */
    StatusOr<RunReport> run(const RunRequest &req);

    /**
     * Run a request against an externally supplied prepared case
     * (MatrixMarket / synthetic operands).  req.app must match the
     * app `pc` was prepared for; req.dataset labels the report.
     * Same error contract and functional memo as the cached
     * overload.
     */
    StatusOr<RunReport> run(const RunRequest &req,
                            const PreparedCase &pc);

  private:
    /** Pinned layers of the accessor chain: each builder holds its
     *  upstream artifact through a shared_ptr so a bounded upstream
     *  cache cannot evict it mid-build. */
    std::shared_ptr<const CooMatrix>
    rawShared(const std::string &dataset, std::uint64_t seed);
    std::shared_ptr<const ReorderedMatrix>
    reorderedShared(const std::string &dataset, ReorderKind kind,
                    std::uint64_t seed);

    runner::KeyedCache<std::pair<std::string, std::uint64_t>,
                       CooMatrix>
        raw_;
    runner::KeyedCache<
        std::tuple<std::string, ReorderKind, std::uint64_t>,
        ReorderedMatrix>
        reordered_;
    runner::KeyedCache<
        std::tuple<std::string, ReorderKind, std::uint64_t>,
        PreparedPattern>
        patterns_;
    runner::KeyedCache<std::tuple<std::string, ReorderKind,
                                  std::uint64_t, PrepareKind>,
                       PreparedOperand>
        operands_;
    runner::KeyedCache<std::tuple<std::string, std::string,
                                  ReorderKind, std::uint64_t>,
                       PreparedCase>
        prepared_;
    std::atomic<std::uint64_t> functional_hits_{0};
    std::atomic<std::uint64_t> functional_misses_{0};
    std::atomic<std::uint64_t> functional_evictions_{0};
    /** Shared by the bucket memos of every pattern built here. */
    const std::shared_ptr<BucketMemoCounters> bucket_counters_ =
        std::make_shared<BucketMemoCounters>();
};

} // namespace sparsepipe::api

#endif // SPARSEPIPE_API_SESSION_HH
