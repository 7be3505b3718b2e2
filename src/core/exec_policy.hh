/**
 * @file
 * Resolved data-/thread-level parallelism for functional execution.
 *
 * An ExecPolicy carries the two intra-simulation parallelism knobs
 * from SparsepipeConfig after resolution: the packed lane width the
 * semiring kernels run at, and the band-thread fan-out for stepping
 * independent column bands of one pass concurrently.  Both are pure
 * implementation strategy — every combination is bit-identical to
 * the element path (lanes = 1, threads = 1), which is what the
 * equivalence test matrix in tests/span_engine_test.cc pins down.
 */

#ifndef SPARSEPIPE_CORE_EXEC_POLICY_HH
#define SPARSEPIPE_CORE_EXEC_POLICY_HH

#include "sparse/types.hh"

namespace sparsepipe {

namespace runner {
class ThreadPool;
} // namespace runner

/** Resolved functional-execution parallelism for one run. */
struct ExecPolicy
{
    /** Packed lane width (>= 1; 1 is the element path). */
    Idx lanes = 1;

    /** Band-thread count (>= 1; meaningful only with a pool). */
    int threads = 1;

    /** Worker pool for band parallelism; null runs serial. */
    runner::ThreadPool *pool = nullptr;

    /** True when band work should actually fan out. */
    bool parallel() const { return pool != nullptr && threads > 1; }

    /** True when any non-element-path machinery is engaged. */
    bool engaged() const { return lanes > 1 || parallel(); }
};

} // namespace sparsepipe

#endif // SPARSEPIPE_CORE_EXEC_POLICY_HH
