/**
 * @file
 * Sub-tensor size exploration (paper Section IV-F: "Sparsepipe can
 * either operate on a fixed sub-tensor size for an already optimized
 * configuration or explore the optimal sub-tensor size in the
 * initial steps of the OEI dataflow").
 *
 * The tuner probes a ladder of sub-tensor widths with a short run
 * each and returns the fastest.  A probe is a few iterations, which
 * is the "initial steps" budget the paper describes, and it is an
 * ordinary Session::run: the probes differ only in sub_tensor_cols,
 * which moves no value, so they share one functional outcome and all
 * but the first are timing-only.
 */

#ifndef SPARSEPIPE_API_AUTOTUNE_HH
#define SPARSEPIPE_API_AUTOTUNE_HH

#include <vector>

#include "api/session.hh"

namespace sparsepipe::api {

/** One probed sub-tensor width. */
struct TunePoint
{
    Idx sub_tensor_cols = 0;
    Tick cycles = 0;
};

/** Outcome of a sub-tensor exploration. */
struct AutotuneResult
{
    /** Winning sub-tensor width. */
    Idx best = 0;
    /** All probed points in probe order. */
    std::vector<TunePoint> probes;
};

/**
 * Probe a power-of-two ladder spanning 1/8x .. 8x of req.sp's static
 * width for `pc` and return the fastest.  Each probe is
 * session.run(req, pc) at that width on the Sparsepipe backend for 4
 * iterations, without req's trace sink or cancel token.  A failed
 * probe's Status comes back as is.
 */
StatusOr<AutotuneResult> autotuneSubTensor(Session &session,
                                           RunRequest req,
                                           const PreparedCase &pc);

} // namespace sparsepipe::api

#endif // SPARSEPIPE_API_AUTOTUNE_HH
