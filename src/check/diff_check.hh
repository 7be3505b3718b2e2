/**
 * @file
 * The differential check: run one case through the reference
 * executor, the independent OEI functional driver, and every
 * registered cycle backend; compare every tensor bit for bit (NaN as
 * one value class, since IEEE 754 does not pin which NaN payload a
 * reduction keeps); then run the simulator invariants.
 */

#ifndef SPARSEPIPE_CHECK_DIFF_CHECK_HH
#define SPARSEPIPE_CHECK_DIFF_CHECK_HH

#include <string>
#include <vector>

#include "check/fuzz_case.hh"
#include "core/sparsepipe_sim.hh"
#include "util/status.hh"

namespace sparsepipe {

/**
 * Deliberate defects injected AFTER the simulator runs, to prove the
 * catch -> shrink -> serialize pipeline end-to-end without touching
 * production code:
 *  - ResultEpsilon: perturb one simulator output element by 1e-3
 *    (models an off-by-one in the fused dataflow);
 *  - BufferOverflow: report a peak buffer occupancy one element
 *    past capacity (models an off-by-one in buffer eviction).
 */
enum class InjectedBug { None, ResultEpsilon, BufferOverflow };

/** @return short name ("none", "result-epsilon", ...). */
const char *injectedBugName(InjectedBug bug);

/** Parse a bug name; InvalidInput on unknown names (CLI input). */
StatusOr<InjectedBug> injectedBugFromName(const std::string &name);

/** Outcome of checking one case. */
struct CaseReport
{
    bool ok = true;
    /** Human-readable failure descriptions (empty when ok). */
    std::vector<std::string> failures;
    /** Simulator stats of the run (valid even on failure). */
    SimStats sim;
};

/**
 * Run the full differential + invariant check on one case.
 */
CaseReport checkCase(const FuzzCase &fuzz,
                     InjectedBug bug = InjectedBug::None);

} // namespace sparsepipe

#endif // SPARSEPIPE_CHECK_DIFF_CHECK_HH
