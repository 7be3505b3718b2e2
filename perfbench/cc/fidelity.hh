/**
 * @file
 * The paper-fidelity headlines: each figure bench's headline number,
 * computed from the 11-app x 9-dataset iso-GPU grid exactly as that
 * bench computes it, next to the value the paper publishes.
 */

#ifndef PERFBENCH_FIDELITY_HH
#define PERFBENCH_FIDELITY_HH

#include <map>
#include <string>
#include <vector>

#include "harness.hh"

namespace perfbench {

/** One figure's headline as the paper states it. */
struct PaperHeadline
{
    /** "fig14", ... (the metric is fid_<fig>_err_pct). */
    const char *fig;
    double paper;
};

/** The six headlines, in figure order. */
const std::vector<PaperHeadline> &paperHeadlines();

/**
 * Measured headline per figure ("fig14" -> 1.43...) from a grid in
 * sweepGrid(allApps(), allDatasets(), ...) order:
 *
 *   fig14  geomean over all cases of speedup vs the ideal accelerator
 *   fig16  geomean over all cases of speedup vs the CPU model
 *   fig17  geomean over bfs/kcore/pr/sssp cases of speedup vs GPU
 *   fig18  mean over all cases of % of oracle performance
 *   fig21  geomean over apps of the per-app geomean bandwidth util %
 *   fig23  mean over apps of the total energy saving % vs the
 *          strict baseline accelerator
 */
std::map<std::string, double>
figureHeadlines(const std::vector<sparsepipe::bench::CaseResult> &grid);

/** abs(measured - paper) / paper, in percent. */
double errorPct(double measured, double paper);

} // namespace perfbench

#endif // PERFBENCH_FIDELITY_HH
