#include "fidelity.hh"

#include <cmath>

#include "energy/energy_model.hh"
#include "util/logging.hh"
#include "util/stats.hh"

namespace perfbench {

using sparsepipe::geomean;
using sparsepipe::mean;
using sparsepipe::bench::CaseResult;
using sparsepipe::bench::allApps;
using sparsepipe::bench::allDatasets;

const std::vector<PaperHeadline> &
paperHeadlines()
{
    static const std::vector<PaperHeadline> headlines = {
        {"fig14", 1.77},  {"fig16", 19.82}, {"fig17", 4.65},
        {"fig18", 66.78}, {"fig21", 82.93}, {"fig23", 54.98},
    };
    return headlines;
}

std::map<std::string, double>
figureHeadlines(const std::vector<CaseResult> &grid)
{
    const std::vector<std::string> apps = allApps();
    const std::size_t datasets = allDatasets().size();
    if (grid.size() != apps.size() * datasets)
        sp_panic("figureHeadlines: %zu cases, want the full %zu x %zu "
                 "grid", grid.size(), apps.size(), datasets);

    std::vector<double> vs_ideal, vs_cpu, vs_gpu, of_oracle;
    std::vector<double> util_by_app, saving_by_app;
    for (std::size_t a = 0; a < apps.size(); ++a) {
        const bool fig17_app = apps[a] == "bfs" || apps[a] == "kcore" ||
                               apps[a] == "pr" || apps[a] == "sssp";
        std::vector<double> utils, energy_pct;
        for (std::size_t d = 0; d < datasets; ++d) {
            const CaseResult &r = grid[a * datasets + d];
            vs_ideal.push_back(r.speedupVsIdeal());
            vs_cpu.push_back(r.speedupVsCpu());
            if (fig17_app)
                vs_gpu.push_back(r.speedupVsGpu());
            of_oracle.push_back(100.0 * r.fractionOfOracle());
            utils.push_back(100.0 * r.sp.bw_utilization);
            const sparsepipe::EnergyBreakdown sp =
                sparsepipe::sparsepipeEnergy(r.sp);
            const sparsepipe::EnergyBreakdown base =
                sparsepipe::baselineEnergy(r.ideal_strict);
            energy_pct.push_back(100.0 * sp.total() / base.total());
        }
        util_by_app.push_back(geomean(utils));
        saving_by_app.push_back(100.0 - mean(energy_pct));
    }
    return {
        {"fig14", geomean(vs_ideal)},     {"fig16", geomean(vs_cpu)},
        {"fig17", geomean(vs_gpu)},       {"fig18", mean(of_oracle)},
        {"fig21", geomean(util_by_app)}, {"fig23", mean(saving_by_app)},
    };
}

double
errorPct(double measured, double paper)
{
    return 100.0 * std::abs(measured - paper) / paper;
}

} // namespace perfbench
