#include "api/autotune.hh"

#include <algorithm>

namespace sparsepipe::api {

StatusOr<AutotuneResult>
autotuneSubTensor(Session &session, RunRequest req,
                  const PreparedCase &pc)
{
    const Idx cols = pc.csr.cols();
    const Idx pivot = req.sp.resolveSubTensor(cols, pc.csr.nnz());
    std::vector<Idx> ladder;
    for (Idx t = std::max<Idx>(16, pivot / 8); t <= pivot * 8 && t <= cols;
         t *= 2)
        ladder.push_back(t);
    if (ladder.empty())
        ladder.push_back(pivot);

    req.backend = backend::BackendKind::Sparsepipe;
    // A few iterations, so every fused pass role is exercised: the
    // "initial steps" budget of Section IV-F.
    req.iters = 4;
    req.trace = nullptr;
    req.cancel = nullptr;
    AutotuneResult result;
    Tick best_cycles = 0;
    for (Idx t : ladder) {
        req.sp.sub_tensor_cols = t;
        StatusOr<RunReport> probe = session.run(req, pc);
        if (!probe.ok())
            return probe.status();
        const Tick cycles = probe->stats.cycles;
        result.probes.push_back({t, cycles});
        if (result.best == 0 || cycles < best_cycles) {
            result.best = t;
            best_cycles = cycles;
        }
    }
    return result;
}

} // namespace sparsepipe::api
