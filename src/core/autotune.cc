#include "core/autotune.hh"

#include <algorithm>
#include <optional>

#include "util/logging.hh"

namespace sparsepipe {

AutotuneResult
autotuneSubTensor(const AppInstance &app, const CooMatrix &raw,
                  SparsepipeConfig config,
                  std::vector<Idx> candidates, Idx pilot_iters)
{
    CsrMatrix prepared = app.prepare(raw);
    CscMatrix csc = CscMatrix::fromCsr(prepared);
    return autotuneSubTensor(app, prepared, csc, std::move(config),
                             std::move(candidates), pilot_iters);
}

AutotuneResult
autotuneSubTensor(const AppInstance &app, const CsrMatrix &prepared,
                  const CscMatrix &csc, SparsepipeConfig config,
                  std::vector<Idx> candidates, Idx pilot_iters)
{
    if (pilot_iters < 2)
        sp_panic("autotuneSubTensor: pilot needs >= 2 iterations");

    if (candidates.empty()) {
        // Power-of-two ladder spanning 1/8x .. 8x of the static
        // heuristic.
        const Idx pivot =
            config.resolveSubTensor(prepared.cols(), prepared.nnz());
        for (Idx t = std::max<Idx>(16, pivot / 8);
             t <= pivot * 8 && t <= prepared.cols(); t *= 2) {
            candidates.push_back(t);
        }
        if (candidates.empty())
            candidates.push_back(pivot);
    }

    // The probes differ only in sub_tensor_cols, which moves no
    // value: take the pilot's outcome once (computing values only
    // when a convergence test can stop the program early) and time
    // it per candidate.
    const RunResult pilot = [&] {
        if (const std::optional<RunResult> known =
                valueFreeOutcome(app.program, pilot_iters))
            return *known;
        Workspace ws(app.program);
        ws.bindMatrix(app.matrix, prepared, csc);
        app.init(ws);
        return SparsepipeSim(config).runFunctional(ws, pilot_iters);
    }();
    const OperandPatterns operands(app.matrix, prepared, csc);

    AutotuneResult result;
    Tick best_cycles = 0;
    for (Idx t : candidates) {
        SparsepipeConfig probe = config;
        probe.sub_tensor_cols = t;
        const SimStats stats = SparsepipeSim(probe).runTiming(
            app.program, operands, pilot, pilot_iters);
        result.probes.push_back({t, stats.cycles});
        if (result.best == 0 || stats.cycles < best_cycles) {
            result.best = t;
            best_cycles = stats.cycles;
        }
    }
    return result;
}

} // namespace sparsepipe
