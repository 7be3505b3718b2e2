#include "backend/backend.hh"

#include "backend/gamma.hh"

namespace sparsepipe::backend {

SparsepipeSim
CycleEngine::sparsepipeSim() const
{
    SparsepipeSim sim(config_);
    sim.attachTrace(trace_);
    sim.setCancelToken(cancel_);
    return sim;
}

RunResult
CycleEngine::runFunctional(Workspace &ws, Idx max_iters) const
{
    return sparsepipeSim().runFunctional(ws, max_iters);
}

namespace {

/** CycleEngine facade over the Sparsepipe simulator's timing stage. */
class SparsepipeEngine final : public CycleEngine
{
  public:
    using CycleEngine::CycleEngine;

    SimStats runTiming(const Program &program,
                       const OperandPatterns &operands,
                       const RunResult &outcome, Idx max_iters) override
    {
        return sparsepipeSim().runTiming(program, operands, outcome,
                                         max_iters);
    }
};

} // anonymous namespace

const char *
backendName(BackendKind kind)
{
    switch (kind) {
      case BackendKind::Sparsepipe: return "sparsepipe";
      case BackendKind::Gamma:      return "gamma";
    }
    return "?";
}

const std::vector<BackendKind> &
registeredBackends()
{
    static const std::vector<BackendKind> all = {
        BackendKind::Sparsepipe,
        BackendKind::Gamma,
    };
    return all;
}

std::string
registeredBackendList()
{
    std::string out;
    for (BackendKind kind : registeredBackends()) {
        if (!out.empty())
            out += ", ";
        out += backendName(kind);
    }
    return out;
}

StatusOr<BackendKind>
backendFromName(const std::string &name)
{
    for (BackendKind kind : registeredBackends())
        if (name == backendName(kind))
            return kind;
    return invalidInput("unknown backend '%s' (registered: %s)",
                        name.c_str(),
                        registeredBackendList().c_str());
}

std::unique_ptr<CycleEngine>
makeEngine(BackendKind kind, const SparsepipeConfig &config)
{
    switch (kind) {
      case BackendKind::Sparsepipe:
        return std::make_unique<SparsepipeEngine>(config);
      case BackendKind::Gamma:
        return std::make_unique<GammaSim>(config);
    }
    return nullptr;
}

ExecOutcome
BackendExecutor::execute(Workspace &ws, Idx max_iters) const
{
    const std::unique_ptr<CycleEngine> engine =
        makeEngine(kind_, config_);
    ExecOutcome out;
    out.backend = backendName(kind_);
    out.stats = engine->run(ws, max_iters);
    out.run.iterations = out.stats->iterations;
    out.run.converged = out.stats->converged;
    // Only the Sparsepipe engine makes an OEI scheduling decision;
    // other backends leave the outcome's mode unset.
    if (kind_ == BackendKind::Sparsepipe)
        out.mode = out.stats->mode;
    return out;
}

} // namespace sparsepipe::backend
