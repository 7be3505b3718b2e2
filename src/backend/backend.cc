#include "backend/backend.hh"

#include "backend/gamma.hh"

namespace sparsepipe::backend {

namespace {

/** CycleEngine facade over the existing Sparsepipe simulator. */
class SparsepipeEngine final : public CycleEngine
{
  public:
    explicit SparsepipeEngine(SparsepipeConfig config)
        : sim_(std::move(config)) {}

    ValueSemantics valueSemantics() const override
    {
        return ValueSemantics::FusedOei;
    }
    RunResult runFunctional(Workspace &ws, Idx max_iters) override
    {
        return sim_.runFunctional(ws, max_iters);
    }
    SimStats runTiming(const Program &program,
                       const OperandPatterns &operands,
                       const RunResult &outcome, Idx max_iters) override
    {
        return sim_.runTiming(program, operands, outcome, max_iters);
    }
    void attachTrace(obs::TraceSink *sink) override
    {
        sim_.attachTrace(sink);
    }
    void setCancelToken(const CancelToken *token) override
    {
        sim_.setCancelToken(token);
    }

  private:
    SparsepipeSim sim_;
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
