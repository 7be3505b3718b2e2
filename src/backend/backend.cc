#include "backend/backend.hh"

#include "backend/gamma.hh"

namespace sparsepipe::backend {

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
        return std::make_unique<SparsepipeSim>(config);
      case BackendKind::Gamma:
        return std::make_unique<GammaSim>(config);
    }
    return nullptr;
}

} // namespace sparsepipe::backend
