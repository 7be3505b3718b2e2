#include "explore/spec.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>

#include "apps/apps.hh"
#include "backend/backend.hh"
#include "obs/json.hh"
#include "sparse/datasets.hh"
#include "util/parse.hh"

namespace sparsepipe::explore {

namespace {

// Canonical strings are produced by canonicalAxisValue() below, so
// the apply functions can parse with the permissive C routines.
long long
asInt(const std::string &v)
{
    return std::strtoll(v.c_str(), nullptr, 10);
}

double
asFloat(const std::string &v)
{
    return std::strtod(v.c_str(), nullptr);
}

} // namespace

const std::vector<AxisDef> &
axisRegistry()
{
    static const std::vector<AxisDef> registry = {
        {"iso", AxisType::Enum, {"gpu", "cpu"}, 0, 0,
         "gpu",
         [](const std::string &v, api::RunRequest &req) {
             req.sp.dram = v == "cpu" ? DramConfig::ddr4()
                                      : DramConfig::gddr6x();
         }},
        {"buffer_kb", AxisType::Int, {}, 1, 1 << 20,
         "1536",
         [](const std::string &v, api::RunRequest &req) {
             req.sp.buffer_bytes = static_cast<Idx>(asInt(v)) * 1024;
         }},
        {"pe_per_core", AxisType::Int, {}, 1, 1 << 20,
         "1024",
         [](const std::string &v, api::RunRequest &req) {
             req.sp.pe_per_core = static_cast<Idx>(asInt(v));
         }},
        {"bandwidth_gb_s", AxisType::Float, {}, 1e-3, 1e6,
         "504",
         [](const std::string &v, api::RunRequest &req) {
             req.sp.dram.bandwidth_gb_s = asFloat(v);
         }},
        {"reorder", AxisType::Enum, {"none", "vanilla", "locality"},
         0, 0,
         "vanilla",
         [](const std::string &v, api::RunRequest &req) {
             req.reorder = v == "none"       ? ReorderKind::None
                           : v == "locality" ? ReorderKind::Locality
                                             : ReorderKind::Vanilla;
         }},
        {"eager_csr", AxisType::Bool, {}, 0, 1,
         "1",
         [](const std::string &v, api::RunRequest &req) {
             req.sp.eager_csr = v == "1";
         }},
        {"sub_tensor_cols", AxisType::Int, {}, 0, 1 << 30,
         "0",
         [](const std::string &v, api::RunRequest &req) {
             req.sp.sub_tensor_cols = static_cast<Idx>(asInt(v));
         }},
        {"lag", AxisType::Int, {}, 1, 1024,
         "2",
         [](const std::string &v, api::RunRequest &req) {
             req.sp.lag = static_cast<Idx>(asInt(v));
         }},
        {"blocked", AxisType::Bool, {}, 0, 1,
         "1",
         [](const std::string &v, api::RunRequest &req) {
             req.blocked = v == "1";
         }},
        {"backend", AxisType::Enum,
         [] {
             std::vector<std::string> names;
             for (backend::BackendKind k :
                  backend::registeredBackends())
                 names.emplace_back(backend::backendName(k));
             return names;
         }(),
         0, 0,
         "sparsepipe",
         [](const std::string &v, api::RunRequest &req) {
             // Spec parsing already pinned v to the enum list, and
             // the list mirrors the backend registry, so the
             // resolution cannot fail.
             req.backend = backend::backendFromName(v).value();
         }},
    };
    return registry;
}

const AxisDef *
findAxis(const std::string &name)
{
    for (const AxisDef &def : axisRegistry())
        if (def.name == name)
            return &def;
    return nullptr;
}

namespace {

const char *
axisTypeName(AxisType type)
{
    switch (type) {
      case AxisType::Int:   return "integer";
      case AxisType::Float: return "number";
      case AxisType::Bool:  return "0|1";
      case AxisType::Enum:  return "name";
    }
    return "?";
}

/**
 * Validate one spelled value against an axis and return its
 * canonical form (decimal for Int, round-trip minimal for Float,
 * 0/1 for Bool, the name itself for Enum).
 */
StatusOr<std::string>
canonicalAxisValue(const AxisDef &def, const std::string &token)
{
    switch (def.type) {
      case AxisType::Int: {
        long long v = 0;
        if (!tryParseI64(token, v))
            return invalidInput("axis %s wants an integer, got '%s'",
                                def.name.c_str(), token.c_str());
        if (v < static_cast<long long>(def.min) ||
            v > static_cast<long long>(def.max))
            return invalidInput(
                "axis %s value %lld outside [%lld, %lld]",
                def.name.c_str(), v, static_cast<long long>(def.min),
                static_cast<long long>(def.max));
        return std::to_string(v);
      }
      case AxisType::Float: {
        double v = 0.0;
        if (!tryParseF64(token, v))
            return invalidInput("axis %s wants a number, got '%s'",
                                def.name.c_str(), token.c_str());
        if (v < def.min || v > def.max)
            return invalidInput(
                "axis %s value %g outside [%g, %g]",
                def.name.c_str(), v, def.min, def.max);
        return obs::jsonNumber(v);
      }
      case AxisType::Bool: {
        if (token == "0" || token == "false")
            return std::string("0");
        if (token == "1" || token == "true")
            return std::string("1");
        return invalidInput("axis %s wants 0|1, got '%s'",
                            def.name.c_str(), token.c_str());
      }
      case AxisType::Enum: {
        for (const std::string &allowed : def.enum_values)
            if (token == allowed)
                return token;
        std::string allowed;
        for (const std::string &name : def.enum_values)
            allowed += (allowed.empty() ? "" : "|") + name;
        return invalidInput("axis %s wants %s, got '%s'",
                            def.name.c_str(), allowed.c_str(),
                            token.c_str());
      }
    }
    return invalidInput("axis %s has an unknown type",
                        def.name.c_str());
}

/** Expand `axis NAME range LO HI STEP` (integer axes only). */
StatusOr<std::vector<std::string>>
expandRange(const AxisDef &def, const std::vector<std::string> &args)
{
    if (def.type != AxisType::Int)
        return invalidInput("range needs an integer axis, %s is %s",
                            def.name.c_str(),
                            axisTypeName(def.type));
    if (args.size() != 3)
        return invalidInput("range wants LO HI STEP");
    long long lo = 0, hi = 0, step = 0;
    if (!tryParseI64(args[0], lo) || !tryParseI64(args[1], hi) ||
        !tryParseI64(args[2], step))
        return invalidInput("range wants integer LO HI STEP");
    if (step <= 0)
        return invalidInput("range wants a positive STEP");
    if (lo > hi)
        return invalidInput("range wants LO <= HI");
    std::vector<std::string> values;
    for (long long v = lo; v <= hi; v += step) {
        StatusOr<std::string> canon =
            canonicalAxisValue(def, std::to_string(v));
        if (!canon.ok())
            return canon.status();
        values.push_back(std::move(canon).value());
    }
    return values;
}

/** Expand `axis NAME log-range LO HI FACTOR` (numeric axes). */
StatusOr<std::vector<std::string>>
expandLogRange(const AxisDef &def,
               const std::vector<std::string> &args)
{
    if (def.type != AxisType::Int && def.type != AxisType::Float)
        return invalidInput(
            "log-range needs a numeric axis, %s is %s",
            def.name.c_str(), axisTypeName(def.type));
    if (args.size() != 3)
        return invalidInput("log-range wants LO HI FACTOR");
    double lo = 0.0, hi = 0.0, factor = 0.0;
    if (!tryParseF64(args[0], lo) || !tryParseF64(args[1], hi) ||
        !tryParseF64(args[2], factor))
        return invalidInput("log-range wants numeric LO HI FACTOR");
    if (factor <= 1.0)
        return invalidInput("log-range wants FACTOR > 1");
    if (lo <= 0.0 || lo > hi)
        return invalidInput("log-range wants 0 < LO <= HI");
    std::vector<std::string> values;
    // The epsilon keeps 63 * 2^3 == 504 inside an integer-spelled
    // [63, 504] ladder despite rounding.
    for (double v = lo; v <= hi * (1.0 + 1e-9); v *= factor) {
        std::string spelled =
            def.type == AxisType::Int
                ? std::to_string(
                      static_cast<long long>(v + 0.5))
                : obs::jsonNumber(v);
        StatusOr<std::string> canon =
            canonicalAxisValue(def, spelled);
        if (!canon.ok())
            return canon.status();
        if (values.empty() || values.back() != canon.value())
            values.push_back(std::move(canon).value());
    }
    return values;
}

std::vector<std::string>
splitTokens(const std::string &line)
{
    std::istringstream in(line);
    std::vector<std::string> tokens;
    std::string token;
    while (in >> token)
        tokens.push_back(token);
    return tokens;
}

} // namespace

StatusOr<ExploreSpec>
parseExploreSpec(const std::string &text)
{
    ExploreSpec spec;
    std::istringstream in(text);
    std::string line;
    int lineno = 0;
    bool saw_space = false;
    std::set<std::string> axis_names;
    std::set<std::string> subset_names;

    while (std::getline(in, line)) {
        ++lineno;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        std::vector<std::string> tokens = splitTokens(line);
        if (tokens.empty())
            continue;
        const std::string &directive = tokens[0];

        if (!saw_space) {
            if (directive != "space" || tokens.size() != 2)
                return invalidInput(
                    "spec line %d: first directive must be "
                    "'space NAME', got '%s'",
                    lineno, directive.c_str());
            spec.name = tokens[1];
            saw_space = true;
            continue;
        }

        if (directive == "space") {
            return invalidInput(
                "spec line %d: duplicate 'space' directive", lineno);
        } else if (directive == "apps") {
            for (std::size_t i = 1; i < tokens.size(); ++i) {
                if (!findAppInfo(tokens[i]))
                    return invalidInput(
                        "spec line %d: unknown application '%s'",
                        lineno, tokens[i].c_str());
                spec.apps.push_back(tokens[i]);
            }
        } else if (directive == "datasets") {
            for (std::size_t i = 1; i < tokens.size(); ++i) {
                if (!findDatasetSpec(tokens[i]))
                    return invalidInput(
                        "spec line %d: unknown dataset '%s'", lineno,
                        tokens[i].c_str());
                spec.datasets.push_back(tokens[i]);
            }
        } else if (directive == "iters") {
            long long v = 0;
            if (tokens.size() != 2 || !tryParseI64(tokens[1], v) ||
                v < 0)
                return invalidInput(
                    "spec line %d: iters wants one non-negative "
                    "integer",
                    lineno);
            spec.iters = static_cast<Idx>(v);
        } else if (directive == "seed") {
            unsigned long long v = 0;
            if (tokens.size() != 2 || !tryParseU64(tokens[1], v))
                return invalidInput(
                    "spec line %d: seed wants one unsigned integer",
                    lineno);
            spec.seed = v;
        } else if (directive == "axis") {
            if (tokens.size() < 3)
                return invalidInput(
                    "spec line %d: axis wants NAME "
                    "list|range|log-range ...",
                    lineno);
            const AxisDef *def = findAxis(tokens[1]);
            if (!def)
                return invalidInput(
                    "spec line %d: unknown axis '%s'", lineno,
                    tokens[1].c_str());
            if (!axis_names.insert(def->name).second)
                return invalidInput(
                    "spec line %d: duplicate axis '%s'", lineno,
                    def->name.c_str());
            const std::string &kind = tokens[2];
            std::vector<std::string> args(tokens.begin() + 3,
                                          tokens.end());
            AxisValues axis;
            axis.def = def;
            if (kind == "list") {
                for (const std::string &token : args) {
                    StatusOr<std::string> canon =
                        canonicalAxisValue(*def, token);
                    if (!canon.ok())
                        return Status(canon.status()).withContext(
                            "spec line " + std::to_string(lineno));
                    axis.values.push_back(std::move(canon).value());
                }
            } else if (kind == "range" || kind == "log-range") {
                StatusOr<std::vector<std::string>> values =
                    kind == "range" ? expandRange(*def, args)
                                    : expandLogRange(*def, args);
                if (!values.ok())
                    return Status(values.status()).withContext(
                        "spec line " + std::to_string(lineno));
                axis.values = std::move(values).value();
            } else {
                return invalidInput(
                    "spec line %d: axis kind must be "
                    "list|range|log-range, got '%s'",
                    lineno, kind.c_str());
            }
            if (axis.values.empty())
                return invalidInput(
                    "spec line %d: axis %s has no values", lineno,
                    def->name.c_str());
            spec.axes.push_back(std::move(axis));
        } else if (directive == "subset") {
            if (tokens.size() < 3)
                return invalidInput(
                    "spec line %d: subset wants NAME AXIS=VALUE...",
                    lineno);
            SubsetSpec subset;
            subset.name = tokens[1];
            if (!subset_names.insert(subset.name).second)
                return invalidInput(
                    "spec line %d: duplicate subset '%s'", lineno,
                    subset.name.c_str());
            for (std::size_t i = 2; i < tokens.size(); ++i) {
                const std::size_t eq = tokens[i].find('=');
                if (eq == std::string::npos)
                    return invalidInput(
                        "spec line %d: subset pin '%s' wants "
                        "AXIS=VALUE",
                        lineno, tokens[i].c_str());
                const std::string axis_name = tokens[i].substr(0, eq);
                if (!axis_names.count(axis_name))
                    return invalidInput(
                        "spec line %d: subset pins axis '%s' the "
                        "spec does not declare",
                        lineno, axis_name.c_str());
                const AxisDef *def = findAxis(axis_name);
                StatusOr<std::string> canon = canonicalAxisValue(
                    *def, tokens[i].substr(eq + 1));
                if (!canon.ok())
                    return Status(canon.status()).withContext(
                        "spec line " + std::to_string(lineno));
                subset.pins.emplace_back(def,
                                         std::move(canon).value());
            }
            spec.subsets.push_back(std::move(subset));
        } else {
            return invalidInput(
                "spec line %d: unknown directive '%s'", lineno,
                directive.c_str());
        }
    }

    if (!saw_space)
        return invalidInput("spec is empty (no 'space' directive)");
    if (spec.apps.empty())
        return invalidInput("spec '%s' declares no apps",
                            spec.name.c_str());
    if (spec.datasets.empty())
        return invalidInput("spec '%s' declares no datasets",
                            spec.name.c_str());
    return spec;
}

StatusOr<ExploreSpec>
readExploreSpec(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return ioError("cannot open spec '%s'", path.c_str());
    std::ostringstream text;
    text << in.rdbuf();
    if (in.bad())
        return ioError("read error on spec '%s'", path.c_str());
    StatusOr<ExploreSpec> spec = parseExploreSpec(text.str());
    if (!spec.ok())
        return Status(spec.status()).withContext("spec '" + path + "'");
    return spec;
}

namespace {

/** Order `assign` pairs in registry order for canonical keys. */
std::vector<std::pair<std::string, std::string>>
registryOrdered(
    const std::vector<std::pair<const AxisDef *, std::string>> &raw)
{
    std::vector<std::pair<std::string, std::string>> assign;
    for (const AxisDef &def : axisRegistry())
        for (const auto &[axis, value] : raw)
            if (axis == &def)
                assign.emplace_back(def.name, value);
    return assign;
}

} // namespace

std::vector<ExploreJob>
expandSpec(const ExploreSpec &spec)
{
    // A spec without subsets expands exactly once, with no pins.
    std::vector<SubsetSpec> subsets = spec.subsets;
    if (subsets.empty())
        subsets.push_back(SubsetSpec{});

    std::vector<ExploreJob> jobs;
    std::set<std::string> seen;
    for (const SubsetSpec &subset : subsets) {
        // Axes the subset leaves free, in declaration order.
        std::vector<const AxisValues *> free_axes;
        std::vector<std::pair<const AxisDef *, std::string>> pinned =
            subset.pins;
        for (const AxisValues &axis : spec.axes) {
            bool is_pinned = false;
            for (const auto &[def, value] : subset.pins)
                if (def == axis.def)
                    is_pinned = true;
            if (!is_pinned)
                free_axes.push_back(&axis);
        }

        std::vector<std::size_t> odometer(free_axes.size(), 0);
        for (const std::string &app : spec.apps) {
            for (const std::string &dataset : spec.datasets) {
                std::fill(odometer.begin(), odometer.end(), 0);
                bool done = false;
                while (!done) {
                    ExploreJob job;
                    job.app = app;
                    job.dataset = dataset;
                    job.subset = subset.name;
                    job.iters = spec.iters;
                    job.seed = spec.seed;
                    std::vector<
                        std::pair<const AxisDef *, std::string>>
                        raw = pinned;
                    for (std::size_t a = 0; a < free_axes.size();
                         ++a)
                        raw.emplace_back(
                            free_axes[a]->def,
                            free_axes[a]->values[odometer[a]]);
                    job.assign = registryOrdered(raw);
                    if (seen.insert(jobKey(job)).second)
                        jobs.push_back(std::move(job));

                    // Advance the odometer, last axis fastest.
                    done = true;
                    for (std::size_t a = free_axes.size(); a-- > 0;) {
                        if (++odometer[a] <
                            free_axes[a]->values.size()) {
                            done = false;
                            break;
                        }
                        odometer[a] = 0;
                    }
                }
            }
        }
    }
    return jobs;
}

std::string
jobKey(const ExploreJob &job)
{
    std::ostringstream key;
    key << "app=" << job.app << " dataset=" << job.dataset
        << " iters=" << job.iters << " seed=" << job.seed;
    for (const auto &[axis, value] : job.assign)
        key << ' ' << axis << '=' << value;
    return key.str();
}

std::string
jobHash(const ExploreJob &job)
{
    const std::string key = jobKey(job);
    std::uint64_t hash = 1469598103934665603ULL;
    for (char c : key) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 1099511628211ULL;
    }
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(hash));
    return hex;
}

api::RunRequest
requestFor(const ExploreJob &job)
{
    api::RunRequest req;
    req.app = job.app;
    req.dataset = job.dataset;
    req.iters = job.iters;
    req.seed = job.seed;
    // `assign` is registry-ordered, so iso lands before the
    // bandwidth override regardless of spec declaration order.
    for (const auto &[axis, value] : job.assign)
        findAxis(axis)->apply(value, req);
    return req;
}

std::string
assignedValue(const ExploreJob &job, const std::string &axis)
{
    for (const auto &[name, value] : job.assign)
        if (name == axis)
            return value;
    return {};
}

} // namespace sparsepipe::explore
