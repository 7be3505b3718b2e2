#include "explore/cost_model.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <set>
#include <sstream>
#include <utility>

#include "obs/json.hh"

namespace sparsepipe::explore {

namespace {

/** Ridge term keeping the normal equations well conditioned when a
 *  swept axis happens to be constant in the dataset. */
constexpr double kRidge = 1e-6;

double
safeLog(double v)
{
    return std::log(v > 1.0 ? v : 1.0);
}

const std::vector<std::string> &
derivedFeatureNames()
{
    static const std::vector<std::string> names = {
        "bias",
        "log_nnz",
        "log_rows",
        "row_cv",
        "bandwidth_est",
        "log_iters",
        "log_bandwidth_gb_s",
        "log_buffer_kb",
        "log_pe_per_core",
        "eager_csr",
        "reorder_none",
        "reorder_locality",
        "log_lag",
        "blocked",
        "residency_pressure",
    };
    return names;
}

/** Median of |pred - actual| / actual over a split. */
double
medianRelError(std::vector<double> errors)
{
    if (errors.empty())
        return 0.0;
    std::sort(errors.begin(), errors.end());
    const std::size_t n = errors.size();
    return n % 2 ? errors[n / 2]
                 : 0.5 * (errors[n / 2 - 1] + errors[n / 2]);
}

/**
 * Solve (A + ridge*I) x = b in place by Gaussian elimination with
 * partial pivoting.  A is symmetric positive semi-definite (a Gram
 * matrix), so with the ridge the pivot never vanishes; the fixed
 * elimination order keeps the solve bit-deterministic.
 */
std::vector<double>
solveNormal(std::vector<std::vector<double>> a,
            std::vector<double> b)
{
    const std::size_t n = b.size();
    for (std::size_t i = 0; i < n; ++i)
        a[i][i] += kRidge;
    for (std::size_t col = 0; col < n; ++col) {
        std::size_t pivot = col;
        for (std::size_t r = col + 1; r < n; ++r)
            if (std::fabs(a[r][col]) > std::fabs(a[pivot][col]))
                pivot = r;
        std::swap(a[col], a[pivot]);
        std::swap(b[col], b[pivot]);
        const double diag = a[col][col];
        for (std::size_t r = col + 1; r < n; ++r) {
            const double factor = a[r][col] / diag;
            if (factor == 0.0)
                continue;
            for (std::size_t c = col; c < n; ++c)
                a[r][c] -= factor * a[col][c];
            b[r] -= factor * b[col];
        }
    }
    std::vector<double> x(n, 0.0);
    for (std::size_t col = n; col-- > 0;) {
        double sum = b[col];
        for (std::size_t c = col + 1; c < n; ++c)
            sum -= a[col][c] * x[c];
        x[col] = sum / a[col][col];
    }
    return x;
}

/** Full design vector: derived features + app one-hots. */
std::vector<double>
designVector(const CostModel &model, const DatasetRow &row)
{
    std::vector<double> x = costFeatures(row);
    // Baseline app (apps[0]) and unseen apps contribute no
    // indicator; everything they explain folds into the bias.
    for (std::size_t i = 1; i < model.apps.size(); ++i)
        x.push_back(row.app == model.apps[i] ? 1.0 : 0.0);
    return x;
}

} // namespace

std::vector<double>
costFeatures(const DatasetRow &row)
{
    const MatrixFeatures &f = row.features;
    const double buffer_kb = row.configNum("buffer_kb", 1536.0);
    const std::string reorder = row.configEnum("reorder");
    // Operand footprint (12 bytes per stored non-zero) relative to
    // the on-chip buffer: the cross-iteration reuse knee the paper's
    // buffer sweep exposes.
    const double residency =
        safeLog(1.0 + static_cast<double>(f.nnz) * 12.0 /
                          (buffer_kb * 1024.0));
    return {
        1.0,
        safeLog(static_cast<double>(f.nnz)),
        safeLog(static_cast<double>(f.rows)),
        f.row_cv,
        f.bandwidth_est,
        safeLog(static_cast<double>(row.iters)),
        safeLog(row.configNum("bandwidth_gb_s", 504.0)),
        safeLog(buffer_kb),
        safeLog(row.configNum("pe_per_core", 1024.0)),
        row.configNum("eager_csr", 1.0),
        reorder == "none" ? 1.0 : 0.0,
        reorder == "locality" ? 1.0 : 0.0,
        safeLog(row.configNum("lag", 2.0)),
        row.configNum("blocked", 1.0),
        residency,
    };
}

StatusOr<CostModel>
fitCostModel(const std::vector<DatasetRow> &rows)
{
    CostModel model;
    model.feature_names = derivedFeatureNames();
    std::set<std::string> apps;
    for (const DatasetRow &row : rows)
        apps.insert(row.app);
    model.apps.assign(apps.begin(), apps.end());
    if (model.apps.empty())
        return invalidInput("fitCostModel: empty dataset");

    const std::size_t p =
        model.feature_names.size() + model.apps.size() - 1;

    // The train / holdout split is positional (every 4th row), so
    // canonicalize the order first: a parallel sweep appends rows in
    // completion order, and the fit must be a function of the row
    // *set*, not of thread-scheduling luck.  Sort by canonical key
    // (index as a tie-break for key-less synthetic rows).
    std::vector<std::size_t> order(rows.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&rows](std::size_t a, std::size_t b) {
                  if (rows[a].key != rows[b].key)
                      return rows[a].key < rows[b].key;
                  return a < b;
              });

    // Accumulate the normal equations over the training split.
    std::vector<std::vector<double>> gram(
        p, std::vector<double>(p, 0.0));
    std::vector<double> rhs(p, 0.0);
    std::size_t train = 0;
    for (std::size_t i = 0; i < order.size(); ++i) {
        if (i % 4 == 3)
            continue; // held out
        const DatasetRow &row = rows[order[i]];
        const std::vector<double> x = designVector(model, row);
        const double y = std::log(row.result.cycles);
        for (std::size_t a = 0; a < p; ++a) {
            rhs[a] += x[a] * y;
            for (std::size_t b = 0; b < p; ++b)
                gram[a][b] += x[a] * x[b];
        }
        ++train;
    }
    if (train < p)
        return invalidInput(
            "fitCostModel: %zu training rows cannot determine %zu "
            "coefficients",
            train, p);

    model.coef = solveNormal(std::move(gram), std::move(rhs));

    std::vector<double> train_err, holdout_err;
    for (std::size_t i = 0; i < order.size(); ++i) {
        const DatasetRow &row = rows[order[i]];
        const double predicted = predictCycles(model, row);
        const double actual = row.result.cycles;
        const double rel =
            std::fabs(predicted - actual) / actual;
        (i % 4 == 3 ? holdout_err : train_err).push_back(rel);
    }
    model.rows_train = train_err.size();
    model.rows_holdout = holdout_err.size();
    model.median_rel_err_train = medianRelError(std::move(train_err));
    model.median_rel_err_holdout =
        medianRelError(std::move(holdout_err));
    return model;
}

double
predictCycles(const CostModel &model, const DatasetRow &row)
{
    const std::vector<double> x = designVector(model, row);
    double log_cycles = 0.0;
    for (std::size_t i = 0; i < x.size() && i < model.coef.size();
         ++i)
        log_cycles += model.coef[i] * x[i];
    return std::exp(log_cycles);
}

std::string
modelToJson(const CostModel &model)
{
    using obs::jsonEscape;
    using obs::jsonNumber;
    std::ostringstream out;
    out << "{\n  \"schema\": \"" << kCostModelSchema << "\",\n";
    out << "  \"features\": [";
    for (std::size_t i = 0; i < model.feature_names.size(); ++i)
        out << (i ? ", " : "") << '"'
            << jsonEscape(model.feature_names[i]) << '"';
    out << "],\n  \"apps\": [";
    for (std::size_t i = 0; i < model.apps.size(); ++i)
        out << (i ? ", " : "") << '"' << jsonEscape(model.apps[i])
            << '"';
    out << "],\n  \"coef\": [";
    for (std::size_t i = 0; i < model.coef.size(); ++i)
        out << (i ? ", " : "") << jsonNumber(model.coef[i]);
    out << "],\n";
    out << "  \"median_rel_err_train\": "
        << jsonNumber(model.median_rel_err_train) << ",\n";
    out << "  \"median_rel_err_holdout\": "
        << jsonNumber(model.median_rel_err_holdout) << ",\n";
    out << "  \"rows_train\": "
        << jsonNumber(static_cast<double>(model.rows_train)) << ",\n";
    out << "  \"rows_holdout\": "
        << jsonNumber(static_cast<double>(model.rows_holdout))
        << "\n}\n";
    return out.str();
}

StatusOr<CostModel>
modelFromJson(const std::string &text)
{
    obs::JsonValue root;
    std::string error;
    if (!obs::parseJson(text, root, &error))
        return invalidInput("cost model is not JSON: %s",
                            error.c_str());
    if (root.stringOr("schema") != kCostModelSchema)
        return invalidInput("cost model schema is not '%s'",
                            kCostModelSchema);
    CostModel model;
    const obs::JsonValue *features = root.find("features");
    const obs::JsonValue *apps = root.find("apps");
    const obs::JsonValue *coef = root.find("coef");
    if (!features || !features->isArray() || !apps ||
        !apps->isArray() || !coef || !coef->isArray())
        return invalidInput(
            "cost model lacks features/apps/coef arrays");
    for (const obs::JsonValue &v : features->array)
        model.feature_names.push_back(v.string);
    // predictCycles pairs coefficients with this build's features by
    // position, so a model fitted on another feature set would load
    // and silently mispredict.
    if (model.feature_names != derivedFeatureNames())
        return invalidInput(
            "cost model was fitted on %zu features that differ from "
            "this build's %zu; refit it",
            model.feature_names.size(), derivedFeatureNames().size());
    for (const obs::JsonValue &v : apps->array)
        model.apps.push_back(v.string);
    for (const obs::JsonValue &v : coef->array)
        model.coef.push_back(v.number);
    const std::size_t expect =
        model.feature_names.size() +
        (model.apps.empty() ? 0 : model.apps.size() - 1);
    if (model.coef.size() != expect)
        return invalidInput(
            "cost model has %zu coefficients, expected %zu",
            model.coef.size(), expect);
    model.median_rel_err_train =
        root.numberOr("median_rel_err_train", 0.0);
    model.median_rel_err_holdout =
        root.numberOr("median_rel_err_holdout", 0.0);
    model.rows_train =
        static_cast<std::size_t>(root.numberOr("rows_train", 0.0));
    model.rows_holdout =
        static_cast<std::size_t>(root.numberOr("rows_holdout", 0.0));
    return model;
}

Status
writeModel(const CostModel &model, const std::string &path)
{
    std::ofstream out(path, std::ios::out | std::ios::trunc);
    if (!out)
        return ioError("cannot open model '%s' for writing",
                       path.c_str());
    out << modelToJson(model);
    out.flush();
    if (!out)
        return ioError("write error on model '%s'", path.c_str());
    return okStatus();
}

StatusOr<CostModel>
readModel(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return ioError("cannot open model '%s'", path.c_str());
    std::ostringstream text;
    text << in.rdbuf();
    if (in.bad())
        return ioError("read error on model '%s'", path.c_str());
    return modelFromJson(text.str());
}

std::vector<std::size_t>
pruneProbeSet(const CostModel &model,
              const std::vector<DatasetRow> &candidates,
              double keep_fraction)
{
    if (candidates.empty())
        return {};
    std::vector<std::pair<double, std::size_t>> ranked;
    ranked.reserve(candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i)
        ranked.emplace_back(predictCycles(model, candidates[i]), i);
    // Tie-break on index so the probe set is deterministic even when
    // two candidates predict identically.
    std::sort(ranked.begin(), ranked.end());
    std::size_t keep = static_cast<std::size_t>(
        std::ceil(keep_fraction * static_cast<double>(ranked.size())));
    keep = std::max<std::size_t>(
        1, std::min(keep, ranked.size()));
    std::vector<std::size_t> indices;
    indices.reserve(keep);
    for (std::size_t i = 0; i < keep; ++i)
        indices.push_back(ranked[i].second);
    return indices;
}

} // namespace sparsepipe::explore
