/**
 * @file
 * Fitted analytical cost model over the explore dataset.
 *
 * A log-linear model: log(cycles) is regressed onto derived operand
 * and configuration features (log nnz, row-length CV, log bandwidth,
 * buffer-residency pressure, reorder / app indicators, ...) by
 * ridge-stabilized least squares.  Everything about the fit is
 * deterministic — rows canonicalized by key before the positional
 * split (a parallel sweep appends in completion order), fixed
 * feature order, fixed normal-equation elimination order, no
 * randomness — so fitting the same row *set* yields byte-identical
 * serialized models regardless of how many sweep workers produced
 * it, and a model file can be regression-diffed like any other
 * golden artifact.
 *
 * The model predicts cycles *without simulating*, which is what lets
 * the autotuner prune its probe set: rank candidate configurations
 * by predicted cycles, simulate only the most promising fraction,
 * and pick the best measured one.  Accuracy is tracked honestly: the
 * fit holds out every fourth row (index % 4 == 3) and reports the
 * median relative cycle error on both splits; the nightly CI gates
 * on the held-out figure.
 */

#ifndef SPARSEPIPE_EXPLORE_COST_MODEL_HH
#define SPARSEPIPE_EXPLORE_COST_MODEL_HH

#include <cstddef>
#include <string>
#include <vector>

#include "explore/dataset.hh"
#include "util/status.hh"

namespace sparsepipe::explore {

/** Schema tag of a serialized model. */
inline constexpr const char *kCostModelSchema = "explore-cost-v1";

/** A fitted log-linear cycle predictor. */
struct CostModel
{
    /** Derived-feature names, coefficient order. */
    std::vector<std::string> feature_names;
    /**
     * Apps observed while fitting, sorted; the first is the one-hot
     * baseline, the rest get indicator coefficients appended after
     * the derived features.
     */
    std::vector<std::string> apps;
    /** feature_names.size() + (apps.size() - 1) coefficients. */
    std::vector<double> coef;
    /** Median |pred - actual| / actual per split. */
    double median_rel_err_train = 0.0;
    double median_rel_err_holdout = 0.0;
    std::size_t rows_train = 0;
    std::size_t rows_holdout = 0;
};

/**
 * The derived feature vector of one row (bias first), shared by fit
 * and predict.  Exposed for tests.
 */
std::vector<double> costFeatures(const DatasetRow &row);

/**
 * Fit a model.  Every fourth row (index % 4 == 3) is held out for
 * the reported error; the rest train.  InvalidInput when the
 * training split is smaller than the coefficient count (the normal
 * equations would be underdetermined).
 */
StatusOr<CostModel> fitCostModel(const std::vector<DatasetRow> &rows);

/**
 * Predicted cycle count for a row's (features, config, app, iters).
 * The row's result fields are ignored, so a candidate configuration
 * that was never simulated predicts fine; an app unseen during
 * fitting falls back to the baseline indicator.
 */
double predictCycles(const CostModel &model, const DatasetRow &row);

/** Serialize (deterministic, byte-stable for identical models). */
std::string modelToJson(const CostModel &model);

/**
 * Parse a serialized model; InvalidInput on schema mismatch or when
 * its feature list differs from the one this build fits and predicts
 * with.
 */
StatusOr<CostModel> modelFromJson(const std::string &text);

/** Write / read a model file. */
Status writeModel(const CostModel &model, const std::string &path);
StatusOr<CostModel> readModel(const std::string &path);

/**
 * Autotuner pruning hook: rank `candidates` by predicted cycles and
 * return the indices of the most promising `keep_fraction` (at
 * least one), ascending by prediction.  The caller simulates only
 * those and picks the best measured.
 */
std::vector<std::size_t>
pruneProbeSet(const CostModel &model,
              const std::vector<DatasetRow> &candidates,
              double keep_fraction);

} // namespace sparsepipe::explore

#endif // SPARSEPIPE_EXPLORE_COST_MODEL_HH
