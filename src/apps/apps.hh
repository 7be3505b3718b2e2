/**
 * @file
 * The benchmark STA application suite (paper Table III).
 *
 * Eleven applications expressed as tensor dataflow Programs:
 *
 *   pr     PageRank                        mul-add   graph analytics
 *   kcore  K-core decomposition            mul-add   graph analytics
 *   bfs    Breadth-first search            and-or    graph analytics
 *   sssp   Single-source shortest path     min-add   graph analytics
 *   kpp    K-means++/|| initialisation     aril-add  clustering
 *   knn    K-nearest-neighbour expansion   and-or    clustering
 *   label  Label propagation               mul-add   clustering
 *   gcn    Graph convolutional network     mul-add   machine learning
 *   gmres  Pipelined GMRES (power/Arnoldi) mul-add   machine learning
 *   cg     Conjugate gradient              mul-add   solver / HPC
 *   bgs    BiCGSTAB                        mul-add   solver / HPC
 *
 * The first nine expose cross-iteration + producer-consumer reuse;
 * cg and bgs only producer-consumer (their alpha/beta reductions sit
 * on the path into the next vxm).  gmres uses the two-iteration
 * lagged normalisation of pipelined Krylov methods, which is what
 * makes its vxm chain sub-tensor dependent (see DESIGN.md).
 */

#ifndef SPARSEPIPE_APPS_APPS_HH
#define SPARSEPIPE_APPS_APPS_HH

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "lang/builder.hh"
#include "lang/workspace.hh"

namespace sparsepipe {

/**
 * How an app turns a raw dataset into its operand.  Apps of one kind
 * build the same operand from the same matrix, so api::Session
 * prepares it once and shares it among them.
 */
enum class PrepareKind
{
    Boolean,    ///< prepareBoolean: bfs, kcore, knn
    Stochastic, ///< prepareStochastic: pr, label, gcn
    Weighted,   ///< prepareWeighted: sssp, kpp
    Spd,        ///< prepareSpd: cg, bgs, gmres
};

/** An app's operand transform: its kind, callable on a raw matrix. */
struct Prepare
{
    PrepareKind kind = PrepareKind::Boolean;

    /** @return the prepare helper of `kind` applied to `m`. */
    CsrMatrix operator()(CooMatrix m) const;

    /**
     * The operand of a canonical matrix `a`, given with its CSC twin
     * `a_cols`, in both compressed forms: bit for bit operator()(a
     * as COO) and its CscMatrix::fromCsr twin.  The value kinds
     * (Boolean, Stochastic, Weighted) map a's and a_cols's values
     * and read their patterns; SPD's operand is symmetric, so its
     * CSC form reads its CSR's arrays.
     */
    std::pair<CsrMatrix, CscMatrix>
    operator()(const CsrMatrix &a, const CscMatrix &a_cols) const;
};

/** Everything needed to instantiate and run one application. */
struct AppInstance
{
    /** The dataflow program. */
    Program program;
    /** Handle of the sparse operand to bind. */
    TensorId matrix = invalid_tensor;
    /** Handle of the main result tensor (vector or dense). */
    TensorId result = invalid_tensor;

    /**
     * Transform a raw dataset into the operand this app expects
     * (row-stochastic for pr, boolean for bfs/knn, SPD for the
     * solvers, ...).
     */
    Prepare prepare;

    /** Initialise workspace state (source vertex, seeds, ...). */
    std::function<void(Workspace &)> init;

    /** Loop iterations used by the benchmark harness. */
    Idx default_iters = 16;
};

/** Static description of an app for tables. */
struct AppInfo
{
    std::string name;
    std::string semiring;
    std::string domain;
    /** Table III reuse pattern column. */
    bool cross_iteration = false;
};

/** @return the suite in Table III order. */
const std::vector<AppInfo> &appInfos();

/** @return the info row for `name`, or nullptr when unknown. */
const AppInfo *findAppInfo(const std::string &name);

/**
 * Instantiate an application for an n x n operand.
 * @param name  Table III short name
 * @param n     matrix dimension
 * Unknown names are user errors (fatal).
 */
AppInstance makeApp(const std::string &name, Idx n);

/**
 * Individual factories (exposed for focused tests).  Traversal apps
 * accept a source vertex; the default -1 roots the traversal at the
 * maximum-out-degree vertex of the bound matrix (Graph500 style),
 * which keeps the frontier non-degenerate on skewed matrices.
 */
AppInstance makePageRank(Idx n, Value damping = 0.85);
AppInstance makeKcore(Idx n, Value k = 3.0);
AppInstance makeBfs(Idx n, Idx source = -1);
AppInstance makeSssp(Idx n, Idx source = -1);
AppInstance makeKpp(Idx n, Idx seed_center = -1);
AppInstance makeKnn(Idx n, Idx source = -1);

/** Resolve a source parameter: -1 picks the busiest row. */
Idx resolveSource(const CsrMatrix &matrix, Idx source);
AppInstance makeLabelProp(Idx n, Value alpha = 0.8);
AppInstance makeGcn(Idx n, Idx features = 16);
AppInstance makeGmres(Idx n);
AppInstance makeCg(Idx n);
AppInstance makeBgs(Idx n);

/**
 * Dataset preparation helpers shared by the factories: Prepare on a
 * COO matrix in any order.
 */

/**
 * All stored values become 1.0 (boolean adjacency), before
 * duplicates merge: k copies of an entry store k.
 */
CsrMatrix prepareBoolean(CooMatrix m);

/** Row-stochastic transition matrix (PageRank / label prop). */
CsrMatrix prepareStochastic(CooMatrix m);

/**
 * Positive weights kept as generated (sssp / kpp distances); a
 * weight <= 0 becomes 0.1 before duplicates merge.
 */
CsrMatrix prepareWeighted(CooMatrix m);

/**
 * Symmetrise and make strictly diagonally dominant: the SPD system
 * used by the cg / bgs / gmres solver benchmarks.
 */
CsrMatrix prepareSpd(CooMatrix m);

/**
 * prepareSpd of a canonical square matrix `a` given with its CSC
 * twin `a_cols`: row r of (A + A^T) / 2 merges row r of `a` with
 * column r of `a_cols`.  The result equals its transpose bit for
 * bit.
 */
CsrMatrix prepareSpd(const CsrMatrix &a, const CscMatrix &a_cols);

} // namespace sparsepipe

#endif // SPARSEPIPE_APPS_APPS_HH
