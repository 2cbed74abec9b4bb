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
#include <vector>

#include "lang/builder.hh"
#include "lang/workspace.hh"

namespace sparsepipe {

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
    std::function<CsrMatrix(const CooMatrix &)> prepare;

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
 * Dataset preparation helpers shared by the factories.
 */

/** All stored values become 1.0 (boolean adjacency). */
CsrMatrix prepareBoolean(const CooMatrix &m);

/** Row-stochastic transition matrix (PageRank / label prop). */
CsrMatrix prepareStochastic(const CooMatrix &m);

/** Positive weights kept as generated (sssp / kpp distances). */
CsrMatrix prepareWeighted(const CooMatrix &m);

/**
 * Symmetrise and make strictly diagonally dominant: the SPD system
 * used by the cg / bgs / gmres solver benchmarks.  Off the diagonal
 * b_ij = a_ij/2 + a_ji/2 (zero sums dropped, the input diagonal
 * ignored); b_ii = 1 + sum_j |b_ij|.  The input is canonicalized
 * first, so duplicate triplets merge before they are halved.
 */
CsrMatrix prepareSpd(const CooMatrix &m);

} // namespace sparsepipe

#endif // SPARSEPIPE_APPS_APPS_HH
