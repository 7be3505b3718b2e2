/**
 * @file
 * Offline row reordering (paper Section IV-E1).
 *
 * Under the OEI dataflow a non-zero A(i,k) stays on chip from the
 * step that loads column k until the step that unlocks row i, so
 * elements far below the diagonal (i >> k) are what bloats the
 * buffer.  Two reorderings shrink that window:
 *
 *  - vanillaReorder: a greedy approximate topological order that
 *    pushes non-zeros toward the upper triangle (the paper's
 *    "straightforward vanilla reorder ... towards an upper
 *    triangular matrix with simple heuristics");
 *  - localityReorder: a Cuthill-McKee-style breadth-first labelling
 *    that clusters connected vertices, our stand-in for the
 *    GraphOrder algorithm the paper borrows (locality-maximising
 *    graph ordering).
 *
 * Both return a permutation `perm` with perm[old] = new, applied
 * symmetrically (rows and columns) so the renumbered graph is
 * isomorphic to the original.
 *
 * Cost on an n x n matrix of nnz entries: vanillaReorder is
 * O((n + nnz) log n) with an indexed heap of n vertices (one
 * decrease-key per entry), localityReorder O(n log n + nnz log d)
 * for row degree d, and permuteSymmetric one pass over the rows
 * plus a sort of each relabelled row, O(n + nnz log d).
 */

#ifndef SPARSEPIPE_PREP_REORDER_HH
#define SPARSEPIPE_PREP_REORDER_HH

#include <vector>

#include "sparse/coo.hh"
#include "sparse/csr.hh"
#include "util/status.hh"

namespace sparsepipe {

/** Available reorder algorithms. */
enum class ReorderKind { None, Vanilla, Locality };

/** @return short lowercase name. */
const char *reorderKindName(ReorderKind kind);

/**
 * Greedy approximate topological order: repeatedly emit the vertex
 * with the fewest unplaced in-neighbours, the lower id on a tie.
 * Edges then run mostly from low to high label, i.e. above the
 * diagonal.  The reorders below relabel rows and columns alike, so a
 * non-square matrix is fatal for each of them; this one also takes
 * at most 2^32 - 1 vertices.
 */
std::vector<Idx> vanillaReorder(const CsrMatrix &matrix);

/**
 * Cuthill-McKee-style BFS labelling from a minimum-degree seed,
 * clustering each vertex next to its neighbours (GraphOrder-class
 * locality ordering).
 */
std::vector<Idx> localityReorder(const CsrMatrix &matrix);

/** Identity permutation of length n. */
std::vector<Idx> identityOrder(Idx n);

/** Dispatch on ReorderKind (identity for None). */
std::vector<Idx> makeReorder(ReorderKind kind, const CsrMatrix &matrix);

/**
 * Apply a symmetric renumbering to a canonical CSR matrix: entry
 * (r, c) moves to (perm[r], perm[c]), and the result is canonical
 * CSR.  @return the renumbered matrix, or InvalidInput when the
 * matrix is not square or `perm` is not a bijection on its rows
 * (permutations can arrive from external tooling, not only
 * makeReorder).
 */
StatusOr<CsrMatrix> permuteSymmetric(const CsrMatrix &matrix,
                                     const std::vector<Idx> &perm);

/**
 * permuteSymmetric for a COO matrix in any order: the entries are
 * merged and zero-free like CooMatrix::canonicalize leaves them, in
 * row-major order.
 */
StatusOr<CooMatrix>
applySymmetricPermutation(const CooMatrix &matrix,
                          const std::vector<Idx> &perm);

/** @return true when perm is a bijection on [0, n). */
bool isPermutation(const std::vector<Idx> &perm);

} // namespace sparsepipe

#endif // SPARSEPIPE_PREP_REORDER_HH
