/**
 * @file
 * Graph-analytics applications: PageRank, k-core, BFS, SSSP, and
 * label propagation.  Each factory mirrors the GraphBLAS-style
 * formulation the paper targets (Figure 1 shows PageRank).
 */

#include "apps/apps.hh"

#include <algorithm>
#include <limits>

namespace sparsepipe {

AppInstance
makePageRank(Idx n, Value damping)
{
    ProgramBuilder b("pr");
    const Semiring sr(SemiringKind::MulAdd);

    TensorId L = b.matrix("L", n, n);
    TensorId pr_next = b.vector("pr_next", n);
    TensorId pr_nextnext = b.vector("pr_nextnext", n);
    TensorId scaled = b.vector("scaled", n);
    TensorId merged = b.vector("merged", n);
    TensorId diff = b.vector("diff", n);
    TensorId dangling = b.vector("dangling_mask", n);

    TensorId d = b.constant("d", damping);
    TensorId one_minus_d = b.constant("1-d", 1.0 - damping);
    TensorId inv_n = b.constant("1/n", 1.0 / static_cast<Value>(n));
    TensorId dang = b.scalar("dang");
    TensorId s1 = b.scalar("s1");
    TensorId s2 = b.scalar("s2");
    TensorId s3 = b.scalar("s3");
    TensorId res = b.scalar("res");

    // Mass currently sitting in dangling nodes (random-jump term).
    b.dotOp(dang, pr_next, dangling, "dangling mass");
    // pr'' = pr' x L  (Mul-Add semiring).
    b.vxm(pr_nextnext, pr_next, L, sr, "rank spread");
    // pr'' * d + (d * dang + (1 - d)) / n, all element-wise.
    b.eWise(scaled, BinaryOp::Mul, pr_nextnext, d);
    b.eWise(s1, BinaryOp::Mul, dang, d);
    b.eWise(s2, BinaryOp::Add, s1, one_minus_d);
    b.eWise(s3, BinaryOp::Mul, s2, inv_n);
    b.eWise(merged, BinaryOp::Add, scaled, s3);
    // Residual for convergence.
    b.eWise(diff, BinaryOp::AbsDiff, merged, pr_next);
    b.fold(res, BinaryOp::Add, diff, "residual");

    b.carry(pr_next, merged);
    b.converge(res, 1e-10);

    AppInstance app;
    app.program = b.build();
    app.matrix = L;
    app.result = pr_next;
    app.prepare.kind = PrepareKind::Stochastic;
    app.default_iters = 20;
    app.init = [n, pr_next, dangling, L](Workspace &ws) {
        auto &pr0 = ws.vec(pr_next);
        std::fill(pr0.begin(), pr0.end(),
                  1.0 / static_cast<Value>(n));
        auto &mask = ws.vec(dangling);
        const CsrMatrix &m = ws.csr(L);
        for (Idx r = 0; r < m.rows(); ++r)
            mask[static_cast<std::size_t>(r)] =
                m.rowNnz(r) == 0 ? 1.0 : 0.0;
    };
    return app;
}

AppInstance
makeKcore(Idx n, Value k)
{
    ProgramBuilder b("kcore");
    const Semiring sr(SemiringKind::MulAdd);

    TensorId A = b.matrix("A", n, n);
    TensorId active = b.vector("active", n);
    TensorId deg = b.vector("deg", n);
    TensorId t1 = b.vector("t1", n);
    TensorId t2 = b.vector("t2", n);
    TensorId t3 = b.vector("t3", n);
    TensorId next_active = b.vector("next_active", n);
    TensorId changed = b.vector("changed", n);
    TensorId degn = b.vector("degn", n);

    TensorId k_thr = b.constant("k-0.5", k - 0.5);
    TensorId zero = b.constant("zero", 0.0);
    TensorId inv_n = b.constant("1/n", 1.0 / static_cast<Value>(n));
    TensorId res = b.scalar("res");
    TensorId core_size = b.scalar("core_size");
    TensorId max_deg = b.scalar("max_deg");

    // deg[j] = number of active in-neighbours of j.
    b.vxm(deg, active, A, sr, "active degree");
    // keep = active && (deg >= k), built from e-wise primitives the
    // way GraphBLAS programs chain eWiseApply calls.
    b.eWise(t1, BinaryOp::Sub, deg, k_thr);
    b.apply(t2, UnaryOp::Signum, t1);
    b.eWise(t3, BinaryOp::Max, t2, zero);
    b.eWise(next_active, BinaryOp::Mul, active, t3);
    // Book-keeping folds that make kcore e-wise heavy (Fig 15c).
    b.eWise(changed, BinaryOp::AbsDiff, next_active, active);
    b.fold(res, BinaryOp::Add, changed, "peeled this round");
    b.fold(core_size, BinaryOp::Add, next_active);
    b.eWise(degn, BinaryOp::Mul, deg, inv_n);
    b.fold(max_deg, BinaryOp::Max, degn);

    b.carry(active, next_active);
    b.converge(res, 0.5);

    AppInstance app;
    app.program = b.build();
    app.matrix = A;
    app.result = active;
    app.prepare.kind = PrepareKind::Boolean;
    app.default_iters = 16;
    app.init = [active](Workspace &ws) {
        auto &a = ws.vec(active);
        std::fill(a.begin(), a.end(), 1.0);
    };
    return app;
}

AppInstance
makeBfs(Idx n, Idx source)
{
    ProgramBuilder b("bfs");
    const Semiring sr(SemiringKind::AndOr);

    TensorId A = b.matrix("A", n, n);
    TensorId frontier = b.vector("frontier", n);
    TensorId visited = b.vector("visited", n);
    TensorId reached = b.vector("reached", n);
    TensorId not_vis = b.vector("not_vis", n);
    TensorId next_frontier = b.vector("next_frontier", n);
    TensorId next_visited = b.vector("next_visited", n);

    TensorId one = b.constant("one", 1.0);
    TensorId frontier_size = b.scalar("frontier_size");

    b.vxm(reached, frontier, A, sr, "expand frontier");
    b.eWise(not_vis, BinaryOp::Sub, one, visited);
    b.eWise(next_frontier, BinaryOp::Mul, reached, not_vis);
    b.eWise(next_visited, BinaryOp::Max, visited, next_frontier);
    b.fold(frontier_size, BinaryOp::Add, next_frontier);

    b.carry(frontier, next_frontier);
    b.carry(visited, next_visited);
    b.converge(frontier_size, 0.5);

    AppInstance app;
    app.program = b.build();
    app.matrix = A;
    app.result = visited;
    app.prepare.kind = PrepareKind::Boolean;
    app.default_iters = 16;
    app.init = [frontier, visited, source, A](Workspace &ws) {
        Idx src = resolveSource(ws.csr(A), source);
        ws.vec(frontier)[static_cast<std::size_t>(src)] = 1.0;
        ws.vec(visited)[static_cast<std::size_t>(src)] = 1.0;
    };
    return app;
}

AppInstance
makeSssp(Idx n, Idx source)
{
    ProgramBuilder b("sssp");
    const Semiring sr(SemiringKind::MinAdd);

    TensorId W = b.matrix("W", n, n);
    TensorId dist = b.vector("dist", n);
    TensorId relax = b.vector("relax", n);
    TensorId next_dist = b.vector("next_dist", n);
    TensorId changed = b.vector("changed", n);
    TensorId res = b.scalar("res");

    // relax[j] = min_i (dist[i] + w_ij); then keep the better of the
    // relaxed and current distances (Bellman-Ford step).
    b.vxm(relax, dist, W, sr, "relax edges");
    b.eWise(next_dist, BinaryOp::Min, relax, dist);
    b.eWise(changed, BinaryOp::NotEqual, next_dist, dist);
    b.fold(res, BinaryOp::Add, changed, "labels changed");

    b.carry(dist, next_dist);
    b.converge(res, 0.5);

    AppInstance app;
    app.program = b.build();
    app.matrix = W;
    app.result = dist;
    app.prepare.kind = PrepareKind::Weighted;
    app.default_iters = 16;
    app.init = [dist, source, W](Workspace &ws) {
        Idx src = resolveSource(ws.csr(W), source);
        auto &d = ws.vec(dist);
        std::fill(d.begin(), d.end(),
                  std::numeric_limits<Value>::infinity());
        d[static_cast<std::size_t>(src)] = 0.0;
    };
    return app;
}

AppInstance
makeLabelProp(Idx n, Value alpha)
{
    ProgramBuilder b("label");
    const Semiring sr(SemiringKind::MulAdd);

    TensorId W = b.matrix("W", n, n);
    TensorId score = b.vector("score", n);
    TensorId seed = b.vector("seed", n);
    TensorId nbr = b.vector("nbr", n);
    TensorId t1 = b.vector("t1", n);
    TensorId t2 = b.vector("t2", n);
    TensorId mixed = b.vector("mixed", n);
    TensorId diff = b.vector("diff", n);

    TensorId a_const = b.constant("alpha", alpha);
    TensorId oma = b.constant("1-alpha", 1.0 - alpha);
    TensorId res = b.scalar("res");

    // score' = alpha * (score x W) + (1 - alpha) * seed
    b.vxm(nbr, score, W, sr, "spread labels");
    b.eWise(t1, BinaryOp::Mul, nbr, a_const);
    b.eWise(t2, BinaryOp::Mul, seed, oma);
    b.eWise(mixed, BinaryOp::Add, t1, t2);
    b.eWise(diff, BinaryOp::AbsDiff, mixed, score);
    b.fold(res, BinaryOp::Add, diff);

    b.carry(score, mixed);
    b.converge(res, 1e-10);

    AppInstance app;
    app.program = b.build();
    app.matrix = W;
    app.result = score;
    app.prepare.kind = PrepareKind::Stochastic;
    app.default_iters = 16;
    app.init = [n, score, seed](Workspace &ws) {
        auto &s = ws.vec(seed);
        // Every 16th vertex is a labelled seed.
        for (Idx i = 0; i < n; i += 16)
            s[static_cast<std::size_t>(i)] = 1.0;
        ws.vec(score) = s;
    };
    return app;
}

} // namespace sparsepipe
