/**
 * @file
 * Clustering / machine-learning applications: k-means|| style
 * initialisation (kpp), two-hop KNN expansion (knn), and a graph
 * convolutional network (gcn).
 */

#include "apps/apps.hh"

#include <algorithm>

#include "util/random.hh"

namespace sparsepipe {

AppInstance
makeKpp(Idx n, Idx seed_center)
{
    ProgramBuilder b("kpp");
    const Semiring sr(SemiringKind::ArilAdd);

    TensorId D = b.matrix("D", n, n);
    TensorId sel = b.vector("sel", n);
    TensorId mindist = b.vector("mindist", n);
    TensorId crow = b.vector("crow", n);
    TensorId cand = b.vector("cand", n);
    TensorId next_min = b.vector("next_min", n);
    TensorId t1 = b.vector("t1", n);
    TensorId t2 = b.vector("t2", n);
    TensorId next_sel = b.vector("next_sel", n);

    TensorId theta = b.constant("theta", 0.9);
    TensorId zero = b.constant("zero", 0.0);
    TensorId thr = b.scalar("thr");
    TensorId thr_s = b.scalar("thr_s");
    TensorId spread = b.scalar("spread");

    // Oversampling threshold from the *current* distances; this fold
    // reads the loop-carried input, so it never blocks the OEI path.
    b.fold(thr, BinaryOp::Max, mindist, "farthest point");
    b.eWise(thr_s, BinaryOp::Mul, thr, theta);
    // crow[j] = sum_i (sel_i ? D_ij : 0): distance rows of the
    // sampled centers (Aril-Add semiring).
    b.vxm(crow, sel, D, sr, "center distances");
    // Stored zero means "no edge": keep the old distance there.
    b.eWise(cand, BinaryOp::Select, crow, mindist);
    b.eWise(next_min, BinaryOp::Min, cand, mindist);
    // Oversample: pick every point still at >= theta * max distance
    // (k-means|| style multi-selection).
    b.eWise(t1, BinaryOp::Sub, next_min, thr_s);
    b.apply(t2, UnaryOp::Signum, t1);
    b.eWise(next_sel, BinaryOp::Max, t2, zero);
    b.fold(spread, BinaryOp::Add, next_min, "total spread");

    b.carry(sel, next_sel);
    b.carry(mindist, next_min);

    AppInstance app;
    app.program = b.build();
    app.matrix = D;
    app.result = mindist;
    app.prepare.kind = PrepareKind::Weighted;
    app.default_iters = 12;
    app.init = [sel, mindist, seed_center, D](Workspace &ws) {
        Idx seed = resolveSource(ws.csr(D), seed_center);
        auto &s = ws.vec(sel);
        s[static_cast<std::size_t>(seed)] = 1.0;
        auto &d = ws.vec(mindist);
        std::fill(d.begin(), d.end(), 1.0e6);
    };
    return app;
}

AppInstance
makeKnn(Idx n, Idx source)
{
    ProgramBuilder b("knn");
    const Semiring sr(SemiringKind::AndOr);

    TensorId A = b.matrix("A", n, n);
    TensorId frontier = b.vector("frontier", n);
    TensorId visited = b.vector("visited", n);
    TensorId hop1 = b.vector("hop1", n);
    TensorId hop2 = b.vector("hop2", n);
    TensorId not_vis = b.vector("not_vis", n);
    TensorId next_frontier = b.vector("next_frontier", n);
    TensorId vis1 = b.vector("vis1", n);
    TensorId next_visited = b.vector("next_visited", n);

    TensorId one = b.constant("one", 1.0);
    TensorId found = b.scalar("found");

    // Two vxm in one iteration: the Fig. 4 shape where the producer
    // feeds the consumer through a no-op, so both share one stream
    // of the matrix under OEI.
    b.vxm(hop1, frontier, A, sr, "first hop");
    b.vxm(hop2, hop1, A, sr, "second hop");
    b.eWise(not_vis, BinaryOp::Sub, one, visited);
    b.eWise(next_frontier, BinaryOp::Mul, hop2, not_vis);
    b.eWise(vis1, BinaryOp::Max, visited, hop1);
    b.eWise(next_visited, BinaryOp::Max, vis1, hop2);
    b.fold(found, BinaryOp::Add, next_visited, "neighbours found");

    b.carry(frontier, next_frontier);
    b.carry(visited, next_visited);

    AppInstance app;
    app.program = b.build();
    app.matrix = A;
    app.result = visited;
    app.prepare.kind = PrepareKind::Boolean;
    app.default_iters = 8;
    app.init = [frontier, visited, source, A](Workspace &ws) {
        Idx src = resolveSource(ws.csr(A), source);
        ws.vec(frontier)[static_cast<std::size_t>(src)] = 1.0;
        ws.vec(visited)[static_cast<std::size_t>(src)] = 1.0;
    };
    return app;
}

AppInstance
makeGcn(Idx n, Idx features)
{
    ProgramBuilder b("gcn");
    const Semiring sr(SemiringKind::MulAdd);

    TensorId A = b.matrix("A", n, n);
    TensorId H = b.dense("H", n, features);
    TensorId W = b.dense("W", features, features, /*constant=*/true);
    TensorId H_agg = b.dense("H_agg", n, features);
    TensorId H_w = b.dense("H_w", n, features);
    TensorId H_new = b.dense("H_new", n, features);

    // One GCN layer per loop iteration: H' = ReLU((A x H) W).
    // MM and ReLU keep row-granular sub-tensor dependency, so
    // consecutive layers fuse their SpMM streams (paper Fig. 5).
    b.spmm(H_agg, A, H, sr, "aggregate");
    b.mm(H_w, H_agg, W, "weight transform");
    b.apply(H_new, UnaryOp::Relu, H_w);

    b.carry(H, H_new);

    AppInstance app;
    app.program = b.build();
    app.matrix = A;
    app.result = H;
    app.prepare.kind = PrepareKind::Stochastic;
    app.default_iters = 4;
    app.init = [H, W, features](Workspace &ws) {
        Rng rng(0xfeedULL);
        auto &h = ws.den(H);
        for (Value &x : h.data())
            x = rng.nextRange(0.0, 1.0);
        auto &w = ws.den(W);
        // Scaled random weights keep activations bounded across
        // layers (Xavier-style 1/f scaling).
        for (Value &x : w.data())
            x = rng.nextRange(-1.0, 1.0) /
                static_cast<Value>(features);
    };
    return app;
}

} // namespace sparsepipe
