/**
 * @file
 * Krylov solver applications: pipelined GMRES-style iteration
 * (gmres), conjugate gradient (cg), and BiCGSTAB (bgs).
 *
 * cg and bgs are the paper's examples of programs whose alpha / beta
 * reduction scalars sit on the path into the next vxm, so they enjoy
 * producer-consumer reuse only.  gmres uses the two-iteration lagged
 * normalisation of pipelined Krylov methods, which keeps its
 * vxm-to-vxm path element-wise (cross-iteration reuse applies).
 */

#include "apps/apps.hh"

#include <algorithm>

#include "util/random.hh"

namespace sparsepipe {

AppInstance
makeGmres(Idx n)
{
    ProgramBuilder b("gmres");
    const Semiring sr(SemiringKind::MulAdd);

    TensorId A = b.matrix("A", n, n);
    TensorId v = b.vector("v", n);
    TensorId vn = b.vector("vn", n);
    TensorId w = b.vector("w", n);

    TensorId inv_use = b.scalar("inv_use", 1.0);
    TensorId inv_lag = b.scalar("inv_lag", 1.0);
    TensorId inv_new = b.scalar("inv_new", 1.0);
    TensorId nrm2 = b.scalar("nrm2");
    TensorId nrm = b.scalar("nrm");

    // Normalise with the norm measured two iterations ago; the lag
    // is what removes the reduction from the vxm-to-vxm path.
    b.eWise(vn, BinaryOp::Mul, v, inv_use, "lagged normalise");
    b.vxm(w, vn, A, sr, "Krylov expand");
    b.dotOp(nrm2, w, w, "norm (pipelined)");
    b.apply(nrm, UnaryOp::Sqrt, nrm2);
    b.apply(inv_new, UnaryOp::Reciprocal, nrm);

    b.carry(v, w);
    b.carry(inv_use, inv_lag);
    b.carry(inv_lag, inv_new);

    AppInstance app;
    app.program = b.build();
    app.matrix = A;
    app.result = v;
    app.prepare.kind = PrepareKind::Spd;
    app.default_iters = 20;
    app.init = [v](Workspace &ws) {
        Rng rng(0x6123ULL);
        auto &x = ws.vec(v);
        for (Value &e : x)
            e = rng.nextRange(0.1, 1.0);
    };
    return app;
}

AppInstance
makeCg(Idx n)
{
    ProgramBuilder b("cg");
    const Semiring sr(SemiringKind::MulAdd);

    TensorId A = b.matrix("A", n, n);
    TensorId x = b.vector("x", n);
    TensorId r = b.vector("r", n);
    TensorId p = b.vector("p", n);
    TensorId ap = b.vector("Ap", n);
    TensorId pa = b.vector("p_alpha", n);
    TensorId next_x = b.vector("next_x", n);
    TensorId ra = b.vector("Ap_alpha", n);
    TensorId next_r = b.vector("next_r", n);
    TensorId pb = b.vector("p_beta", n);
    TensorId next_p = b.vector("next_p", n);

    TensorId rr_old = b.scalar("rr_old", 1.0);
    TensorId p_ap = b.scalar("pAp");
    TensorId alpha = b.scalar("alpha");
    TensorId rr_new = b.scalar("rr_new");
    TensorId beta = b.scalar("beta");
    TensorId res = b.scalar("res");

    b.vxm(ap, p, A, sr, "A p");
    b.dotOp(p_ap, p, ap);
    b.eWise(alpha, BinaryOp::Div, rr_old, p_ap);
    b.eWise(pa, BinaryOp::Mul, p, alpha);
    b.eWise(next_x, BinaryOp::Add, x, pa);
    b.eWise(ra, BinaryOp::Mul, ap, alpha);
    b.eWise(next_r, BinaryOp::Sub, r, ra);
    b.dotOp(rr_new, next_r, next_r);
    b.eWise(beta, BinaryOp::Div, rr_new, rr_old);
    b.eWise(pb, BinaryOp::Mul, p, beta);
    b.eWise(next_p, BinaryOp::Add, next_r, pb);
    b.apply(res, UnaryOp::Sqrt, rr_new);

    b.carry(x, next_x);
    b.carry(r, next_r);
    b.carry(p, next_p);
    b.carry(rr_old, rr_new);
    b.converge(res, 1e-10);

    AppInstance app;
    app.program = b.build();
    app.matrix = A;
    app.result = x;
    app.prepare.kind = PrepareKind::Spd;
    app.default_iters = 20;
    app.init = [r, p, rr_old](Workspace &ws) {
        // Solve A x = b with x0 = 0, so r0 = p0 = b.
        Rng rng(0xc6ULL);
        auto &rv = ws.vec(r);
        for (Value &e : rv)
            e = rng.nextRange(0.1, 1.0);
        ws.vec(p) = rv;
        Value rr = 0.0;
        for (Value e : rv)
            rr += e * e;
        ws.scalar(rr_old) = rr;
    };
    return app;
}

AppInstance
makeBgs(Idx n)
{
    ProgramBuilder b("bgs");
    const Semiring sr(SemiringKind::MulAdd);

    TensorId A = b.matrix("A", n, n);
    TensorId x = b.vector("x", n);
    TensorId r = b.vector("r", n);
    TensorId r0 = b.vector("r0_hat", n);
    TensorId p = b.vector("p", n);
    TensorId v = b.vector("v", n);
    TensorId t1 = b.vector("t1", n);
    TensorId t2 = b.vector("t2", n);
    TensorId t3 = b.vector("t3", n);
    TensorId next_p = b.vector("next_p", n);
    TensorId next_v = b.vector("next_v", n);
    TensorId va = b.vector("v_alpha", n);
    TensorId s = b.vector("s", n);
    TensorId t = b.vector("t", n);
    TensorId pa = b.vector("p_alpha", n);
    TensorId so = b.vector("s_omega", n);
    TensorId x1 = b.vector("x1", n);
    TensorId next_x = b.vector("next_x", n);
    TensorId to = b.vector("t_omega", n);
    TensorId next_r = b.vector("next_r", n);

    TensorId rho_old = b.scalar("rho_old", 1.0);
    TensorId alpha = b.scalar("alpha", 1.0);
    TensorId omega = b.scalar("omega", 1.0);
    TensorId rho = b.scalar("rho");
    TensorId q1 = b.scalar("q1");
    TensorId q2 = b.scalar("q2");
    TensorId beta = b.scalar("beta");
    TensorId r0v = b.scalar("r0v");
    TensorId next_alpha = b.scalar("next_alpha");
    TensorId ts = b.scalar("ts");
    TensorId tt = b.scalar("tt");
    TensorId next_omega = b.scalar("next_omega");
    TensorId rr = b.scalar("rr");
    TensorId res = b.scalar("res");

    b.dotOp(rho, r0, r);
    b.eWise(q1, BinaryOp::Div, rho, rho_old);
    b.eWise(q2, BinaryOp::Div, alpha, omega);
    b.eWise(beta, BinaryOp::Mul, q1, q2);
    // p' = r + beta * (p - omega * v)
    b.eWise(t1, BinaryOp::Mul, v, omega);
    b.eWise(t2, BinaryOp::Sub, p, t1);
    b.eWise(t3, BinaryOp::Mul, t2, beta);
    b.eWise(next_p, BinaryOp::Add, r, t3);
    b.vxm(next_v, next_p, A, sr, "A p");
    b.dotOp(r0v, r0, next_v);
    b.eWise(next_alpha, BinaryOp::Div, rho, r0v);
    // s = r - alpha * v'
    b.eWise(va, BinaryOp::Mul, next_v, next_alpha);
    b.eWise(s, BinaryOp::Sub, r, va);
    b.vxm(t, s, A, sr, "A s");
    b.dotOp(ts, t, s);
    b.dotOp(tt, t, t);
    b.eWise(next_omega, BinaryOp::Div, ts, tt);
    // x' = x + alpha * p' + omega * s
    b.eWise(pa, BinaryOp::Mul, next_p, next_alpha);
    b.eWise(x1, BinaryOp::Add, x, pa);
    b.eWise(so, BinaryOp::Mul, s, next_omega);
    b.eWise(next_x, BinaryOp::Add, x1, so);
    // r' = s - omega * t
    b.eWise(to, BinaryOp::Mul, t, next_omega);
    b.eWise(next_r, BinaryOp::Sub, s, to);
    b.dotOp(rr, next_r, next_r);
    b.apply(res, UnaryOp::Sqrt, rr);

    b.carry(x, next_x);
    b.carry(r, next_r);
    b.carry(p, next_p);
    b.carry(v, next_v);
    b.carry(rho_old, rho);
    b.carry(alpha, next_alpha);
    b.carry(omega, next_omega);
    b.converge(res, 1e-10);

    AppInstance app;
    app.program = b.build();
    app.matrix = A;
    app.result = x;
    app.prepare.kind = PrepareKind::Spd;
    app.default_iters = 12;
    app.init = [r, r0](Workspace &ws) {
        // x0 = 0, p0 = v0 = 0: the first iteration then reduces to
        // p1 = r0 exactly as in the textbook formulation.
        Rng rng(0xb65ULL);
        auto &rv = ws.vec(r);
        for (Value &e : rv)
            e = rng.nextRange(0.1, 1.0);
        ws.vec(r0) = rv;
    };
    return app;
}

} // namespace sparsepipe
