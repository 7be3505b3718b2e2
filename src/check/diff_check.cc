#include "check/diff_check.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include <cstring>

#include "backend/backend.hh"
#include "check/invariants.hh"
#include "check/oei_driver.hh"
#include "graph/analysis.hh"
#include "ref/executor.hh"
#include "semiring/packed.hh"
#include "util/logging.hh"

namespace sparsepipe {

const char *
injectedBugName(InjectedBug bug)
{
    switch (bug) {
      case InjectedBug::None:           return "none";
      case InjectedBug::ResultEpsilon:  return "result-epsilon";
      case InjectedBug::BufferOverflow: return "buffer-overflow";
    }
    return "?";
}

StatusOr<InjectedBug>
injectedBugFromName(const std::string &name)
{
    static const InjectedBug all[] = {
        InjectedBug::None, InjectedBug::ResultEpsilon,
        InjectedBug::BufferOverflow,
    };
    for (InjectedBug bug : all)
        if (name == injectedBugName(bug))
            return bug;
    return invalidInput(
        "unknown injected bug '%s' (none, result-epsilon, "
        "buffer-overflow)", name.c_str());
}

namespace {

/**
 * Bitwise value identity with NaN as one value class: when both
 * scalar operands of a semiring add are NaN, IEEE 754 does not pin
 * which payload survives, so NaN bits are not reproducible even
 * between two scalar builds.  Everything else (signed zeros,
 * infinities, subnormals, the last mantissa bit) must match exactly.
 */
bool
sameBitsNanClass(Value a, Value b)
{
    if (std::isnan(a) || std::isnan(b))
        return std::isnan(a) && std::isnan(b);
    return std::memcmp(&a, &b, sizeof(Value)) == 0;
}

std::string
compareSpanBits(const std::string &tensor, const std::string &path,
                const Value *ref, const Value *got, std::size_t count)
{
    for (std::size_t i = 0; i < count; ++i) {
        if (!sameBitsNanClass(ref[i], got[i])) {
            std::ostringstream ss;
            ss.precision(17);
            ss << path << " is not bit-identical on tensor '"
               << tensor << "' at element " << i << ": expected "
               << ref[i] << ", got " << got[i];
            return ss.str();
        }
    }
    return "";
}

void
compareWorkspaceBits(std::vector<std::string> &failures,
                     const std::string &path, const Program &p,
                     const Workspace &ws_ref, const Workspace &ws_got)
{
    for (TensorId id = 0;
         id < static_cast<TensorId>(p.tensors().size()); ++id) {
        const TensorInfo &info = p.tensor(id);
        std::string msg;
        switch (info.kind) {
          case TensorKind::Vector:
            msg = compareSpanBits(info.name, path,
                                  ws_ref.vec(id).data(),
                                  ws_got.vec(id).data(),
                                  ws_ref.vec(id).size());
            break;
          case TensorKind::DenseMatrix:
            msg = compareSpanBits(info.name, path,
                                  ws_ref.den(id).data().data(),
                                  ws_got.den(id).data().data(),
                                  ws_ref.den(id).data().size());
            break;
          case TensorKind::Scalar: {
            const Value a = ws_ref.scalar(id);
            const Value b = ws_got.scalar(id);
            msg = compareSpanBits(info.name, path, &a, &b, 1);
            break;
          }
          case TensorKind::SparseMatrix:
            break; // constant operand
        }
        if (!msg.empty())
            failures.push_back(std::move(msg));
    }
}

void
compareRuns(std::vector<std::string> &failures, const std::string &path,
            const RunResult &ref, Idx iterations, bool converged)
{
    if (ref.iterations != iterations) {
        std::ostringstream ss;
        ss << path << " ran " << iterations << " iterations, ref ran "
           << ref.iterations;
        failures.push_back(ss.str());
    }
    if (ref.converged != converged) {
        std::ostringstream ss;
        ss << path << (converged ? " converged" : " did not converge")
           << " but ref "
           << (ref.converged ? "converged" : "did not converge");
        failures.push_back(ss.str());
    }
}

} // anonymous namespace

CaseReport
checkCase(const FuzzCase &fuzz, InjectedBug bug)
{
    CaseReport report;

    // The execution paths: golden reference, functional OEI driver
    // (deliberately at a different sub-tensor width), and every
    // registered cycle backend.  The sparsepipe backend runs here;
    // the rest of the registry runs in the N-way section below.
    Workspace ws_ref = makeWorkspace(fuzz);
    const RunResult ref_run = RefExecutor().run(ws_ref, fuzz.iters);

    Workspace ws_oei = makeWorkspace(fuzz);
    const OeiResult oei =
        runOeiFunctional(ws_oei, fuzz.iters, fuzz.oei_sub_tensor);

    Workspace ws_sim = makeWorkspace(fuzz);
    SimStats stats = SparsepipeSim(fuzz.config).run(ws_sim, fuzz.iters);

    // ---- deliberate defect injection (harness self-test) ------------
    if (bug == InjectedBug::ResultEpsilon) {
        for (TensorId id = 0;
             id < static_cast<TensorId>(fuzz.program.tensors().size());
             ++id) {
            const TensorInfo &info = fuzz.program.tensor(id);
            if (info.kind == TensorKind::Vector && !info.constant &&
                !ws_sim.vec(id).empty()) {
                ws_sim.vec(id)[0] += 1e-3;
                break;
            }
        }
    } else if (bug == InjectedBug::BufferOverflow) {
        stats.buffer.peak_elems =
            fuzz.config.bufferCapacityElems() + 1;
        stats.passes = std::max<Idx>(stats.passes, 1);
    }

    // ---- output equivalence -----------------------------------------
    //
    // Neither path reassociates a reduction, so both must match ref
    // bit for bit (NaN as one value class).
    compareRuns(report.failures, "oei", ref_run, oei.run.iterations,
                oei.run.converged);
    compareRuns(report.failures, "sim", ref_run, stats.iterations,
                stats.converged);
    if (oei.mode != stats.mode) {
        std::ostringstream ss;
        ss << "schedule mode disagrees: oei driver chose "
           << scheduleModeName(oei.mode) << ", simulator chose "
           << scheduleModeName(stats.mode);
        report.failures.push_back(ss.str());
    }
    compareWorkspaceBits(report.failures, "oei", fuzz.program, ws_ref,
                         ws_oei);
    compareWorkspaceBits(report.failures, "sim", fuzz.program, ws_ref,
                         ws_sim);

    // ---- packed-lane / band-thread cross-check ----------------------
    //
    // Every fuzz case also runs the simulator once on the scalar
    // element path and once with the widest packed lanes plus two
    // band threads, and the two must agree on every result bit (NaN
    // as one value class) and every headline SimStats field — the
    // strongest form of the equivalence the lane kernels promise.
    {
        SparsepipeConfig cfg_elem = fuzz.config;
        cfg_elem.lanes = 1;
        cfg_elem.band_threads = 1;
        SparsepipeConfig cfg_lanes = fuzz.config;
        cfg_lanes.lanes = packed::kMaxLanes;
        cfg_lanes.band_threads = 2;

        Workspace ws_elem = makeWorkspace(fuzz);
        const SimStats st_elem =
            SparsepipeSim(cfg_elem).run(ws_elem, fuzz.iters);
        Workspace ws_lanes = makeWorkspace(fuzz);
        const SimStats st_lanes =
            SparsepipeSim(cfg_lanes).run(ws_lanes, fuzz.iters);

        compareWorkspaceBits(report.failures, "sim-lanes",
                             fuzz.program, ws_elem, ws_lanes);
        const auto pin = [&](const char *what, auto a, auto b) {
            if (a == b)
                return;
            std::ostringstream ss;
            ss << "sim-lanes " << what << " drifted: element path "
               << a << " vs lanes " << b;
            report.failures.push_back(ss.str());
        };
        pin("cycles", st_elem.cycles, st_lanes.cycles);
        pin("iterations", st_elem.iterations, st_lanes.iterations);
        pin("converged", st_elem.converged, st_lanes.converged);
        pin("passes", st_elem.passes, st_lanes.passes);
        pin("dram_read_bytes", st_elem.dram_read_bytes,
            st_lanes.dram_read_bytes);
        pin("dram_write_bytes", st_elem.dram_write_bytes,
            st_lanes.dram_write_bytes);
    }

    // ---- alternate cycle backends -----------------------------------
    //
    // Every registry entry beyond sparsepipe diffs against ref too.
    // Every backend runs the one functional stage, so the bar is the
    // same bitwise identity (NaN as one value class), and their cycle
    // attribution must reconcile exactly: phase buckets sum to the
    // phase span, bucket totals sum to the cycle count.
    for (backend::BackendKind kind : backend::registeredBackends()) {
        if (kind == backend::BackendKind::Sparsepipe)
            continue;
        Workspace ws_alt = makeWorkspace(fuzz);
        const SimStats st =
            backend::makeEngine(kind, fuzz.config)->run(ws_alt,
                                                        fuzz.iters);
        const std::string path = backend::backendName(kind);
        compareRuns(report.failures, path, ref_run, st.iterations,
                    st.converged);
        compareWorkspaceBits(report.failures, path, fuzz.program,
                             ws_ref, ws_alt);
        if (st.attribution.totalCycles() != st.cycles) {
            std::ostringstream ss;
            ss << path << " attribution does not reconcile: buckets "
               << "sum to " << st.attribution.totalCycles()
               << " but the run took " << st.cycles << " cycles";
            report.failures.push_back(ss.str());
        }
        for (const obs::PhaseCycles &ph : st.attribution.phases) {
            if (ph.total() == ph.span())
                continue;
            std::ostringstream ss;
            ss << path << " phase " << ph.index
               << " attribution does not reconcile: buckets sum to "
               << ph.total() << " over a span of " << ph.span();
            report.failures.push_back(ss.str());
        }
    }

    // ---- simulator invariants ---------------------------------------
    const Analysis analysis = analyzeProgram(fuzz.program);
    const InvariantContext ctx{fuzz, analysis, stats, ws_sim};
    for (const Invariant &inv : defaultInvariants()) {
        const std::string msg = inv.check(ctx);
        if (!msg.empty())
            report.failures.push_back("invariant " + inv.name + ": " +
                                      msg);
    }

    report.sim = std::move(stats);
    report.ok = report.failures.empty();
    return report;
}

} // namespace sparsepipe
