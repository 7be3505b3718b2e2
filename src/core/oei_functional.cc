#include "core/oei_functional.hh"

#include <algorithm>
#include <array>
#include <cstring>
#include <unordered_map>
#include <unordered_set>

#include "ref/executor.hh"
#include "runner/scheduler.hh"
#include "semiring/packed.hh"
#include "util/logging.hh"

namespace sparsepipe {

namespace {

/** One op in the producer->consumer window. */
struct WindowOp
{
    OpNode op;            ///< operands renamed into frame A
    std::size_t body_idx; ///< loop-body index
    bool frame_a;         ///< belongs to the producer's iteration
};

} // anonymous namespace

FusedChain
buildFusedChain(const Program &program, const VxmPairing &pairing)
{
    const auto &ops = program.ops();
    const OpNode &consumer = ops[pairing.consumer_op];

    // Collect the unrolled window between producer and consumer.
    // Frame-B (next iteration) operands are renamed through the
    // carry map so they refer to frame-A values.
    std::vector<WindowOp> window;
    std::unordered_map<TensorId, TensorId> rename;

    auto resolve = [&](TensorId id) {
        auto it = rename.find(id);
        return it == rename.end() ? id : it->second;
    };

    if (!pairing.crosses_iteration) {
        for (std::size_t i = pairing.producer_op + 1;
             i < pairing.consumer_op; ++i)
            window.push_back({ops[i], i, true});
    } else {
        for (std::size_t i = pairing.producer_op + 1; i < ops.size();
             ++i)
            window.push_back({ops[i], i, true});
        for (const Carry &c : program.carries())
            rename[c.dst] = c.src;
        for (std::size_t i = 0; i < pairing.consumer_op; ++i) {
            OpNode renamed = ops[i];
            for (TensorId &in : renamed.inputs)
                in = resolve(in);
            // The op's own write shadows any carried value.
            rename.erase(renamed.output);
            window.push_back({renamed, i, false});
        }
    }

    FusedChain chain;
    chain.consumer_input = resolve(consumer.inputs[0]);

    // Backward slice from the consumer's input over vector tensors.
    std::unordered_set<TensorId> need = {chain.consumer_input};
    std::vector<std::size_t> picked;
    for (std::size_t w = window.size(); w-- > 0;) {
        const WindowOp &entry = window[w];
        if (!need.count(entry.op.output))
            continue;
        switch (entry.op.kind) {
          case OpKind::EwiseBinary:
          case OpKind::EwiseUnary:
          case OpKind::Assign:
            break;
          default:
            sp_panic("buildFusedChain: non-element-wise op '%s' on a "
                     "fusable path (analysis bug)",
                     opKindName(entry.op.kind));
        }
        picked.push_back(w);
        need.erase(entry.op.output);
        for (TensorId in : entry.op.inputs) {
            if (program.tensor(in).kind == TensorKind::Vector)
                need.insert(in);
        }
    }
    std::reverse(picked.begin(), picked.end());
    for (std::size_t w : picked) {
        chain.ops.push_back(window[w].op);
        chain.commit.push_back(window[w].frame_a ? 1 : 0);
        if (window[w].frame_a)
            chain.replaced_ops.push_back(window[w].body_idx);
    }
    return chain;
}

DenseVector
runFusedPair(Workspace &ws, const Program &program,
             const VxmPairing &pairing, const FusedChain &chain,
             Idx t, const ExecPolicy &policy)
{
    const auto &ops = program.ops();
    const OpNode &prod = ops[pairing.producer_op];
    const OpNode &cons = ops[pairing.consumer_op];
    if (prod.kind != OpKind::Vxm || cons.kind != OpKind::Vxm)
        sp_panic("runFusedPair: only vxm pairs execute functionally");

    const DenseVector &x = ws.vec(prod.inputs[0]);
    const CscMatrix &csc = ws.csc(prod.inputs[1]);
    const CsrMatrix &csr = ws.csr(cons.inputs[1]);
    const Semiring &sr_os = prod.semiring;
    const Semiring &sr_is = cons.semiring;

    const Idx n = csc.cols();
    DenseVector y(static_cast<std::size_t>(n), sr_os.addIdentity());
    DenseVector out2(static_cast<std::size_t>(csr.cols()),
                     sr_is.addIdentity());

    // Full-length storage for chain outputs that must be committed.
    std::unordered_map<TensorId, DenseVector> committed;
    for (std::size_t k = 0; k < chain.ops.size(); ++k) {
        if (chain.commit[k]) {
            TensorId out = chain.ops[k].output;
            committed.emplace(out, DenseVector(
                static_cast<std::size_t>(program.tensor(out).dim0)));
        }
    }

    // Pre-resolve every chain read once: a chain input is either the
    // slice slot of an earlier chain op (slot 0 seeds the producer's
    // output), a workspace vector indexed at the slice offset, or a
    // scalar broadcast.  Chain slots never alias workspace storage
    // mid-pass (commits land after the loop), so the binding is the
    // same for every slice and the per-element hash lookups of the
    // old path drop out.
    struct SliceSrc
    {
        enum Kind { Slot, WsVec, Scalar } kind = Scalar;
        int slot = 0;
        const Value *base = nullptr;
        Value scalar = 0.0;
    };
    auto bindInput = [&](TensorId id,
                         const std::unordered_map<TensorId, int> &sym) {
        SliceSrc src;
        auto it = sym.find(id);
        if (it != sym.end()) {
            src.kind = SliceSrc::Slot;
            src.slot = it->second;
        } else if (program.tensor(id).kind == TensorKind::Scalar) {
            src.kind = SliceSrc::Scalar;
            src.scalar = ws.scalar(id);
        } else {
            src.kind = SliceSrc::WsVec;
            src.base = ws.vec(id).data();
        }
        return src;
    };
    std::unordered_map<TensorId, int> sym;
    sym[prod.output] = 0;
    std::vector<std::array<SliceSrc, 2>> bindings(chain.ops.size());
    for (std::size_t k = 0; k < chain.ops.size(); ++k) {
        const OpNode &op = chain.ops[k];
        bindings[k][0] = bindInput(op.inputs[0], sym);
        if (op.kind == OpKind::EwiseBinary)
            bindings[k][1] = bindInput(op.inputs[1], sym);
        sym[op.output] = static_cast<int>(k) + 1;
    }
    const SliceSrc z_src = bindInput(chain.consumer_input, sym);

    if (!policy.engaged()) {

    // One slab per chain slot, reused across slices (max width t).
    std::vector<DenseVector> slabs(chain.ops.size() + 1);
    for (DenseVector &slab : slabs)
        slab.resize(static_cast<std::size_t>(std::min<Idx>(t, n)));

    for (Idx c0 = 0; c0 < n; c0 += t) {
        const Idx c1 = std::min(n, c0 + t);
        const std::size_t width = static_cast<std::size_t>(c1 - c0);

        // --- OS stage: one output element per column ---------------
        for (Idx c = c0; c < c1; ++c) {
            Value acc = sr_os.addIdentity();
            auto rows = csc.colRows(c);
            auto vals = csc.colVals(c);
            for (std::size_t k = 0; k < rows.size(); ++k) {
                Value xv = x[static_cast<std::size_t>(rows[k])];
                if (sr_os.annihilates(xv))
                    continue;
                acc = sr_os.add(acc, sr_os.multiply(xv, vals[k]));
            }
            y[static_cast<std::size_t>(c)] = acc;
        }

        // --- fused e-wise chain on the slice -----------------------
        for (std::size_t i = 0; i < width; ++i)
            slabs[0][i] = y[static_cast<std::size_t>(c0) + i];
        auto read = [&](const SliceSrc &src, std::size_t i) -> Value {
            switch (src.kind) {
              case SliceSrc::Slot:
                return slabs[static_cast<std::size_t>(src.slot)][i];
              case SliceSrc::WsVec:
                return src.base[static_cast<std::size_t>(c0) + i];
              case SliceSrc::Scalar:
                break;
            }
            return src.scalar;
        };
        for (std::size_t k = 0; k < chain.ops.size(); ++k) {
            const OpNode &op = chain.ops[k];
            DenseVector &out = slabs[k + 1];
            const SliceSrc &in0 = bindings[k][0];
            const SliceSrc &in1 = bindings[k][1];
            switch (op.kind) {
              case OpKind::EwiseBinary:
                for (std::size_t i = 0; i < width; ++i)
                    out[i] = applyBinary(op.bop, read(in0, i),
                                         read(in1, i));
                break;
              case OpKind::EwiseUnary:
                for (std::size_t i = 0; i < width; ++i)
                    out[i] = applyUnary(op.uop, read(in0, i));
                break;
              case OpKind::Assign:
                for (std::size_t i = 0; i < width; ++i)
                    out[i] = read(in0, i);
                break;
              default:
                sp_panic("runFusedPair: bad chain op");
            }
            if (chain.commit[k]) {
                DenseVector &full = committed.at(op.output);
                for (std::size_t i = 0; i < width; ++i)
                    full[static_cast<std::size_t>(c0) + i] = out[i];
            }
        }

        // --- IS stage: scatter rows of the consumer input ----------
        for (std::size_t i = 0; i < width; ++i) {
            const Idx row = c0 + static_cast<Idx>(i);
            const Value zi = read(z_src, i);
            if (sr_is.annihilates(zi))
                continue;
            auto cols = csr.rowCols(row);
            auto vals = csr.rowVals(row);
            for (std::size_t k = 0; k < cols.size(); ++k) {
                auto out_idx = static_cast<std::size_t>(cols[k]);
                out2[out_idx] = sr_is.add(
                    out2[out_idx], sr_is.multiply(zi, vals[k]));
            }
        }
    }

    } else {

    // --- Packed / band-parallel path -------------------------------
    //
    // Two phases replace the interleaved slice loop:
    //
    //  Phase A runs OS + the e-wise chain slice by slice, exactly as
    //  above but with packed kernels, and materializes the consumer
    //  input in full (`z_full`).  Bands of whole slices go to worker
    //  threads; every write (y, committed outputs, z_full) lands in
    //  the band's own column range, so thread scheduling cannot
    //  change any result bit.
    //
    //  Phase B rewrites the row scatter as a column pull over the
    //  operand's CSC twin.  The scalar scatter visits rows in
    //  ascending order, so the adds arriving at output column j are
    //  ordered by row — exactly the entry order of CSC column j.
    //  Pulling a column therefore replays the identical add sequence
    //  (including the annihilates skip, now on z_full[row]), and
    //  vxmSpan is that pull.  Output columns are independent, so
    //  bands of columns fan out the same way.
    const Idx lanes = std::max<Idx>(policy.lanes, 1);
    const Idx nslices = (n + t - 1) / t;
    const auto bandCount = [&](Idx work) {
        if (!policy.parallel() || work <= 1)
            return Idx{1};
        return std::min<Idx>(policy.threads, work);
    };
    const auto dispatch = [&](Idx nbands, auto &&band_fn) {
        if (nbands > 1 && policy.parallel()) {
            runner::parallelIndexed(
                *policy.pool, static_cast<std::size_t>(nbands),
                [&](std::size_t b) {
                    band_fn(static_cast<Idx>(b), nbands);
                    return 0;
                });
        } else {
            for (Idx b = 0; b < nbands; ++b)
                band_fn(b, nbands);
        }
    };

    DenseVector z_full(static_cast<std::size_t>(n));

    dispatch(bandCount(nslices), [&](Idx band, Idx nbands) {
        const Idx s_lo = band * nslices / nbands;
        const Idx s_hi = (band + 1) * nslices / nbands;
        if (s_lo >= s_hi)
            return;
        // Per-band scratch slabs; never shared across threads.
        std::vector<DenseVector> slabs(chain.ops.size() + 1);
        for (DenseVector &slab : slabs)
            slab.resize(static_cast<std::size_t>(std::min<Idx>(t, n)));
        for (Idx s = s_lo; s < s_hi; ++s) {
            const Idx c0 = s * t;
            const Idx c1 = std::min(n, c0 + t);
            const auto width = static_cast<std::size_t>(c1 - c0);

            // OS stage straight into this band's slice of y.
            packed::vxmSpan(sr_os, lanes, csc.colPtr().data(),
                            csc.rowIdx().data(), csc.vals().data(),
                            x.data(), y.data(), c0, c1);
            std::memcpy(slabs[0].data(),
                        y.data() + static_cast<std::size_t>(c0),
                        width * sizeof(Value));

            const auto operand = [&](const SliceSrc &src) {
                packed::Operand o;
                switch (src.kind) {
                  case SliceSrc::Slot:
                    o.vec =
                        slabs[static_cast<std::size_t>(src.slot)]
                            .data();
                    break;
                  case SliceSrc::WsVec:
                    o.vec = src.base + static_cast<std::size_t>(c0);
                    break;
                  case SliceSrc::Scalar:
                    o.scalar = src.scalar;
                    break;
                }
                return o;
            };
            for (std::size_t k = 0; k < chain.ops.size(); ++k) {
                const OpNode &op = chain.ops[k];
                DenseVector &out = slabs[k + 1];
                switch (op.kind) {
                  case OpKind::EwiseBinary:
                    packed::ewiseBinarySpan(op.bop, lanes,
                                            operand(bindings[k][0]),
                                            operand(bindings[k][1]),
                                            out.data(), width);
                    break;
                  case OpKind::EwiseUnary:
                    packed::ewiseUnarySpan(op.uop, lanes,
                                           operand(bindings[k][0]),
                                           out.data(), width);
                    break;
                  case OpKind::Assign:
                    packed::ewiseUnarySpan(UnaryOp::Identity, lanes,
                                           operand(bindings[k][0]),
                                           out.data(), width);
                    break;
                  default:
                    sp_panic("runFusedPair: bad chain op");
                }
                if (chain.commit[k]) {
                    std::memcpy(
                        committed.at(op.output).data() +
                            static_cast<std::size_t>(c0),
                        out.data(), width * sizeof(Value));
                }
            }

            Value *z_dst =
                z_full.data() + static_cast<std::size_t>(c0);
            switch (z_src.kind) {
              case SliceSrc::Slot:
                std::memcpy(
                    z_dst,
                    slabs[static_cast<std::size_t>(z_src.slot)]
                        .data(),
                    width * sizeof(Value));
                break;
              case SliceSrc::WsVec:
                std::memcpy(z_dst,
                            z_src.base + static_cast<std::size_t>(c0),
                            width * sizeof(Value));
                break;
              case SliceSrc::Scalar:
                std::fill(z_dst, z_dst + width, z_src.scalar);
                break;
            }
        }
    });

    // Phase B: IS as a CSC column pull with disjoint output bands.
    const CscMatrix &csc2 = ws.csc(cons.inputs[1]);
    const Idx m = csc2.cols();
    dispatch(bandCount(m), [&](Idx band, Idx nbands) {
        const Idx j0 = band * m / nbands;
        const Idx j1 = (band + 1) * m / nbands;
        if (j0 >= j1)
            return;
        packed::vxmSpan(sr_is, lanes, csc2.colPtr().data(),
                        csc2.rowIdx().data(), csc2.vals().data(),
                        z_full.data(), out2.data(), j0, j1);
    });

    }

    // Commit the producer's iteration-frame results.
    ws.vec(prod.output) = std::move(y);
    for (auto &entry : committed)
        ws.vec(entry.first) = std::move(entry.second);

    return out2;
}

} // namespace sparsepipe
