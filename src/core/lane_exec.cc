#include "core/lane_exec.hh"

#include <algorithm>

#include "runner/scheduler.hh"
#include "semiring/packed.hh"
#include "util/logging.hh"

namespace sparsepipe {

namespace {

/**
 * Run band_fn(lo, hi) over a partition of [0, count); bands fan out
 * on the policy pool when engaged.  Callers only ever write inside
 * their own [lo, hi) range, so the split is bit-deterministic.
 */
template <typename Fn>
void
forBands(const ExecPolicy &policy, Idx count, Fn band_fn)
{
    Idx nbands = 1;
    if (policy.parallel() && count > 1)
        nbands = std::min<Idx>(policy.threads, count);
    if (nbands <= 1) {
        band_fn(Idx{0}, count);
        return;
    }
    runner::parallelIndexed(
        *policy.pool, static_cast<std::size_t>(nbands),
        [&](std::size_t b) {
            const Idx lo = static_cast<Idx>(b) * count / nbands;
            const Idx hi = (static_cast<Idx>(b) + 1) * count / nbands;
            if (lo < hi)
                band_fn(lo, hi);
            return 0;
        });
}

/** Broadcastable operand in packed form (mirrors ref OperandView). */
packed::Operand
operandOf(const Workspace &ws, TensorId id)
{
    packed::Operand o;
    if (ws.program().tensor(id).kind == TensorKind::Scalar)
        o.scalar = ws.scalar(id);
    else
        o.vec = ws.vec(id).data();
    return o;
}

packed::Operand
offsetOperand(packed::Operand o, Idx start)
{
    if (o.vec != nullptr)
        o.vec += static_cast<std::size_t>(start);
    return o;
}

bool
laneVxm(Workspace &ws, const OpNode &op, const ExecPolicy &policy)
{
    const DenseVector &in = ws.vec(op.inputs[0]);
    const CscMatrix &a = ws.csc(op.inputs[1]);
    const Semiring &sr = op.semiring;

    DenseVector out(static_cast<std::size_t>(a.cols()),
                    sr.addIdentity());
    forBands(policy, a.cols(), [&](Idx c0, Idx c1) {
        packed::vxmSpan(sr, policy.lanes, a.colPtr().data(),
                        a.rowIdx().data(), a.vals().data(), in.data(),
                        out.data(), c0, c1);
    });
    ws.vec(op.output) = std::move(out);
    return true;
}

bool
laneSpmm(Workspace &ws, const OpNode &op, const ExecPolicy &policy)
{
    const CsrMatrix &a = ws.csr(op.inputs[0]);
    const DenseMatrix &h = ws.den(op.inputs[1]);
    const Semiring &sr = op.semiring;

    DenseMatrix out(a.rows(), h.cols(), sr.addIdentity());
    forBands(policy, a.rows(), [&](Idx r0, Idx r1) {
        for (Idx i = r0; i < r1; ++i) {
            auto cols = a.rowCols(i);
            auto vals = a.rowVals(i);
            Value *out_row = out.row(i);
            for (std::size_t k = 0; k < cols.size(); ++k) {
                Value aij = vals[k];
                if (sr.annihilates(aij))
                    continue;
                packed::spmmRow(sr, policy.lanes, aij,
                                h.row(cols[k]), out_row, h.cols());
            }
        }
    });
    ws.den(op.output) = std::move(out);
    return true;
}

/**
 * Dense Mm (gcn's feature transform) as one MulAdd row update per
 * non-zero lhs(i, k), in the reference's k order and with its
 * `== 0.0` skip (MulAdd annihilates exactly 0), so out(i, j) sums
 * the same products in the same order.
 */
bool
laneMm(Workspace &ws, const OpNode &op, const ExecPolicy &policy)
{
    const DenseMatrix &lhs = ws.den(op.inputs[0]);
    const DenseMatrix &rhs = ws.den(op.inputs[1]);
    constexpr Semiring mul_add(SemiringKind::MulAdd);

    DenseMatrix out(lhs.rows(), rhs.cols(), 0.0);
    forBands(policy, lhs.rows(), [&](Idx r0, Idx r1) {
        for (Idx i = r0; i < r1; ++i) {
            const Value *l_row = lhs.row(i);
            Value *out_row = out.row(i);
            for (Idx k = 0; k < lhs.cols(); ++k) {
                if (mul_add.annihilates(l_row[k]))
                    continue;
                packed::spmmRow(mul_add, policy.lanes, l_row[k],
                                rhs.row(k), out_row, rhs.cols());
            }
        }
    });
    ws.den(op.output) = std::move(out);
    return true;
}

bool
laneEwiseBinary(Workspace &ws, const OpNode &op,
                const ExecPolicy &policy)
{
    const TensorInfo &out_info = ws.program().tensor(op.output);
    if (out_info.kind != TensorKind::Vector)
        return false;
    const auto n = static_cast<Idx>(out_info.dim0);
    DenseVector out(static_cast<std::size_t>(n));
    const packed::Operand a = operandOf(ws, op.inputs[0]);
    const packed::Operand b = operandOf(ws, op.inputs[1]);
    forBands(policy, n, [&](Idx i0, Idx i1) {
        packed::ewiseBinarySpan(
            op.bop, policy.lanes, offsetOperand(a, i0),
            offsetOperand(b, i0),
            out.data() + static_cast<std::size_t>(i0),
            static_cast<std::size_t>(i1 - i0));
    });
    ws.vec(op.output) = std::move(out);
    return true;
}

bool
laneEwiseUnary(Workspace &ws, const OpNode &op,
               const ExecPolicy &policy)
{
    const TensorInfo &out_info = ws.program().tensor(op.output);
    switch (out_info.kind) {
      case TensorKind::Vector: {
        const DenseVector &in = ws.vec(op.inputs[0]);
        const auto n = static_cast<Idx>(in.size());
        DenseVector out(in.size());
        forBands(policy, n, [&](Idx i0, Idx i1) {
            packed::Operand a;
            a.vec = in.data() + static_cast<std::size_t>(i0);
            packed::ewiseUnarySpan(
                op.uop, policy.lanes, a,
                out.data() + static_cast<std::size_t>(i0),
                static_cast<std::size_t>(i1 - i0));
        });
        ws.vec(op.output) = std::move(out);
        return true;
      }
      case TensorKind::DenseMatrix: {
        const DenseMatrix &in = ws.den(op.inputs[0]);
        DenseMatrix out(in.rows(), in.cols());
        const auto n = static_cast<Idx>(in.data().size());
        forBands(policy, n, [&](Idx i0, Idx i1) {
            packed::Operand a;
            a.vec = in.data().data() + static_cast<std::size_t>(i0);
            packed::ewiseUnarySpan(
                op.uop, policy.lanes, a,
                out.data().data() + static_cast<std::size_t>(i0),
                static_cast<std::size_t>(i1 - i0));
        });
        ws.den(op.output) = std::move(out);
        return true;
      }
      default:
        return false;
    }
}

} // anonymous namespace

bool
execOpLanes(Workspace &ws, const OpNode &op, const ExecPolicy &policy)
{
    if (!policy.engaged())
        return false;
    switch (op.kind) {
      case OpKind::Vxm:
        return laneVxm(ws, op, policy);
      case OpKind::Spmm:
        return laneSpmm(ws, op, policy);
      case OpKind::Mm:
        return laneMm(ws, op, policy);
      case OpKind::EwiseBinary:
        return laneEwiseBinary(ws, op, policy);
      case OpKind::EwiseUnary:
        return laneEwiseUnary(ws, op, policy);
      default:
        // Fold, Dot, Assign: scalar reductions keep one sequential
        // chain; assigns are already a single copy.
        return false;
    }
}

} // namespace sparsepipe
