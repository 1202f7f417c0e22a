#include "exec.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <unordered_set>

#include "common/env.h"
#include "common/fastmath.h"
#include "common/logging.h"
#include "kernel/codegen.h"
#include "kernel/compiler.h"

namespace diffuse {
namespace kir {

namespace {

/** Read an element of an index-typed binding as coord_t. */
inline coord_t
readIndex(const BufferBinding &b, coord_t i)
{
    switch (b.dtype) {
      case DType::I32:
        return static_cast<const std::int32_t *>(b.base)[i];
      case DType::I64:
        return static_cast<const std::int64_t *>(b.base)[i];
      case DType::F64:
        return coord_t(static_cast<const double *>(b.base)[i]);
    }
    return 0;
}

/**
 * Extents of buffer `buf`. External buffers read their binding; local
 * buffers inherit the extents of any external argument sharing their
 * shape class (locals always have the shape of the store they replaced,
 * and a fused task always retains at least one argument of that shape).
 */
struct Extents
{
    int dims = 1;
    coord_t e[2] = {1, 1};

    coord_t
    volume() const
    {
        coord_t v = 1;
        for (int i = 0; i < dims; i++)
            v *= e[i];
        return v;
    }
};

Extents
resolveExtents(const KernelFunction &fn, int buf,
               std::span<const BufferBinding> ext_bindings)
{
    Extents out;
    if (buf < fn.numArgs) {
        const BufferBinding &b = ext_bindings[std::size_t(buf)];
        out.dims = b.dims;
        out.e[0] = b.extent[0];
        out.e[1] = b.extent[1];
        return out;
    }
    int want = fn.buffers[std::size_t(buf)].shapeClass;
    for (int a = 0; a < fn.numArgs; a++) {
        if (fn.buffers[std::size_t(a)].shapeClass == want) {
            const BufferBinding &b = ext_bindings[std::size_t(a)];
            out.dims = b.dims;
            out.e[0] = b.extent[0];
            out.e[1] = b.extent[1];
            return out;
        }
    }
    diffuse_panic("no external argument shares shape class %d with "
                  "local buffer %d of %s",
                  want, buf, fn.name.c_str());
}

/**
 * Build the full binding table (external args, then locals) with live
 * local buffers carved out of `arena`. The arena only grows and its
 * used prefix is re-zeroed per call, so steady state allocates
 * nothing — this replaces the fresh per-invocation vectors the
 * interpreter used to heap-allocate for every point task.
 */
void
bindLocalBuffers(const KernelFunction &fn,
                 std::span<const BufferBinding> ext,
                 std::vector<BufferBinding> &all,
                 std::vector<double> &arena)
{
    diffuse_assert(int(ext.size()) >= fn.numArgs,
                   "executor: %zu bindings for %d args of %s",
                   ext.size(), fn.numArgs, fn.name.c_str());
    all.assign(ext.begin(), ext.begin() + fn.numArgs);
    all.resize(fn.buffers.size());

    std::size_t total = 0;
    for (std::size_t b = std::size_t(fn.numArgs); b < fn.buffers.size();
         b++) {
        const BufferInfo &info = fn.buffers[b];
        diffuse_assert(info.isLocal, "non-local buffer %zu beyond args",
                       b);
        if (info.eliminated)
            continue;
        total += std::size_t(resolveExtents(fn, int(b), ext).volume());
    }
    if (arena.size() < total)
        arena.resize(total);
    std::fill_n(arena.data(), total, 0.0);

    std::size_t off = 0;
    for (std::size_t b = std::size_t(fn.numArgs); b < fn.buffers.size();
         b++) {
        const BufferInfo &info = fn.buffers[b];
        if (info.eliminated)
            continue;
        Extents e = resolveExtents(fn, int(b), ext);
        BufferBinding bind;
        bind.dims = e.dims;
        bind.extent[0] = e.e[0];
        bind.extent[1] = e.e[1];
        bind.base = arena.data() + off;
        off += std::size_t(e.volume());
        if (bind.dims == 2) {
            bind.stride[0] = bind.extent[1];
            bind.stride[1] = 1;
        } else {
            bind.stride[0] = 1;
        }
        all[b] = bind;
    }
}

/** Cost of a Gemv nest (shared by both profileCost overloads). */
TaskCost
gemvCost(const KernelFunction &fn, const LoopNest &nest,
         std::span<const BufferBinding> bindings)
{
    Extents a = resolveExtents(fn, nest.gemvA, bindings);
    coord_t rows = a.e[0];
    coord_t cols = a.e[1];
    TaskCost c;
    c.elements = rows * cols;
    c.bytes = double(rows * cols + cols + rows) * 8.0;
    c.wflops = 2.0 * double(rows) * double(cols);
    return c;
}

/** Cost of a Csr nest (shared by both profileCost overloads). */
TaskCost
csrCost(const KernelFunction &fn, const LoopNest &nest,
        std::span<const BufferBinding> bindings)
{
    const BufferBinding &vals = bindings[std::size_t(nest.csrVals)];
    const BufferBinding &colind = bindings[std::size_t(nest.csrColind)];
    Extents y = resolveExtents(fn, nest.csrY, bindings);
    coord_t nnz = vals.irregular >= 0 ? vals.irregular : vals.volume();
    coord_t rows = y.e[0];
    double idx_bytes = double(dtypeSize(colind.dtype));
    TaskCost c;
    c.elements = nnz;
    c.bytes = double(nnz) * (8.0 + idx_bytes + 8.0) +
              double(rows + 1) * 8.0 + double(rows) * 8.0;
    c.wflops = 2.0 * double(nnz);
    return c;
}

} // namespace

// ---------------------------------------------------------------------
// Cost profiling
// ---------------------------------------------------------------------

TaskCost
profileCost(const KernelFunction &fn,
            std::span<const BufferBinding> bindings)
{
    TaskCost total;
    for (const LoopNest &nest : fn.nests) {
        if (nest.kind == NestKind::Gemv) {
            total += gemvCost(fn, nest, bindings);
            continue;
        }
        if (nest.kind == NestKind::Csr) {
            total += csrCost(fn, nest, bindings);
            continue;
        }
        // Dense nest: traffic = distinct non-broadcast buffers touched;
        // broadcast (extent-1) reads stay in registers.
        Extents dom = resolveExtents(fn, nest.domainBuf, bindings);
        coord_t elems = dom.volume();
        std::unordered_set<int> loaded, stored;
        double flops_per_elem = 0.0;
        for (const Instr &i : nest.body) {
            flops_per_elem += opFlopWeight(i.op);
            if (i.op == Op::LoadBuf)
                loaded.insert(i.buf);
            else if (i.op == Op::StoreBuf)
                stored.insert(i.buf);
        }
        double bytes_per_elem = 0.0;
        for (int b : loaded) {
            Extents e = resolveExtents(fn, b, bindings);
            if (e.volume() > 1)
                bytes_per_elem +=
                    double(dtypeSize(fn.buffers[std::size_t(b)].dtype));
        }
        for (int b : stored)
            bytes_per_elem +=
                double(dtypeSize(fn.buffers[std::size_t(b)].dtype));
        flops_per_elem += double(nest.reductions.size());
        TaskCost c;
        c.elements = elems;
        c.bytes = bytes_per_elem * double(elems);
        c.wflops = flops_per_elem * double(elems);
        total += c;
    }
    return total;
}

TaskCost
profileCost(const CompiledKernel &kernel,
            std::span<const BufferBinding> bindings)
{
    const KernelFunction &fn = kernel.fn;
    if (kernel.plan == nullptr)
        return profileCost(fn, bindings);
    const ExecutablePlan &plan = *kernel.plan;
    diffuse_assert(plan.nests.size() == fn.nests.size(),
                   "plan/function nest mismatch in %s", fn.name.c_str());

    TaskCost total;
    for (std::size_t n = 0; n < fn.nests.size(); n++) {
        const LoopNest &nest = fn.nests[n];
        if (nest.kind == NestKind::Gemv) {
            total += gemvCost(fn, nest, bindings);
            continue;
        }
        if (nest.kind == NestKind::Csr) {
            total += csrCost(fn, nest, bindings);
            continue;
        }
        // Dense: flops and distinct-buffer lists were recorded at plan
        // lowering; only the extents are resolved here.
        const DensePlan &dp = plan.nests[n].dense;
        Extents dom = resolveExtents(fn, nest.domainBuf, bindings);
        coord_t elems = dom.volume();
        double bytes_per_elem = 0.0;
        for (int b : dp.loadBufs) {
            if (resolveExtents(fn, b, bindings).volume() > 1)
                bytes_per_elem +=
                    double(dtypeSize(fn.buffers[std::size_t(b)].dtype));
        }
        for (int b : dp.storeBufs)
            bytes_per_elem +=
                double(dtypeSize(fn.buffers[std::size_t(b)].dtype));
        TaskCost c;
        c.elements = elems;
        c.bytes = bytes_per_elem * double(elems);
        c.wflops = dp.flopsPerElem * double(elems);
        total += c;
    }
    return total;
}

// ---------------------------------------------------------------------
// PointContext: per-invocation resolution of a plan against bindings
// ---------------------------------------------------------------------

void
PointContext::bind(const KernelFunction &fn, const ExecutablePlan &plan,
                   std::span<const BufferBinding> bindings,
                   std::span<const double> scalars,
                   const JitModule *jit)
{
    fn_ = &fn;
    plan_ = &plan;
    jit_ = jit;
    scalars_ = scalars;
    bindLocalBuffers(fn, bindings, all_, arena_);

    nests_.resize(plan.nests.size());
    for (std::size_t n = 0; n < plan.nests.size(); n++) {
        const NestPlan &np = plan.nests[n];
        ResolvedNest &rn = nests_[n];
        rn.scalarFallback = false;
        if (np.kind == NestKind::Gemv) {
            rn.rows = all_[std::size_t(fn.nests[n].gemvA)].extent[0];
            rn.stripParallel = np.rowParallel;
            continue;
        }
        if (np.kind == NestKind::Csr) {
            rn.rows = all_[std::size_t(fn.nests[n].csrY)].extent[0];
            rn.stripParallel = np.rowParallel;
            continue;
        }

        const DensePlan &dp = np.dense;
        Extents dom = resolveExtents(fn, np.domainBuf,
                                     std::span<const BufferBinding>(
                                         all_.data(),
                                         std::size_t(fn.numArgs)));
        rn.outer = dom.dims == 2 ? dom.e[0] : 1;
        rn.inner = dom.dims == 2 ? dom.e[1] : dom.e[0];
        int w = plan.stripWidth;
        rn.stripsPerRow =
            rn.inner > 0 ? (rn.inner + w - 1) / coord_t(w) : 0;
        rn.strips = rn.outer > 0 ? rn.outer * rn.stripsPerRow : 0;

        rn.accesses.resize(dp.accesses.size());
        for (std::size_t s = 0; s < dp.accesses.size(); s++) {
            const BufferBinding &b =
                all_[std::size_t(dp.accesses[s].buf)];
            ResolvedAccess &a = rn.accesses[s];
            a.base = static_cast<double *>(b.base);
            if (dom.dims == 2) {
                a.rowStride = b.extent[0] == 1 ? 0 : b.stride[0];
                a.step = b.dims == 2 && b.extent[1] != 1 ? b.stride[1]
                                                         : 0;
            } else {
                a.rowStride = 0;
                a.step = b.extent[0] == 1 ? 0 : b.stride[0];
            }
            a.kind = a.step == 1   ? AccessKind::Contiguous
                     : a.step == 0 ? AccessKind::Broadcast
                                   : AccessKind::Strided;
            // A broadcast *store* target makes element order
            // observable (every iteration writes the same address):
            // preserve the interleaved scalar semantics.
            if (dp.accesses[s].isStore &&
                ((a.step == 0 && rn.inner > 1) ||
                 (dom.dims == 2 && a.rowStride == 0 && rn.outer > 1)))
                rn.scalarFallback = true;
        }
        // Alias hazards recorded at plan time resolve here: identical
        // views are same-index accesses (safe); shifted views fall
        // back to the oracle for this nest instance.
        for (const auto &[s, t] : dp.aliasHazards) {
            const ResolvedAccess &a = rn.accesses[std::size_t(s)];
            const ResolvedAccess &b = rn.accesses[std::size_t(t)];
            if (a.base != b.base || a.rowStride != b.rowStride ||
                a.step != b.step)
                rn.scalarFallback = true;
        }
        rn.stripParallel = !rn.scalarFallback;
    }
}

// ---------------------------------------------------------------------
// Executor: vector engine
// ---------------------------------------------------------------------

bool
Executor::scalarForced()
{
    const char *env = std::getenv("DIFFUSE_SCALAR_EXEC");
    return env != nullptr && env[0] != '\0' &&
           !(env[0] == '0' && env[1] == '\0');
}

void
Executor::ensureVecRegs(const ExecutablePlan &plan)
{
    std::size_t need = std::size_t(plan.maxRegCount) *
                       std::size_t(plan.stripWidth);
    if (vregs_.size() < need)
        vregs_.resize(need);
    if (slotPtrs_.size() < std::size_t(plan.maxRegCount))
        slotPtrs_.resize(std::size_t(plan.maxRegCount));
}

void
Executor::splatInvariants(const DensePlan &dp, int width,
                          std::span<const double> scalars)
{
    for (const VecInstr &ins : dp.invariants) {
        double v = ins.scalar >= 0 ? scalars[std::size_t(ins.scalar)]
                                   : ins.imm;
        double *d = vregs_.data() + std::size_t(ins.dst) * width;
        for (int k = 0; k < width; k++)
            d[k] = v;
    }
}

void
Executor::execStrip(const DensePlan &dp, const ResolvedNest &rn,
                    coord_t strip, int width,
                    std::span<const double> scalars, double *partials)
{
    coord_t row = strip / rn.stripsPerRow;
    coord_t col0 = (strip % rn.stripsPerRow) * width;
    int len = int(std::min<coord_t>(width, rn.inner - col0));
    double *vr = vregs_.data();
    std::size_t w = std::size_t(width);

    // Where each slot's strip lies: its register vector, or memory for
    // in-place Loads and producers. Every tape definition re-points
    // its slot; invariant slots keep their register vectors.
    const double **src = slotPtrs_.data();
    for (int r = 0; r < dp.regCount; r++)
        src[r] = vr + std::size_t(r) * w;
    auto at = [&](const ResolvedAccess &a) {
        return a.base + row * a.rowStride + col0 * a.step;
    };
    // Destination of a producer: straight into the following Store's
    // contiguous destination when the plan allows it.
    auto dest = [&](const VecInstr &ins) {
        double *d = vr + std::size_t(ins.dst) * w;
        if (ins.inPlace) {
            const ResolvedAccess &a =
                rn.accesses[std::size_t(ins.access)];
            if (a.step == 1)
                d = at(a);
        }
        src[ins.dst] = d;
        return d;
    };

    for (const VecInstr &ins : dp.tape) {
        switch (ins.op) {
          case VecOp::Load: {
            const ResolvedAccess &a =
                rn.accesses[std::size_t(ins.access)];
            const double *p = at(a);
            if (a.step == 1 && ins.inPlace) {
                src[ins.dst] = p;
                break;
            }
            double *__restrict d = vr + std::size_t(ins.dst) * w;
            src[ins.dst] = d;
            if (a.step == 1) {
                for (int k = 0; k < len; k++)
                    d[k] = p[k];
            } else if (a.step == 0) {
                double v = *p;
                for (int k = 0; k < len; k++)
                    d[k] = v;
            } else {
                coord_t s = a.step;
                for (int k = 0; k < len; k++)
                    d[k] = p[k * s];
            }
            break;
          }
          case VecOp::Store: {
            const ResolvedAccess &a =
                rn.accesses[std::size_t(ins.access)];
            double *p = at(a);
            if (src[ins.a] == p)
                break; // written in place by its producer or load
            const double *__restrict s = src[ins.a];
            if (a.step == 1) {
                for (int k = 0; k < len; k++)
                    p[k] = s[k];
            } else if (a.step == 0) {
                // Excluded by scalarFallback when inner > 1; a
                // single-iteration broadcast store is a plain write.
                *p = s[len - 1];
            } else {
                coord_t st = a.step;
                for (int k = 0; k < len; k++)
                    p[k * st] = s[k];
            }
            break;
          }
          case VecOp::Splat:
            // Hoisted into the invariant prefix at plan time.
            break;
#define DIFFUSE_KV                                                      \
    double kv = ins.scalar >= 0 ? scalars[std::size_t(ins.scalar)]      \
                                : ins.imm
#define DIFFUSE_VEC_UNOP(EXPR)                                          \
    {                                                                   \
        double *__restrict d = dest(ins);                              \
        const double *__restrict va = src[ins.a];                      \
        for (int k = 0; k < len; k++)                                   \
            d[k] = (EXPR);                                              \
    }                                                                   \
    break
#define DIFFUSE_VEC_KOP(EXPR)                                           \
    {                                                                   \
        DIFFUSE_KV;                                                     \
        double *__restrict d = dest(ins);                              \
        const double *__restrict va = src[ins.a];                      \
        for (int k = 0; k < len; k++)                                   \
            d[k] = (EXPR);                                              \
    }                                                                   \
    break
#define DIFFUSE_VEC_BINOP(EXPR)                                         \
    {                                                                   \
        double *__restrict d = dest(ins);                              \
        const double *__restrict va = src[ins.a];                      \
        const double *__restrict vb = src[ins.b];                      \
        for (int k = 0; k < len; k++)                                   \
            d[k] = (EXPR);                                              \
    }                                                                   \
    break
// Fused triads: the product is a separate statement, so both IEEE
// rounding steps survive (no FP contraction across statements) and
// results match the unfused pair bitwise.
#define DIFFUSE_VEC_TRIOP(EXPR)                                         \
    {                                                                   \
        double *__restrict d = dest(ins);                              \
        const double *__restrict va = src[ins.a];                      \
        const double *__restrict vb = src[ins.b];                      \
        const double *__restrict vc = src[ins.c];                      \
        for (int k = 0; k < len; k++) {                                 \
            double t = va[k] * vb[k];                                   \
            d[k] = (EXPR);                                              \
        }                                                               \
    }                                                                   \
    break
#define DIFFUSE_VEC_TRIKOP(EXPR)                                        \
    {                                                                   \
        DIFFUSE_KV;                                                     \
        double *__restrict d = dest(ins);                              \
        const double *__restrict va = src[ins.a];                      \
        const double *__restrict vb = src[ins.b];                      \
        for (int k = 0; k < len; k++) {                                 \
            double t = va[k] * vb[k];                                   \
            d[k] = (EXPR);                                              \
        }                                                               \
    }                                                                   \
    break
          case VecOp::Copy:
            DIFFUSE_VEC_UNOP(va[k]);
          case VecOp::Add:
            DIFFUSE_VEC_BINOP(va[k] + vb[k]);
          case VecOp::Sub:
            DIFFUSE_VEC_BINOP(va[k] - vb[k]);
          case VecOp::Mul:
            DIFFUSE_VEC_BINOP(va[k] * vb[k]);
          case VecOp::Div:
            DIFFUSE_VEC_BINOP(va[k] / vb[k]);
          case VecOp::Max:
            DIFFUSE_VEC_BINOP(va[k] > vb[k] ? va[k] : vb[k]);
          case VecOp::Min:
            DIFFUSE_VEC_BINOP(va[k] < vb[k] ? va[k] : vb[k]);
          case VecOp::Pow:
            DIFFUSE_VEC_BINOP(std::pow(va[k], vb[k]));
          case VecOp::Neg:
            DIFFUSE_VEC_UNOP(-va[k]);
          case VecOp::Sqrt:
            DIFFUSE_VEC_UNOP(std::sqrt(va[k]));
          case VecOp::Exp:
            DIFFUSE_VEC_UNOP(std::exp(va[k]));
          case VecOp::Log:
            DIFFUSE_VEC_UNOP(std::log(va[k]));
          case VecOp::Erf:
            DIFFUSE_VEC_UNOP(fastErf(va[k]));
          case VecOp::Abs:
            DIFFUSE_VEC_UNOP(std::fabs(va[k]));
          case VecOp::CmpLt:
            DIFFUSE_VEC_BINOP(va[k] < vb[k] ? 1.0 : 0.0);
          case VecOp::CmpGt:
            DIFFUSE_VEC_BINOP(va[k] > vb[k] ? 1.0 : 0.0);
          case VecOp::Select: {
            double *__restrict d = dest(ins);
            const double *__restrict va = src[ins.a];
            const double *__restrict vb = src[ins.b];
            const double *__restrict vc = src[ins.c];
            for (int k = 0; k < len; k++)
                d[k] = va[k] != 0.0 ? vb[k] : vc[k];
            break;
          }
          case VecOp::AddK:
            DIFFUSE_VEC_KOP(va[k] + kv);
          case VecOp::SubK:
            DIFFUSE_VEC_KOP(va[k] - kv);
          case VecOp::RsubK:
            DIFFUSE_VEC_KOP(kv - va[k]);
          case VecOp::MulK:
            DIFFUSE_VEC_KOP(va[k] * kv);
          case VecOp::DivK:
            DIFFUSE_VEC_KOP(va[k] / kv);
          case VecOp::RdivK:
            DIFFUSE_VEC_KOP(kv / va[k]);
          case VecOp::MaxK:
            DIFFUSE_VEC_KOP(va[k] > kv ? va[k] : kv);
          case VecOp::MinK:
            DIFFUSE_VEC_KOP(va[k] < kv ? va[k] : kv);
          case VecOp::PowK:
            DIFFUSE_VEC_KOP(std::pow(va[k], kv));
          case VecOp::CmpLtK:
            DIFFUSE_VEC_KOP(va[k] < kv ? 1.0 : 0.0);
          case VecOp::CmpGtK:
            DIFFUSE_VEC_KOP(va[k] > kv ? 1.0 : 0.0);
          case VecOp::MulAdd:
            DIFFUSE_VEC_TRIOP(t + vc[k]);
          case VecOp::AddMul:
            DIFFUSE_VEC_TRIOP(vc[k] + t);
          case VecOp::MulSub:
            DIFFUSE_VEC_TRIOP(t - vc[k]);
          case VecOp::SubMul:
            DIFFUSE_VEC_TRIOP(vc[k] - t);
          case VecOp::MulAddK:
            DIFFUSE_VEC_TRIKOP(t + kv);
          case VecOp::MulSubK:
            DIFFUSE_VEC_TRIKOP(t - kv);
          case VecOp::MulRsubK:
            DIFFUSE_VEC_TRIKOP(kv - t);
// Scale-accumulate: product of a register and an immediate, combined
// with a register (SCALEOP) or a second immediate (SCALEKOP). Same
// two-rounding-step contract as the triads above.
#define DIFFUSE_VEC_SCALEOP(EXPR)                                       \
    {                                                                   \
        DIFFUSE_KV;                                                     \
        double *__restrict d = dest(ins);                              \
        const double *__restrict va = src[ins.a];                      \
        const double *__restrict vc = src[ins.c];                      \
        for (int k = 0; k < len; k++) {                                 \
            double t = va[k] * kv;                                      \
            d[k] = (EXPR);                                              \
        }                                                               \
    }                                                                   \
    break
#define DIFFUSE_VEC_SCALEKOP(EXPR)                                      \
    {                                                                   \
        DIFFUSE_KV;                                                     \
        double kv2 = ins.scalar2 >= 0                                   \
                         ? scalars[std::size_t(ins.scalar2)]            \
                         : ins.imm2;                                    \
        double *__restrict d = dest(ins);                              \
        const double *__restrict va = src[ins.a];                      \
        for (int k = 0; k < len; k++) {                                 \
            double t = va[k] * kv;                                      \
            d[k] = (EXPR);                                              \
        }                                                               \
    }                                                                   \
    break
          case VecOp::MulKAdd:
            DIFFUSE_VEC_SCALEOP(t + vc[k]);
          case VecOp::AddMulK:
            DIFFUSE_VEC_SCALEOP(vc[k] + t);
          case VecOp::MulKSub:
            DIFFUSE_VEC_SCALEOP(t - vc[k]);
          case VecOp::SubMulK:
            DIFFUSE_VEC_SCALEOP(vc[k] - t);
          case VecOp::MulKAddK:
            DIFFUSE_VEC_SCALEKOP(t + kv2);
          case VecOp::MulKSubK:
            DIFFUSE_VEC_SCALEKOP(t - kv2);
          case VecOp::MulKRsubK:
            DIFFUSE_VEC_SCALEKOP(kv2 - t);
#undef DIFFUSE_KV
#undef DIFFUSE_VEC_UNOP
#undef DIFFUSE_VEC_KOP
#undef DIFFUSE_VEC_BINOP
#undef DIFFUSE_VEC_TRIOP
#undef DIFFUSE_VEC_TRIKOP
#undef DIFFUSE_VEC_SCALEOP
#undef DIFFUSE_VEC_SCALEKOP
        }
    }

    // Fold reduction lanes in element order: the combine sequence is
    // exactly the scalar interpreter's, so results are bit-identical
    // at every strip width. One loop per op, each with
    // applyReduction's expression, keeps the switch out of the loop.
    if (partials != nullptr) {
        for (std::size_t r = 0; r < dp.reductions.size(); r++) {
            const Reduction &red = dp.reductions[r];
            const double *s = src[red.srcReg];
            double p = partials[r];
            switch (red.op) {
              case ReductionOp::Sum:
                for (int k = 0; k < len; k++)
                    p = p + s[k];
                break;
              case ReductionOp::Max:
                for (int k = 0; k < len; k++)
                    p = p > s[k] ? p : s[k];
                break;
              case ReductionOp::Min:
                for (int k = 0; k < len; k++)
                    p = p < s[k] ? p : s[k];
                break;
            }
            partials[r] = p;
        }
    }
}

void
Executor::runNest(PointContext &ctx, int nest)
{
    const KernelFunction &fn = *ctx.fn_;
    const ExecutablePlan &plan = *ctx.plan_;
    const NestPlan &np = plan.nests[std::size_t(nest)];
    const LoopNest &loop = fn.nests[std::size_t(nest)];
    const ResolvedNest &rn = ctx.nest(nest);

    switch (np.kind) {
      case NestKind::Gemv:
        runGemv(loop, ctx.all_, 0, rn.rows);
        return;
      case NestKind::Csr:
        runCsr(loop, ctx.all_, 0, rn.rows);
        return;
      case NestKind::Dense:
        break;
    }
    if (rn.scalarFallback) {
        runDense(fn, loop, ctx.all_, ctx.scalars_);
        return;
    }

    const DensePlan &dp = np.dense;

    // Natively compiled nest (src/kernel/codegen.h): same strip
    // geometry, same element-order reduction folds, bitwise-identical
    // to the interpreted tape below. Inexpressible nests hold a null
    // entry and take the interpreter path.
    if (ctx.jit_ != nullptr) {
        if (JitModule::NestFn f = ctx.jit_->nest(nest)) {
            partials_.resize(dp.reductions.size());
            for (std::size_t r = 0; r < dp.reductions.size(); r++)
                partials_[r] = reductionIdentity(dp.reductions[r].op);
            f(rn.accesses.data(), ctx.scalars_.data(),
              partials_.data(), 0, rn.strips, rn.stripsPerRow,
              rn.inner, &jitFuncTable());
            for (std::size_t r = 0; r < dp.reductions.size(); r++) {
                const Reduction &red = dp.reductions[r];
                const BufferBinding &acc =
                    ctx.all_[std::size_t(red.accBuf)];
                double *p = static_cast<double *>(acc.base);
                *p = applyReduction(red.op, *p, partials_[r]);
            }
            return;
        }
    }

    ensureVecRegs(plan);
    splatInvariants(dp, plan.stripWidth, ctx.scalars_);
    invariantEpoch_ = 0; // register file no longer matches any epoch

    partials_.resize(dp.reductions.size());
    for (std::size_t r = 0; r < dp.reductions.size(); r++)
        partials_[r] = reductionIdentity(dp.reductions[r].op);

    for (coord_t s = 0; s < rn.strips; s++)
        execStrip(dp, rn, s, plan.stripWidth, ctx.scalars_,
                  partials_.data());

    for (std::size_t r = 0; r < dp.reductions.size(); r++) {
        const Reduction &red = dp.reductions[r];
        const BufferBinding &acc =
            ctx.all_[std::size_t(red.accBuf)];
        double *p = static_cast<double *>(acc.base);
        *p = applyReduction(red.op, *p, partials_[r]);
    }
}

void
Executor::runStrips(PointContext &ctx, int nest, coord_t strip0,
                    coord_t strip1, std::uint64_t epoch)
{
    const ExecutablePlan &plan = *ctx.plan_;
    const DensePlan &dp = plan.nests[std::size_t(nest)].dense;
    const ResolvedNest &rn = ctx.nest(nest);
    diffuse_assert(dp.reductions.empty(),
                   "runStrips on a reduction-carrying nest");

    // Native entry point: needs no register file or invariant splats
    // (immediates are baked into the generated code).
    if (ctx.jit_ != nullptr) {
        if (JitModule::NestFn f = ctx.jit_->nest(nest)) {
            f(rn.accesses.data(), ctx.scalars_.data(), nullptr, strip0,
              strip1, rn.stripsPerRow, rn.inner, &jitFuncTable());
            return;
        }
    }

    ensureVecRegs(plan);
    if (invariantEpoch_ != epoch) {
        splatInvariants(dp, plan.stripWidth, ctx.scalars_);
        invariantEpoch_ = epoch;
    }
    for (coord_t s = strip0; s < strip1; s++)
        execStrip(dp, rn, s, plan.stripWidth, ctx.scalars_, nullptr);
}

void
Executor::runGemvRows(PointContext &ctx, int nest, coord_t row0,
                      coord_t row1)
{
    runGemv(ctx.fn_->nests[std::size_t(nest)], ctx.all_, row0, row1);
}

void
Executor::runCsrRows(PointContext &ctx, int nest, coord_t row0,
                     coord_t row1)
{
    runCsr(ctx.fn_->nests[std::size_t(nest)], ctx.all_, row0, row1);
}

void
Executor::run(const KernelFunction &fn, const ExecutablePlan &plan,
              std::span<const BufferBinding> bindings,
              std::span<const double> scalars, const JitModule *jit)
{
    ownCtx_.bind(fn, plan, bindings, scalars, jit);
    for (int n = 0; n < ownCtx_.nestCount(); n++)
        runNest(ownCtx_, n);
}

void
Executor::run(const KernelFunction &fn,
              std::span<const BufferBinding> bindings,
              std::span<const double> scalars)
{
    if (scalarForced()) {
        runScalar(fn, bindings, scalars);
        return;
    }
    ExecutablePlan plan = lowerPlan(fn);
    run(fn, plan, bindings, scalars);
}

// ---------------------------------------------------------------------
// Executor: the scalar oracle
// ---------------------------------------------------------------------

void
Executor::runScalar(const KernelFunction &fn,
                    std::span<const BufferBinding> bindings,
                    std::span<const double> scalars)
{
    bindLocalBuffers(fn, bindings, all_, scalarArena_);

    for (const LoopNest &nest : fn.nests) {
        switch (nest.kind) {
          case NestKind::Dense:
            runDense(fn, nest, all_, scalars);
            break;
          case NestKind::Gemv:
            runGemv(nest, all_, 0,
                    all_[std::size_t(nest.gemvA)].extent[0]);
            break;
          case NestKind::Csr:
            runCsr(nest, all_, 0,
                   all_[std::size_t(nest.csrY)].extent[0]);
            break;
        }
    }
}

void
Executor::runDense(const KernelFunction &fn, const LoopNest &nest,
                   std::span<const BufferBinding> bindings,
                   std::span<const double> scalars)
{
    Extents dom = resolveExtents(fn, nest.domainBuf,
                                 bindings.subspan(0, std::size_t(
                                                         fn.numArgs)));
    coord_t rows = dom.e[0];
    coord_t cols = dom.dims == 2 ? dom.e[1] : 1;

    regs_.assign(std::size_t(registerCount(nest.body)), 0.0);
    double *regs = regs_.data();

    std::vector<double> partials(nest.reductions.size());
    for (std::size_t r = 0; r < nest.reductions.size(); r++)
        partials[r] = reductionIdentity(nest.reductions[r].op);

    auto address = [](const BufferBinding &b, coord_t i,
                      coord_t j) -> coord_t {
        coord_t ii = b.extent[0] == 1 ? 0 : i;
        if (b.dims == 2) {
            coord_t jj = b.extent[1] == 1 ? 0 : j;
            return ii * b.stride[0] + jj * b.stride[1];
        }
        return ii * b.stride[0];
    };

    for (coord_t i = 0; i < rows; i++) {
        for (coord_t j = 0; j < cols; j++) {
            for (const Instr &ins : nest.body) {
                switch (ins.op) {
                  case Op::LoadBuf: {
                    const BufferBinding &b = bindings[std::size_t(
                        ins.buf)];
                    regs[ins.dst] = static_cast<const double *>(
                        b.base)[address(b, i, j)];
                    break;
                  }
                  case Op::StoreBuf: {
                    const BufferBinding &b = bindings[std::size_t(
                        ins.buf)];
                    static_cast<double *>(b.base)[address(b, i, j)] =
                        regs[ins.a];
                    break;
                  }
                  case Op::LoadScalar:
                    regs[ins.dst] = scalars[std::size_t(ins.scalar)];
                    break;
                  case Op::Const:
                    regs[ins.dst] = ins.imm;
                    break;
                  case Op::Copy:
                    regs[ins.dst] = regs[ins.a];
                    break;
                  case Op::Add:
                    regs[ins.dst] = regs[ins.a] + regs[ins.b];
                    break;
                  case Op::Sub:
                    regs[ins.dst] = regs[ins.a] - regs[ins.b];
                    break;
                  case Op::Mul:
                    regs[ins.dst] = regs[ins.a] * regs[ins.b];
                    break;
                  case Op::Div:
                    regs[ins.dst] = regs[ins.a] / regs[ins.b];
                    break;
                  case Op::Max:
                    regs[ins.dst] = regs[ins.a] > regs[ins.b]
                                        ? regs[ins.a]
                                        : regs[ins.b];
                    break;
                  case Op::Min:
                    regs[ins.dst] = regs[ins.a] < regs[ins.b]
                                        ? regs[ins.a]
                                        : regs[ins.b];
                    break;
                  case Op::Pow:
                    regs[ins.dst] = std::pow(regs[ins.a], regs[ins.b]);
                    break;
                  case Op::Neg:
                    regs[ins.dst] = -regs[ins.a];
                    break;
                  case Op::Sqrt:
                    regs[ins.dst] = std::sqrt(regs[ins.a]);
                    break;
                  case Op::Exp:
                    regs[ins.dst] = std::exp(regs[ins.a]);
                    break;
                  case Op::Log:
                    regs[ins.dst] = std::log(regs[ins.a]);
                    break;
                  case Op::Erf:
                    regs[ins.dst] = fastErf(regs[ins.a]);
                    break;
                  case Op::Abs:
                    regs[ins.dst] = std::fabs(regs[ins.a]);
                    break;
                  case Op::CmpLt:
                    regs[ins.dst] =
                        regs[ins.a] < regs[ins.b] ? 1.0 : 0.0;
                    break;
                  case Op::CmpGt:
                    regs[ins.dst] =
                        regs[ins.a] > regs[ins.b] ? 1.0 : 0.0;
                    break;
                  case Op::Select:
                    regs[ins.dst] = regs[ins.a] != 0.0 ? regs[ins.b]
                                                       : regs[ins.c];
                    break;
                }
            }
            for (std::size_t r = 0; r < nest.reductions.size(); r++) {
                partials[r] =
                    applyReduction(nest.reductions[r].op, partials[r],
                                regs[nest.reductions[r].srcReg]);
            }
        }
    }

    for (std::size_t r = 0; r < nest.reductions.size(); r++) {
        const Reduction &red = nest.reductions[r];
        const BufferBinding &acc = bindings[std::size_t(red.accBuf)];
        double *p = static_cast<double *>(acc.base);
        *p = applyReduction(red.op, *p, partials[r]);
    }
}

void
Executor::runGemv(const LoopNest &nest,
                  std::span<const BufferBinding> bindings, coord_t row0,
                  coord_t row1)
{
    const BufferBinding &a = bindings[std::size_t(nest.gemvA)];
    const BufferBinding &x = bindings[std::size_t(nest.gemvX)];
    const BufferBinding &y = bindings[std::size_t(nest.gemvY)];
    coord_t cols = a.extent[1];
    const double *ap = static_cast<const double *>(a.base);
    const double *xp = static_cast<const double *>(x.base);
    double *yp = static_cast<double *>(y.base);
    if (a.stride[1] == 1 && x.stride[0] == 1) {
        // Unit-stride fast path: a plain dot per row that the
        // compiler can unroll and vectorize.
        for (coord_t i = row0; i < row1; i++) {
            const double *__restrict row = ap + i * a.stride[0];
            double sum = 0.0;
            for (coord_t j = 0; j < cols; j++)
                sum += row[j] * xp[j];
            yp[i * y.stride[0]] = sum;
        }
        return;
    }
    for (coord_t i = row0; i < row1; i++) {
        double sum = 0.0;
        const double *row = ap + i * a.stride[0];
        for (coord_t j = 0; j < cols; j++)
            sum += row[j * a.stride[1]] * xp[j * x.stride[0]];
        yp[i * y.stride[0]] = sum;
    }
}

void
Executor::runCsr(const LoopNest &nest,
                 std::span<const BufferBinding> bindings, coord_t row0,
                 coord_t row1)
{
    const BufferBinding &rowptr = bindings[std::size_t(nest.csrRowptr)];
    const BufferBinding &colind = bindings[std::size_t(nest.csrColind)];
    const BufferBinding &vals = bindings[std::size_t(nest.csrVals)];
    const BufferBinding &x = bindings[std::size_t(nest.csrX)];
    const BufferBinding &y = bindings[std::size_t(nest.csrY)];
    const double *vp = static_cast<const double *>(vals.base);
    const double *xp = static_cast<const double *>(x.base);
    double *yp = static_cast<double *>(y.base);
    if (x.stride[0] == 1 && colind.dtype == DType::I32) {
        // Unit-stride gather fast path over the common i32 index type.
        const std::int32_t *ci =
            static_cast<const std::int32_t *>(colind.base);
        for (coord_t i = row0; i < row1; i++) {
            coord_t begin = readIndex(rowptr, i);
            coord_t end = readIndex(rowptr, i + 1);
            double sum = 0.0;
            for (coord_t k = begin; k < end; k++)
                sum += vp[k] * xp[ci[k]];
            yp[i * y.stride[0]] = sum;
        }
        return;
    }
    for (coord_t i = row0; i < row1; i++) {
        coord_t begin = readIndex(rowptr, i);
        coord_t end = readIndex(rowptr, i + 1);
        double sum = 0.0;
        for (coord_t k = begin; k < end; k++)
            sum += vp[k] * xp[readIndex(colind, k) * x.stride[0]];
        yp[i * y.stride[0]] = sum;
    }
}

// ---------------------------------------------------------------------
// WorkerPool
// ---------------------------------------------------------------------

namespace {

/** Live pool helper threads, process-wide (lazy-start regression
 * tests: N sessions sharing one pool spawn at most one pool's
 * worth of threads). */
std::atomic<int> g_liveThreads{0};

} // namespace

int
WorkerPool::defaultWorkers()
{
    return envInt("DIFFUSE_WORKERS", 1, 1, 1024);
}

int
WorkerPool::liveThreads()
{
    return g_liveThreads.load(std::memory_order_relaxed);
}

WorkerPool::WorkerPool(int workers)
{
    if (workers <= 0)
        workers = defaultWorkers();
    target_.store(workers, std::memory_order_relaxed);
    // Threads spawn lazily in ensureSpawnedLocked(): a pool that only
    // ever runs sequential work (Simulated mode, workers=1 sessions,
    // idle sessions of a shared pool) costs nothing.
}

void
WorkerPool::reserve(int workers)
{
    if (workers <= target_.load(std::memory_order_relaxed))
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    if (workers > target_.load(std::memory_order_relaxed))
        target_.store(workers, std::memory_order_relaxed);
}

int
WorkerPool::threadsSpawned() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return int(threads_.size());
}

void
WorkerPool::ensureSpawnedLocked(int cap)
{
    // Spawn only what this job can actually seat (cap - 1 helpers):
    // a small-worker session on a large shared pool must not start
    // threads that could never claim one of its slots. Later jobs
    // with a larger cap grow the pool then.
    int want = std::min(target_.load(std::memory_order_relaxed), cap) - 1;
    while (int(threads_.size()) < want) {
        threads_.emplace_back(&WorkerPool::workerLoop, this);
        g_liveThreads.fetch_add(1, std::memory_order_relaxed);
    }
}

WorkerPool::~WorkerPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    start_.notify_all();
    for (std::thread &t : threads_)
        t.join();
    g_liveThreads.fetch_sub(int(threads_.size()),
                            std::memory_order_relaxed);
}

bool
WorkerPool::nextSpan(Job &job, int slot, coord_t &begin, coord_t &end)
{
    // Own deque first: LIFO keeps a worker on the span it just split,
    // so consecutive chunks stay cache-adjacent.
    {
        Job::SlotDeque &own = job.deques[std::size_t(slot)];
        std::lock_guard<std::mutex> lock(own.m);
        if (!own.q.empty()) {
            begin = own.q.back().first;
            end = own.q.back().second;
            own.q.pop_back();
            return true;
        }
    }
    // Steal round-robin from the other slots' fronts (the oldest —
    // largest — remainder of the victim's current span).
    for (int i = 1; i < job.slotLimit; i++) {
        int victim = (slot + i) % job.slotLimit;
        Job::SlotDeque &vd = job.deques[std::size_t(victim)];
        std::lock_guard<std::mutex> lock(vd.m);
        if (vd.q.empty())
            continue;
        begin = vd.q.front().first;
        end = vd.q.front().second;
        vd.q.pop_front();
        steals_.fetch_add(1, std::memory_order_relaxed);
        return true;
    }
    return false;
}

void
WorkerPool::runStint(const std::shared_ptr<Job> &job, int slot)
{
    const std::function<void(int, coord_t, coord_t)> &fn = *job->fn;
    coord_t begin = 0, end = 0;
    while (nextSpan(*job, slot, begin, end)) {
        // Split one chunk off the span; the remainder goes back onto
        // the own deque where thieves can reach it.
        coord_t e = std::min(end, begin + job->chunk);
        if (end > e) {
            Job::SlotDeque &own = job->deques[std::size_t(slot)];
            std::lock_guard<std::mutex> lock(own.m);
            own.q.emplace_back(e, end);
        }
        job->itemsTaken.fetch_add(e - begin, std::memory_order_relaxed);
        // A cancelled job's chunks are credited without executing:
        // the accounting still converges and the stint drains fast.
        bool run;
        {
            std::lock_guard<std::mutex> lock(job->m);
            run = !job->cancelled;
        }
        if (run) {
            try {
                fn(slot, begin, e);
            } catch (...) {
                // A kernel share may throw (injected faults, real
                // bugs). Letting it escape workerLoop() would
                // std::terminate the process; record the first
                // exception and cancel the remainder so runJob can
                // rethrow it on the submitting thread.
                std::lock_guard<std::mutex> lock(job->m);
                if (!job->error)
                    job->error = std::current_exception();
                job->cancelled = true;
            }
        }
        std::lock_guard<std::mutex> lock(job->m);
        job->itemsDone += e - begin;
        if (job->itemsDone >= job->numItems) {
            job->done = true;
            job->cv.notify_all();
        }
    }
}

void
WorkerPool::workerLoop()
{
    for (;;) {
        std::shared_ptr<Job> job;
        int slot = -1;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            for (;;) {
                if (stop_)
                    return;
                // Lease a free worker slot on any active job that
                // still has unclaimed items. Scanning in registration
                // order is fair enough: a job whose items are all
                // taken is skipped, so helpers spill onto younger
                // jobs instead of piling up.
                for (const std::shared_ptr<Job> &j : activeJobs_) {
                    if (j->itemsTaken.load(std::memory_order_relaxed) >=
                        j->numItems) {
                        continue;
                    }
                    std::lock_guard<std::mutex> jl(j->m);
                    if (j->freeSlots.empty())
                        continue;
                    slot = j->freeSlots.back();
                    j->freeSlots.pop_back();
                    job = j;
                    break;
                }
                if (job)
                    break;
                std::uint64_t seen = signal_;
                start_.wait(lock, [&] {
                    return stop_ || signal_ != seen;
                });
            }
        }
        runStint(job, slot);
        bool more;
        {
            // Return the slot lease. If items are still unclaimed
            // (this helper simply lost every race), another parked
            // helper may be able to use the slot — wake one.
            std::lock_guard<std::mutex> lock(job->m);
            job->freeSlots.push_back(slot);
            more = job->itemsTaken.load(std::memory_order_relaxed) <
                   job->numItems;
        }
        job.reset();
        if (more) {
            {
                std::lock_guard<std::mutex> lock(mutex_);
                signal_++;
            }
            start_.notify_one();
        }
    }
}

void
WorkerPool::runJob(coord_t n, coord_t chunk, int cap,
                   const std::function<void(int, coord_t, coord_t)> &fn)
{
    auto job = std::make_shared<Job>();
    job->fn = &fn;
    job->numItems = n;
    job->chunk = chunk;
    job->slotLimit = cap;
    job->deques = std::vector<Job::SlotDeque>(std::size_t(cap));
    // The caller owns slot 0 for the whole job; helpers lease
    // 1..cap-1 (descending so slot 1 is handed out first).
    job->freeSlots.reserve(std::size_t(cap) - 1);
    for (int s = cap - 1; s >= 1; s--)
        job->freeSlots.push_back(s);
    // Seed the whole range onto the caller's deque: the caller starts
    // splitting chunks off it immediately and helpers steal the tail.
    job->deques[0].q.emplace_back(coord_t(0), n);

    {
        std::lock_guard<std::mutex> lock(mutex_);
        ensureSpawnedLocked(cap);
        activeJobs_.push_back(job);
        signal_++;
    }
    start_.notify_all();

    runStint(job, 0);

    // The caller's stint found no more spans; chunks may still be
    // executing on helper slots. Wait for the accounting to converge
    // rather than for a quiescent pool — other jobs keep running.
    {
        std::unique_lock<std::mutex> lock(job->m);
        job->cv.wait(lock, [&] { return job->done; });
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = std::find(activeJobs_.begin(), activeJobs_.end(), job);
        diffuse_assert(it != activeJobs_.end(),
                       "job vanished from the scheduler registry");
        activeJobs_.erase(it);
    }
    if (job->error)
        std::rethrow_exception(job->error);
}

void
WorkerPool::parallelForChunked(
    coord_t n, coord_t chunk,
    const std::function<void(int, coord_t, coord_t)> &fn)
{
    parallelForChunked(n, chunk, workers(), fn);
}

void
WorkerPool::parallelForChunked(
    coord_t n, coord_t chunk, int max_workers,
    const std::function<void(int, coord_t, coord_t)> &fn)
{
    if (n <= 0)
        return;
    if (chunk <= 0)
        chunk = 1;
    int cap = std::min(max_workers, workers());
    if (cap <= 1 || n <= chunk) {
        fn(0, 0, n);
        return;
    }
    runJob(n, chunk, cap, fn);
}

void
WorkerPool::parallelFor(coord_t n,
                        const std::function<void(int, coord_t)> &fn)
{
    parallelFor(n, workers(), fn);
}

void
WorkerPool::parallelFor(coord_t n, int max_workers,
                        const std::function<void(int, coord_t)> &fn)
{
    if (n <= 0)
        return;
    if (std::min(max_workers, workers()) <= 1 || n == 1) {
        for (coord_t i = 0; i < n; i++)
            fn(0, i);
        return;
    }
    auto ranged = [&fn](int worker, coord_t begin, coord_t end) {
        for (coord_t i = begin; i < end; i++)
            fn(worker, i);
    };
    parallelForChunked(n, 1, max_workers, ranged);
}

// ---- BatchCoalescer ---------------------------------------------------

BatchCoalescer::BatchCoalescer(std::shared_ptr<WorkerPool> pool,
                               int window_us)
    : pool_(std::move(pool)),
      windowUs_(window_us >= 0
                    ? window_us
                    : envInt("DIFFUSE_BATCH_WINDOW_US", 200, 0,
                             1000000))
{
}

void
BatchCoalescer::announce(std::uint64_t epoch, std::uint64_t session)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Replayer &r = replayers_[epoch][session];
    r.instances++;
    r.watermark = 0; // the new pass replays from the first submission
}

void
BatchCoalescer::retract(std::uint64_t epoch, std::uint64_t session)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = replayers_.find(epoch);
    if (it == replayers_.end())
        return;
    auto sit = it->second.find(session);
    if (sit == it->second.end())
        return;
    if (--sit->second.instances <= 0)
        it->second.erase(sit);
    if (it->second.empty())
        replayers_.erase(it);
    // The session can no longer arrive anywhere on this epoch: a
    // group waiting for it may hold everyone it can still expect.
    reapSatisfiedGroups(epoch);
}

bool
BatchCoalescer::shouldGather(std::uint64_t epoch) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = replayers_.find(epoch);
    return it != replayers_.end() && it->second.size() > 1;
}

void
BatchCoalescer::passBy(std::uint64_t epoch, std::int32_t index,
                       std::uint64_t session)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = replayers_.find(epoch);
    if (it == replayers_.end())
        return;
    auto sit = it->second.find(session);
    if (sit == it->second.end())
        return;
    sit->second.watermark =
        std::max(sit->second.watermark, index + 1);
    reapSatisfiedGroups(epoch);
}

std::size_t
BatchCoalescer::expectedAt(std::uint64_t epoch,
                           std::int32_t index) const
{
    auto it = replayers_.find(epoch);
    if (it == replayers_.end())
        return 0;
    std::size_t n = 0;
    for (const auto &entry : it->second)
        if (entry.second.watermark <= index)
            n++;
    return n;
}

void
BatchCoalescer::reapSatisfiedGroups(std::uint64_t epoch)
{
    for (auto it = open_.begin(); it != open_.end();) {
        Group *group = it->second.get();
        if (it->first.first != epoch || group->closed) {
            ++it;
            continue;
        }
        if (group->members.size() >=
            expectedAt(epoch, it->first.second)) {
            group->closed = true;
            stats_.closedByCount++;
            group->cv.notify_all();
            it = open_.erase(it);
        } else {
            ++it;
        }
    }
}

std::size_t
BatchCoalescer::activeReplayers(std::uint64_t epoch) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = replayers_.find(epoch);
    return it == replayers_.end() ? 0 : it->second.size();
}

BatchCoalescer::Stats
BatchCoalescer::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

void
BatchCoalescer::runCombined(const std::vector<Member *> &members,
                            int cap)
{
    // Flatten every member's items into one job: item index -> member
    // by offset table. A member's failure latches its skip flag —
    // remaining items of that member are credited without running,
    // while every other member's items proceed untouched; the error
    // never reaches the pool's job-level cancellation.
    std::vector<coord_t> offsets(members.size() + 1, 0);
    for (std::size_t m = 0; m < members.size(); m++)
        offsets[m + 1] = offsets[m] + members[m]->work.items;
    coord_t total = offsets.back();
    if (total == 0)
        return;
    pool_->parallelFor(total, cap, [&](int slot, coord_t idx) {
        std::size_t m =
            std::size_t(std::upper_bound(offsets.begin(), offsets.end(),
                                         idx) -
                        offsets.begin()) -
            1;
        Member *mem = members[m];
        if (mem->failed.load(std::memory_order_acquire))
            return;
        try {
            mem->work.run(slot, idx - offsets[m]);
        } catch (...) {
            if (!mem->failed.exchange(true, std::memory_order_acq_rel))
                mem->error = std::current_exception();
        }
    });
}

std::exception_ptr
BatchCoalescer::joinAndRun(std::uint64_t epoch, std::int32_t index,
                           std::uint64_t session, int max_workers,
                           BatchWork work)
{
    Member me;
    me.work = std::move(work);
    me.session = session;

    std::unique_lock<std::mutex> lock(mutex_);
    // Arriving at `index`: the session can still join a group here
    // but none below (watermark moves to index + 1 once it ran).
    {
        auto rit = replayers_.find(epoch);
        if (rit != replayers_.end()) {
            auto sit = rit->second.find(session);
            if (sit != rit->second.end() &&
                sit->second.watermark < index)
                sit->second.watermark = index;
        }
    }
    Key key{epoch, index};
    auto it = open_.find(key);
    if (it == open_.end()) {
        // First arrival: become the group leader. Wait until every
        // session that can still reach this index arrived (their
        // watermarks say so) or the gather window expires, then run
        // the combined job.
        auto group = std::make_shared<Group>();
        group->cap = max_workers;
        group->members.push_back(&me);
        if (expectedAt(epoch, index) > 1 && windowUs_ > 0) {
            open_.emplace(key, group);
            auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::microseconds(windowUs_);
            while (!group->closed) {
                if (group->cv.wait_until(lock, deadline) ==
                        std::cv_status::timeout &&
                    !group->closed) {
                    group->closed = true;
                    open_.erase(key);
                    stats_.timeouts++;
                    break;
                }
            }
        } else {
            group->closed = true;
        }
        stats_.batches++;
        stats_.batchedTasks += group->members.size();
        stats_.maxOccupancy = std::max<std::uint64_t>(
            stats_.maxOccupancy, group->members.size());
        stats_.handoffsSaved += group->members.size() - 1;
        // Membership is frozen (closed groups left the map), so the
        // job runs without the lock; the lock hand-offs above give the
        // workers happens-before on every member's pre-join state.
        std::vector<Member *> members = group->members;
        int cap = group->cap;
        lock.unlock();
        runCombined(members, cap);
        lock.lock();
        // Every member is now past this index; a leader waiting one
        // submission ahead must not expect anyone at or below it (and
        // may be complete once the watermarks move).
        for (Member *m : members)
            if (auto rit = replayers_.find(epoch);
                rit != replayers_.end())
                if (auto sit = rit->second.find(m->session);
                    sit != rit->second.end() &&
                    sit->second.watermark <= index)
                    sit->second.watermark = index + 1;
        reapSatisfiedGroups(epoch);
        group->executed = true;
        group->cv.notify_all();
        return me.error;
    }

    std::shared_ptr<Group> group = it->second;
    group->members.push_back(&me);
    // Everyone who can still arrive here may be present now: close
    // early so nobody sleeps out the window.
    reapSatisfiedGroups(epoch);
    while (!group->executed)
        group->cv.wait(lock);
    return me.error;
}

} // namespace kir
} // namespace diffuse
