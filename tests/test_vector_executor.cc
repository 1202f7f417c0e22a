/**
 * @file
 * Differential tests for the vectorized kernel executor: every Op,
 * every addressing class (contiguous / strided / transposed-stride /
 * broadcast), strip widths 1, 3 and 256, and domain sizes that are
 * not strip multiples — all asserting the vector engine matches the
 * scalar oracle BITWISE.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <vector>

#include "apps/apps.h"
#include "kernel/compiler.h"
#include "kernel/exec.h"
#include "kernel/ir.h"
#include "kernel/plan.h"

namespace diffuse {
namespace kir {
namespace {

const int kStrips[] = {1, 3, 256};

/** Bitwise comparison of two double vectors. */
::testing::AssertionResult
bitEqual(const std::vector<double> &a, const std::vector<double> &b)
{
    if (a.size() != b.size())
        return ::testing::AssertionFailure() << "size mismatch";
    for (std::size_t i = 0; i < a.size(); i++) {
        if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) {
            return ::testing::AssertionFailure()
                   << "element " << i << ": " << a[i] << " vs " << b[i];
        }
    }
    return ::testing::AssertionSuccess();
}

BufferBinding
bindVec(std::vector<double> &v)
{
    BufferBinding b;
    b.base = v.data();
    b.dims = 1;
    b.extent[0] = coord_t(v.size());
    b.stride[0] = 1;
    return b;
}

/** Deterministic quasi-random fill, including negatives and zeros. */
void
fill(std::vector<double> &v, int seed)
{
    for (std::size_t i = 0; i < v.size(); i++) {
        double x = std::sin(double(i * 37 + seed * 101)) * 3.0;
        if (i % 13 == 0)
            x = 0.0;
        v[i] = x;
    }
}

/**
 * A body exercising every opcode. Built so each op's result feeds the
 * output (no dead code), with domains kept finite (abs before sqrt /
 * log; pow on a positive base).
 */
KernelFunction
makeEveryOpKernel(int dims)
{
    KernelFunction fn;
    fn.name = "every_op";
    fn.numArgs = 3; // in0, in1, out
    fn.numScalars = 1;
    fn.buffers.resize(3);
    for (auto &b : fn.buffers) {
        b.dims = dims;
        b.shapeClass = 0;
    }
    LoopNest nest;
    nest.domainBuf = 2;
    BodyBuilder b(nest.body);
    int x = b.load(0);
    int y = b.load(1);
    int s = b.scalar(0);
    int c = b.constant(1.25);
    int add = b.binary(Op::Add, x, y);
    int sub = b.binary(Op::Sub, add, s);
    int mul = b.binary(Op::Mul, sub, c);
    int div = b.binary(Op::Div, mul, b.constant(3.0));
    int mx = b.binary(Op::Max, div, x);
    int mn = b.binary(Op::Min, mx, y);
    int abs = b.unary(Op::Abs, mn);
    int pw = b.binary(Op::Pow, abs, c);
    int ng = b.unary(Op::Neg, pw);
    int sq = b.unary(Op::Sqrt, abs);
    int ex = b.unary(Op::Exp, mn);
    int lg = b.unary(Op::Log, ex);
    int er = b.unary(Op::Erf, lg);
    int lt = b.binary(Op::CmpLt, x, y);
    int gt = b.binary(Op::CmpGt, x, y);
    int sel = b.select(lt, ng, sq);
    int sel2 = b.select(gt, sel, er);
    int cp = b.unary(Op::Copy, sel2);
    b.store(2, cp);
    fn.nests.push_back(std::move(nest));
    return fn;
}

/** Run `fn` on the oracle and on plans of every strip width; compare
 * the full output allocations bitwise. */
void
expectDifferentialMatch(const KernelFunction &fn,
                        std::vector<BufferBinding> binds,
                        std::vector<double> &out_alloc,
                        std::span<const double> scalars,
                        const std::vector<double> &out_init)
{
    Executor ex;
    out_alloc = out_init;
    ex.runScalar(fn, binds, scalars);
    std::vector<double> want = out_alloc;

    for (int w : kStrips) {
        ExecutablePlan plan = lowerPlan(fn, w);
        out_alloc = out_init;
        ex.run(fn, plan, binds, scalars);
        EXPECT_TRUE(bitEqual(out_alloc, want)) << "strip width " << w;
    }
}

TEST(VectorExecutor, EveryOpContiguous1d)
{
    KernelFunction fn = makeEveryOpKernel(1);
    const coord_t n = 777; // not a multiple of 1, 3 or 256
    std::vector<double> a(n), b(n), out(n, 0.0);
    fill(a, 1);
    fill(b, 2);
    std::vector<BufferBinding> binds{bindVec(a), bindVec(b),
                                     bindVec(out)};
    double scal = 0.75;
    expectDifferentialMatch(fn, binds, out, std::span(&scal, 1),
                            std::vector<double>(n, 0.0));
}

TEST(VectorExecutor, EveryOpStrided1d)
{
    KernelFunction fn = makeEveryOpKernel(1);
    const coord_t n = 257;
    std::vector<double> a(3 * n), b(2 * n), out(4 * n, -7.5);
    fill(a, 3);
    fill(b, 4);
    BufferBinding ba = bindVec(a);
    ba.extent[0] = n;
    ba.stride[0] = 3;
    BufferBinding bb = bindVec(b);
    bb.extent[0] = n;
    bb.stride[0] = 2;
    BufferBinding bo = bindVec(out);
    bo.extent[0] = n;
    bo.stride[0] = 4;
    double scal = -0.5;
    expectDifferentialMatch(fn, {ba, bb, bo}, out, std::span(&scal, 1),
                            std::vector<double>(4 * n, -7.5));
}

TEST(VectorExecutor, EveryOpBroadcast1d)
{
    KernelFunction fn = makeEveryOpKernel(1);
    const coord_t n = 1000;
    std::vector<double> a(n), s{2.5}, out(n, 0.0);
    fill(a, 5);
    std::vector<BufferBinding> binds{bindVec(a), bindVec(s),
                                     bindVec(out)};
    double scal = 1.5;
    expectDifferentialMatch(fn, binds, out, std::span(&scal, 1),
                            std::vector<double>(n, 0.0));
}

TEST(VectorExecutor, EveryOp2dRowMajorAndBroadcastColumn)
{
    KernelFunction fn = makeEveryOpKernel(2);
    const coord_t rows = 5, cols = 13; // cols not a strip multiple
    std::vector<double> a(rows * cols), col(rows), out(rows * cols, 0.0);
    fill(a, 6);
    fill(col, 7);
    BufferBinding ba;
    ba.base = a.data();
    ba.dims = 2;
    ba.extent[0] = rows;
    ba.extent[1] = cols;
    ba.stride[0] = cols;
    ba.stride[1] = 1;
    BufferBinding bc; // extent-1 inner dim: broadcast along columns
    bc.base = col.data();
    bc.dims = 2;
    bc.extent[0] = rows;
    bc.extent[1] = 1;
    bc.stride[0] = 1;
    bc.stride[1] = 0;
    BufferBinding bo = ba;
    bo.base = out.data();
    double scal = 0.25;
    expectDifferentialMatch(fn, {ba, bc, bo}, out, std::span(&scal, 1),
                            std::vector<double>(rows * cols, 0.0));
}

TEST(VectorExecutor, EveryOp2dTransposedStride)
{
    KernelFunction fn = makeEveryOpKernel(2);
    const coord_t rows = 7, cols = 11;
    // `a` is a transposed view of a cols x rows parent: stride[0]=1,
    // stride[1]=rows — the inner loop walks a non-unit stride.
    std::vector<double> parent(rows * cols), b(rows * cols),
        out(rows * cols, 0.0);
    fill(parent, 8);
    fill(b, 9);
    BufferBinding ba;
    ba.base = parent.data();
    ba.dims = 2;
    ba.extent[0] = rows;
    ba.extent[1] = cols;
    ba.stride[0] = 1;
    ba.stride[1] = rows;
    BufferBinding bb;
    bb.base = b.data();
    bb.dims = 2;
    bb.extent[0] = rows;
    bb.extent[1] = cols;
    bb.stride[0] = cols;
    bb.stride[1] = 1;
    BufferBinding bo = ba; // transposed-stride store target
    bo.base = out.data();
    double scal = 2.0;
    expectDifferentialMatch(fn, {ba, bb, bo}, out, std::span(&scal, 1),
                            std::vector<double>(rows * cols, 0.0));
}

TEST(VectorExecutor, FusedTriadsMatchOracleInAllOrders)
{
    // Trigger every fused-triad form (MulAdd, AddMul, MulSub, SubMul,
    // MulAddK, MulSubK, MulRsubK): single-use products feeding an
    // add/sub on either side, and immediate-form consumers.
    KernelFunction fn;
    fn.name = "triads";
    fn.numArgs = 4;
    fn.buffers.resize(4);
    for (auto &buf : fn.buffers) {
        buf.dims = 1;
        buf.shapeClass = 0;
    }
    LoopNest nest;
    nest.domainBuf = 3;
    BodyBuilder b(nest.body);
    int x = b.load(0);
    int y = b.load(1);
    int z = b.load(2);
    int r1 = b.binary(Op::Add, b.binary(Op::Mul, x, y), z); // MulAdd
    int r2 = b.binary(Op::Add, y, b.binary(Op::Mul, x, z)); // AddMul
    int r3 = b.binary(Op::Sub, b.binary(Op::Mul, y, z), x); // MulSub
    int r4 = b.binary(Op::Sub, z, b.binary(Op::Mul, x, y)); // SubMul
    int r5 = b.binary(Op::Add, b.binary(Op::Mul, r1, r2),
                      b.constant(2.5));                     // MulAddK
    int r6 = b.binary(Op::Sub, b.binary(Op::Mul, r3, r4),
                      b.constant(1.5));                     // MulSubK
    int r7 = b.binary(Op::Sub, b.constant(4.0),
                      b.binary(Op::Mul, r5, r6));           // MulRsubK
    b.store(3, r7);
    fn.nests.push_back(std::move(nest));

    {
        // The lowering must actually produce fused triads.
        ExecutablePlan plan = lowerPlan(fn);
        int triads = 0;
        for (const VecInstr &ins : plan.nests[0].dense.tape) {
            if (ins.op == VecOp::MulAdd || ins.op == VecOp::AddMul ||
                ins.op == VecOp::MulSub || ins.op == VecOp::SubMul ||
                ins.op == VecOp::MulAddK || ins.op == VecOp::MulSubK ||
                ins.op == VecOp::MulRsubK)
                triads++;
        }
        EXPECT_EQ(triads, 7);
    }

    const coord_t n = 777;
    std::vector<double> a(n), c(n), e(n), out(n, 0.0);
    fill(a, 21);
    fill(c, 22);
    fill(e, 23);
    std::vector<BufferBinding> binds{bindVec(a), bindVec(c), bindVec(e),
                                     bindVec(out)};
    expectDifferentialMatch(fn, binds, out, {},
                            std::vector<double>(n, 0.0));
}

/**
 * acc[r] op_r= fold of in[i] * scale over one nest carrying one
 * reduction per entry of `ops`, each into its own accumulator.
 */
KernelFunction
makeReductionKernel(const std::vector<ReductionOp> &ops)
{
    KernelFunction fn;
    fn.name = "reduce";
    fn.numArgs = 2 + int(ops.size()); // in, scale, accumulators
    fn.buffers.resize(std::size_t(fn.numArgs));
    for (std::size_t i = 0; i < fn.buffers.size(); i++) {
        fn.buffers[i].dims = 1;
        fn.buffers[i].shapeClass = i == 0 ? 0 : 1;
    }
    LoopNest nest;
    nest.domainBuf = 0;
    BodyBuilder b(nest.body);
    int prod = b.binary(Op::Mul, b.load(0), b.load(1));
    for (std::size_t r = 0; r < ops.size(); r++) {
        Reduction red;
        red.accBuf = 2 + int(r);
        red.op = ops[r];
        red.srcReg = prod;
        nest.reductions.push_back(red);
    }
    fn.nests.push_back(std::move(nest));
    return fn;
}

/**
 * Run makeReductionKernel(ops) over `in` with every accumulator
 * starting at acc0: the scalar oracle must equal an element-order
 * applyReduction fold, and the vector engine must equal the oracle
 * bitwise at every strip width.
 */
void
expectReductionsMatchOracle(const std::vector<ReductionOp> &ops,
                            std::vector<double> in, double acc0)
{
    const double scale_v = 1.0 / 3.0;
    KernelFunction fn = makeReductionKernel(ops);
    std::vector<double> scale{scale_v};
    std::vector<std::vector<double>> acc(ops.size(), {acc0});
    std::vector<BufferBinding> binds{bindVec(in), bindVec(scale)};
    for (auto &a : acc)
        binds.push_back(bindVec(a));

    Executor ex;
    ex.runScalar(fn, binds, {});
    std::vector<double> want;
    for (std::size_t r = 0; r < ops.size(); r++) {
        double p = reductionIdentity(ops[r]);
        for (double v : in)
            p = applyReduction(ops[r], p, v * scale_v);
        double fold = applyReduction(ops[r], acc0, p);
        EXPECT_EQ(std::memcmp(&acc[r][0], &fold, sizeof(double)), 0)
            << reductionOpName(ops[r]) << " oracle " << acc[r][0]
            << " vs fold " << fold;
        want.push_back(acc[r][0]);
    }

    for (int w : kStrips) {
        ExecutablePlan plan = lowerPlan(fn, w);
        for (auto &a : acc)
            a[0] = acc0;
        ex.run(fn, plan, binds, {});
        for (std::size_t r = 0; r < ops.size(); r++) {
            EXPECT_EQ(std::memcmp(&acc[r][0], &want[r], sizeof(double)),
                      0)
                << reductionOpName(ops[r]) << " strip " << w << ": "
                << acc[r][0] << " vs oracle " << want[r];
        }
    }
}

TEST(VectorExecutor, ReductionsBitIdenticalAtEveryStripWidth)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();

    // Quasi-random data, 1000 elements: not a strip multiple.
    std::vector<double> plain(1000);
    fill(plain, 10);
    // The same with NaNs, signed zeros and infinities sprinkled across
    // strip boundaries: Max/Min keep applyReduction's exact ordered
    // comparisons (a NaN partial is replaced by the next element; of
    // +0 and -0 the later one wins), which fmax/std::max do not.
    std::vector<double> mixed = plain;
    for (std::size_t i = 0; i < mixed.size(); i++) {
        if (i % 7 == 3)
            mixed[i] = nan;
        else if (i % 11 == 5)
            mixed[i] = i % 2 ? -0.0 : 0.0;
        else if (i % 97 == 50)
            mixed[i] = i % 2 ? -inf : inf;
    }
    const std::vector<std::vector<double>> inputs{
        plain,
        mixed,
        {-0.0, 0.0, -0.0, 0.0, 0.0},
        {0.0, -0.0, -0.0},
        {nan, 1.0, -1.0},
        {1.0, -1.0, nan},
        {-0.0, nan, 0.0, -inf, inf, nan, -0.0},
    };

    for (ReductionOp op :
         {ReductionOp::Sum, ReductionOp::Max, ReductionOp::Min}) {
        for (std::size_t i = 0; i < inputs.size(); i++) {
            for (double acc0 : {0.125, 0.0, -0.0, nan, -inf}) {
                SCOPED_TRACE(::testing::Message()
                             << "input " << i << " acc0 " << acc0);
                expectReductionsMatchOracle({op}, inputs[i], acc0);
            }
        }
    }

    // One nest carrying reductions with different ops.
    for (std::size_t i = 0; i < inputs.size(); i++) {
        SCOPED_TRACE(::testing::Message() << "mixed ops, input " << i);
        expectReductionsMatchOracle(
            {ReductionOp::Max, ReductionOp::Sum, ReductionOp::Min},
            inputs[i], -0.0);
    }
}

TEST(VectorExecutor, ShiftedAliasFallsBackToOracleSemantics)
{
    // store %1 reads %0 where the two are SHIFTED views of one
    // allocation (alias class 0): out[i] = in[i+1] + 1 with out
    // overlapping in. The scalar oracle interleaves element-wise; the
    // vector engine must detect the shifted alias at bind time and
    // reproduce the interleaved result exactly.
    KernelFunction fn;
    fn.name = "shifted";
    fn.numArgs = 2;
    fn.buffers.resize(2);
    for (auto &b : fn.buffers) {
        b.dims = 1;
        b.shapeClass = 0;
        b.aliasClass = 0;
    }
    LoopNest nest;
    nest.domainBuf = 1;
    BodyBuilder b(nest.body);
    b.store(1, b.binary(Op::Add, b.load(0), b.constant(1.0)));
    fn.nests.push_back(std::move(nest));

    const coord_t n = 700;
    std::vector<double> ref(n + 1), vec(n + 1);
    fill(ref, 11);
    vec = ref;

    auto makeBinds = [&](std::vector<double> &alloc) {
        BufferBinding in; // elements [1, n]
        in.base = alloc.data() + 1;
        in.dims = 1;
        in.extent[0] = n;
        in.stride[0] = 1;
        BufferBinding out = in; // elements [0, n): overlaps, shifted
        out.base = alloc.data();
        return std::vector<BufferBinding>{in, out};
    };

    Executor ex;
    ex.runScalar(fn, makeBinds(ref), {});
    for (int w : kStrips) {
        std::vector<double> probe(vec);
        ExecutablePlan plan = lowerPlan(fn, w);
        ex.run(fn, plan, makeBinds(probe), {});
        EXPECT_TRUE(bitEqual(probe, ref)) << "strip " << w;
    }
}

TEST(VectorExecutor, IdenticalAliasedViewsStayExact)
{
    // In-place update: the load and store bind the IDENTICAL view
    // (alias class 0). Same-index accesses are vector-safe; results
    // must match the oracle bitwise.
    KernelFunction fn;
    fn.name = "inplace";
    fn.numArgs = 2;
    fn.buffers.resize(2);
    for (auto &b : fn.buffers) {
        b.dims = 1;
        b.shapeClass = 0;
        b.aliasClass = 0;
    }
    LoopNest nest;
    nest.domainBuf = 1;
    BodyBuilder b(nest.body);
    b.store(1, b.binary(Op::Mul, b.load(0), b.constant(1.5)));
    fn.nests.push_back(std::move(nest));

    const coord_t n = 513;
    std::vector<double> ref(n), vec(n);
    fill(ref, 12);
    vec = ref;

    Executor ex;
    {
        std::vector<BufferBinding> binds{bindVec(ref), bindVec(ref)};
        ex.runScalar(fn, binds, {});
    }
    for (int w : kStrips) {
        std::vector<double> probe(vec);
        std::vector<BufferBinding> binds{bindVec(probe), bindVec(probe)};
        ExecutablePlan plan = lowerPlan(fn, w);
        ex.run(fn, plan, binds, {});
        EXPECT_TRUE(bitEqual(probe, ref)) << "strip " << w;
    }
}

TEST(VectorExecutor, BroadcastStoreTargetKeepsLastWriteWins)
{
    // Storing through an extent-1 buffer from a size-n domain: every
    // element writes the same address and the scalar semantics are
    // last-write-wins. The vector engine must fall back and agree.
    KernelFunction fn;
    fn.name = "bcast_store";
    fn.numArgs = 2;
    fn.buffers.resize(2);
    fn.buffers[0].dims = 1;
    fn.buffers[0].shapeClass = 0;
    fn.buffers[1].dims = 1;
    fn.buffers[1].shapeClass = 1;
    LoopNest nest;
    nest.domainBuf = 0;
    BodyBuilder b(nest.body);
    b.store(1, b.load(0));
    fn.nests.push_back(std::move(nest));

    const coord_t n = 259;
    std::vector<double> in(n);
    fill(in, 13);
    std::vector<double> ref{0.0}, vec{0.0};

    Executor ex;
    {
        std::vector<BufferBinding> binds{bindVec(in), bindVec(ref)};
        ex.runScalar(fn, binds, {});
    }
    for (int w : kStrips) {
        vec[0] = 0.0;
        std::vector<BufferBinding> binds{bindVec(in), bindVec(vec)};
        ExecutablePlan plan = lowerPlan(fn, w);
        ex.run(fn, plan, binds, {});
        EXPECT_TRUE(bitEqual(vec, ref)) << "strip " << w;
    }
}

TEST(VectorExecutor, MultiNestLocalTemporaryPipeline)
{
    // Two nests through a task-local temporary, exercising the arena
    // and inter-nest ordering: local = a + b; out = local * local.
    KernelFunction fn;
    fn.name = "two_nests";
    fn.numArgs = 3;
    fn.buffers.resize(3);
    for (auto &b : fn.buffers) {
        b.dims = 1;
        b.shapeClass = 0;
    }
    int tmp = fn.addLocal(1, 0);
    {
        LoopNest nest;
        nest.domainBuf = 0;
        BodyBuilder b(nest.body);
        b.store(tmp, b.binary(Op::Add, b.load(0), b.load(1)));
        fn.nests.push_back(std::move(nest));
    }
    {
        LoopNest nest;
        nest.domainBuf = 2;
        BodyBuilder b(nest.body);
        int t = b.load(tmp);
        b.store(2, b.binary(Op::Mul, t, t));
        fn.nests.push_back(std::move(nest));
    }

    const coord_t n = 301;
    std::vector<double> a(n), c(n), out(n, 0.0);
    fill(a, 14);
    fill(c, 15);
    std::vector<BufferBinding> binds{bindVec(a), bindVec(c),
                                     bindVec(out)};
    expectDifferentialMatch(fn, binds, out, {},
                            std::vector<double>(n, 0.0));
}

TEST(VectorExecutor, GemvMatchesOracleUnitAndNonUnitStride)
{
    KernelFunction fn;
    fn.name = "gemv";
    fn.numArgs = 3;
    fn.buffers.resize(3);
    fn.buffers[0].dims = 2;
    fn.buffers[0].shapeClass = 0;
    fn.buffers[1].dims = 1;
    fn.buffers[1].shapeClass = 1;
    fn.buffers[2].dims = 1;
    fn.buffers[2].shapeClass = 2;
    LoopNest nest;
    nest.kind = NestKind::Gemv;
    nest.gemvA = 0;
    nest.gemvX = 1;
    nest.gemvY = 2;
    nest.domainBuf = 0;
    fn.nests.push_back(std::move(nest));

    const coord_t rows = 37, cols = 41;
    std::vector<double> a(rows * cols), x2(2 * cols), y(rows, 0.0);
    fill(a, 16);
    fill(x2, 17);

    BufferBinding ba;
    ba.base = a.data();
    ba.dims = 2;
    ba.extent[0] = rows;
    ba.extent[1] = cols;
    ba.stride[0] = cols;
    ba.stride[1] = 1;
    BufferBinding by = bindVec(y);

    for (coord_t xs : {coord_t(1), coord_t(2)}) {
        BufferBinding bx = bindVec(x2);
        bx.extent[0] = cols;
        bx.stride[0] = xs;
        Executor ex;
        std::vector<double> ref(rows, 0.0), vec(rows, 0.0);
        by.base = ref.data();
        std::vector<BufferBinding> rbinds{ba, bx, by};
        ex.runScalar(fn, rbinds, {});
        ExecutablePlan plan = lowerPlan(fn);
        by.base = vec.data();
        std::vector<BufferBinding> vbinds{ba, bx, by};
        ex.run(fn, plan, vbinds, {});
        EXPECT_TRUE(bitEqual(vec, ref)) << "x stride " << xs;
    }
}

TEST(VectorExecutor, CsrMatchesOracle)
{
    KernelFunction fn;
    fn.name = "csr";
    fn.numArgs = 5;
    fn.buffers.resize(5);
    for (auto &b : fn.buffers) {
        b.dims = 1;
        b.shapeClass = 0;
    }
    fn.buffers[0].dtype = DType::I64;
    fn.buffers[1].dtype = DType::I32;
    LoopNest nest;
    nest.kind = NestKind::Csr;
    nest.csrRowptr = 0;
    nest.csrColind = 1;
    nest.csrVals = 2;
    nest.csrX = 3;
    nest.csrY = 4;
    nest.domainBuf = 4;
    fn.nests.push_back(std::move(nest));

    // 4-row sparse matrix.
    std::vector<std::int64_t> rowptr{0, 2, 3, 3, 6};
    std::vector<std::int32_t> colind{0, 2, 1, 0, 1, 3};
    std::vector<double> vals{1.5, -2.0, 3.25, 0.5, -1.0, 4.0};
    std::vector<double> x{1.0, 2.0, 3.0, 4.0};

    auto makeBinds = [&](std::vector<double> &y) {
        BufferBinding brp;
        brp.base = rowptr.data();
        brp.dtype = DType::I64;
        brp.extent[0] = 5;
        brp.stride[0] = 1;
        BufferBinding bci;
        bci.base = colind.data();
        bci.dtype = DType::I32;
        bci.extent[0] = 6;
        bci.stride[0] = 1;
        BufferBinding bv = bindVec(vals);
        BufferBinding bx = bindVec(x);
        BufferBinding by = bindVec(y);
        return std::vector<BufferBinding>{brp, bci, bv, bx, by};
    };

    Executor ex;
    std::vector<double> ref(4, 0.0), vec(4, 0.0);
    ex.runScalar(fn, makeBinds(ref), {});
    ExecutablePlan plan = lowerPlan(fn);
    ex.run(fn, plan, makeBinds(vec), {});
    EXPECT_TRUE(bitEqual(vec, ref));
}

// ---------------------------------------------------------------------
// In-place addressing (plan.h): contiguous Loads are read where they
// lie and single-use producers write straight into their Store's
// destination, under two hazard rules. Each case below checks the
// plan's flags and matches the oracle bitwise; dropping either rule
// fails at least one of them.
// ---------------------------------------------------------------------

/** A 1-D kernel over buffers of one shape class; `alias[i]` is buffer
 * i's alias class. */
KernelFunction
makeAliasFn(const std::vector<int> &alias)
{
    KernelFunction fn;
    fn.name = "in_place";
    fn.numArgs = int(alias.size());
    fn.buffers.resize(alias.size());
    for (std::size_t i = 0; i < alias.size(); i++) {
        fn.buffers[i].dims = 1;
        fn.buffers[i].shapeClass = 0;
        fn.buffers[i].aliasClass = alias[i];
    }
    return fn;
}

/** `n` contiguous elements of `alloc` from `off`. */
BufferBinding
view1d(std::vector<double> &alloc, coord_t off, coord_t n)
{
    BufferBinding b;
    b.base = alloc.data() + off;
    b.dims = 1;
    b.extent[0] = n;
    b.stride[0] = 1;
    return b;
}

/** A rows x cols view of `alloc` from `off` with the given strides. */
BufferBinding
view2d(std::vector<double> &alloc, coord_t off, coord_t rows,
       coord_t cols, coord_t row_stride, coord_t step)
{
    BufferBinding b;
    b.base = alloc.data() + off;
    b.dims = 2;
    b.extent[0] = rows;
    b.extent[1] = cols;
    b.stride[0] = row_stride;
    b.stride[1] = step;
    return b;
}

using BindFn =
    std::function<std::vector<BufferBinding>(std::vector<double> &)>;

/**
 * Run `fn` on the oracle and at every strip width, each over a fresh
 * copy of `init` viewed through `bind` (views may overlap). The whole
 * allocation must match bitwise.
 */
void
expectAllocMatch(const KernelFunction &fn,
                 const std::vector<double> &init, const BindFn &bind)
{
    Executor ex;
    std::vector<double> want = init;
    ex.runScalar(fn, bind(want), {});
    for (int w : kStrips) {
        std::vector<double> got = init;
        ExecutablePlan plan = lowerPlan(fn, w);
        ex.run(fn, plan, bind(got), {});
        EXPECT_TRUE(bitEqual(got, want)) << "strip width " << w;
    }
}

/** The (first) Load of buffer `buf`. */
const VecInstr &
loadOf(const DensePlan &dp, int buf)
{
    for (const VecInstr &ins : dp.tape) {
        if (ins.op == VecOp::Load &&
            dp.accesses[std::size_t(ins.access)].buf == buf)
            return ins;
    }
    ADD_FAILURE() << "no load of buffer " << buf;
    return dp.tape.front();
}

/** The instruction defining the value stored to buffer `buf`. */
const VecInstr &
producerOf(const DensePlan &dp, int buf)
{
    for (std::size_t j = 0; j < dp.tape.size(); j++) {
        const VecInstr &st = dp.tape[j];
        if (st.op != VecOp::Store ||
            dp.accesses[std::size_t(st.access)].buf != buf)
            continue;
        // Slots are reused: the nearest earlier definition is it.
        for (std::size_t i = j; i-- > 0;) {
            if (dp.tape[i].dst == st.a)
                return dp.tape[i];
        }
    }
    ADD_FAILURE() << "no producer stored to buffer " << buf;
    return dp.tape.front();
}

TEST(InPlace, LoadLiveAcrossStoreToItsBufferIsCopied)
{
    // x = 2x; out = x_old + 1. The load of x is read after the store
    // to x, so it must be copied before the store lands.
    KernelFunction fn = makeAliasFn({0, -1});
    LoopNest nest;
    nest.domainBuf = 0;
    BodyBuilder b(nest.body);
    int x = b.load(0);
    b.store(0, b.binary(Op::Mul, x, b.constant(2.0)));
    b.store(1, b.binary(Op::Add, x, b.constant(1.0)));
    fn.nests.push_back(std::move(nest));

    ExecutablePlan plan = lowerPlan(fn, 256);
    const DensePlan &dp = plan.nests[0].dense;
    EXPECT_FALSE(loadOf(dp, 0).inPlace);
    EXPECT_FALSE(producerOf(dp, 0).inPlace); // its operand loads x
    EXPECT_TRUE(producerOf(dp, 1).inPlace);

    const coord_t n = 515;
    std::vector<double> init(2 * n);
    fill(init, 31);
    expectAllocMatch(fn, init, [&](std::vector<double> &m) {
        return std::vector<BufferBinding>{view1d(m, 0, n),
                                          view1d(m, n, n)};
    });
}

TEST(InPlace, LoadLiveAcrossStoreToAliasedViewIsCopied)
{
    // The same through a second buffer of x's alias class bound to
    // the identical view: the hazard is the alias class, not the id.
    KernelFunction fn = makeAliasFn({0, 0, -1});
    LoopNest nest;
    nest.domainBuf = 0;
    BodyBuilder b(nest.body);
    int x = b.load(0);
    b.store(1, b.binary(Op::Mul, x, b.constant(2.0)));
    b.store(2, b.binary(Op::Add, x, b.constant(1.0)));
    fn.nests.push_back(std::move(nest));

    ExecutablePlan plan = lowerPlan(fn, 256);
    const DensePlan &dp = plan.nests[0].dense;
    EXPECT_FALSE(loadOf(dp, 0).inPlace);
    EXPECT_FALSE(producerOf(dp, 1).inPlace);
    EXPECT_TRUE(producerOf(dp, 2).inPlace);

    const coord_t n = 515;
    std::vector<double> init(2 * n);
    fill(init, 32);
    expectAllocMatch(fn, init, [&](std::vector<double> &m) {
        return std::vector<BufferBinding>{
            view1d(m, 0, n), view1d(m, 0, n), view1d(m, n, n)};
    });
}

TEST(InPlace, ReductionSourceStaysLiveUntilTheFold)
{
    // acc += sum(x_old) while the body stores x = 2x: the fold runs
    // after the whole strip, so its source must not be read in place.
    KernelFunction fn = makeAliasFn({0, -1});
    fn.buffers[1].shapeClass = 1; // the accumulator
    LoopNest nest;
    nest.domainBuf = 0;
    BodyBuilder b(nest.body);
    int x = b.load(0);
    b.store(0, b.binary(Op::Mul, x, b.constant(2.0)));
    Reduction red;
    red.accBuf = 1;
    red.op = ReductionOp::Sum;
    red.srcReg = x;
    nest.reductions.push_back(red);
    fn.nests.push_back(std::move(nest));

    ExecutablePlan plan = lowerPlan(fn, 256);
    EXPECT_FALSE(loadOf(plan.nests[0].dense, 0).inPlace);

    const coord_t n = 515;
    std::vector<double> init(n + 1);
    fill(init, 33);
    init[n] = 0.125;
    expectAllocMatch(fn, init, [&](std::vector<double> &m) {
        return std::vector<BufferBinding>{view1d(m, 0, n),
                                          view1d(m, n, 1)};
    });
}

TEST(InPlace, UpdateOfLoadedBufferKeepsProducerInRegisters)
{
    // x = 2x + y: both loads are dead before the store, so both are
    // read in place; the triad reads x, so it must not write into x
    // (its __restrict loops would overlap).
    KernelFunction fn = makeAliasFn({0, -1});
    LoopNest nest;
    nest.domainBuf = 0;
    BodyBuilder b(nest.body);
    int x = b.load(0);
    int y = b.load(1);
    b.store(0, b.binary(Op::Add, b.binary(Op::Mul, b.constant(2.0), x),
                        y));
    fn.nests.push_back(std::move(nest));

    ExecutablePlan plan = lowerPlan(fn, 256);
    const DensePlan &dp = plan.nests[0].dense;
    EXPECT_TRUE(loadOf(dp, 0).inPlace);
    EXPECT_TRUE(loadOf(dp, 1).inPlace);
    EXPECT_EQ(producerOf(dp, 0).op, VecOp::MulKAdd);
    EXPECT_FALSE(producerOf(dp, 0).inPlace);

    const coord_t n = 515;
    std::vector<double> init(2 * n);
    fill(init, 34);
    expectAllocMatch(fn, init, [&](std::vector<double> &m) {
        return std::vector<BufferBinding>{view1d(m, 0, n),
                                          view1d(m, n, n)};
    });
}

TEST(InPlace, StridedTransposedAndBroadcastOperandsCopy)
{
    // In-place flags on non-contiguous accesses fall back to copies:
    // a transposed A, a broadcast column B, a row-major C, a strided
    // store target S and a row-major store target R.
    const coord_t rows = 7, cols = 37;
    KernelFunction fn;
    fn.name = "in_place_2d";
    fn.numArgs = 5;
    fn.buffers.resize(5);
    for (auto &buf : fn.buffers) {
        buf.dims = 2;
        buf.shapeClass = 0;
    }
    fn.buffers[1].shapeClass = 1; // rows x 1
    LoopNest nest;
    nest.domainBuf = 4;
    BodyBuilder b(nest.body);
    int a = b.load(0);
    int bc = b.load(1);
    int c = b.load(2);
    b.store(3, b.binary(Op::Add, b.binary(Op::Mul, a, bc), c));
    b.store(4, b.binary(Op::Sub, a, b.binary(Op::Mul, bc, c)));
    fn.nests.push_back(std::move(nest));

    ExecutablePlan plan = lowerPlan(fn, 256);
    const DensePlan &dp = plan.nests[0].dense;
    for (int buf : {0, 1, 2})
        EXPECT_TRUE(loadOf(dp, buf).inPlace) << "buffer " << buf;
    EXPECT_TRUE(producerOf(dp, 3).inPlace);
    EXPECT_TRUE(producerOf(dp, 4).inPlace);

    const coord_t area = rows * cols;
    const coord_t off_b = area, off_c = off_b + rows,
                  off_s = off_c + area, off_r = off_s + 2 * area;
    std::vector<double> init(off_r + area);
    fill(init, 35);
    expectAllocMatch(fn, init, [&](std::vector<double> &m) {
        return std::vector<BufferBinding>{
            view2d(m, 0, rows, cols, 1, rows),           // transposed
            view2d(m, off_b, rows, 1, 1, 0),             // broadcast
            view2d(m, off_c, rows, cols, cols, 1),       // row-major
            view2d(m, off_s, rows, cols, 2 * cols, 2),   // strided
            view2d(m, off_r, rows, cols, cols, 1)};      // row-major
    });
}

TEST(InPlace, StencilFusedNestAddressesMemoryDirectly)
{
    // Paper Fig 1's fused ADD/MULT task: all five grid views are read
    // in place and the scaled sum is written straight into its store.
    DiffuseRuntime rt(rt::MachineConfig::withGpus(2), DiffuseOptions{});
    num::Context ctx(rt);
    apps::Stencil st(ctx, 40);
    st.step();
    rt.flushWindow();

    int stencils = 0;
    for (const auto &kernel : rt.context()->memo().kernels()) {
        for (const NestPlan &np : kernel->plan->nests) {
            const DensePlan &dp = np.dense;
            int loads = 0, in_place = 0;
            for (const VecInstr &ins : dp.tape) {
                loads += ins.op == VecOp::Load;
                in_place += ins.op == VecOp::Load && ins.inPlace;
            }
            if (np.kind != NestKind::Dense || loads != 5)
                continue;
            stencils++;
            EXPECT_EQ(in_place, 5);
            // The tape ends with the scaled sum's store (the window
            // may also materialize the unscaled sum before it).
            ASSERT_GE(dp.tape.size(), 2u);
            const VecInstr &store = dp.tape.back();
            const VecInstr &prod = dp.tape[dp.tape.size() - 2];
            ASSERT_EQ(store.op, VecOp::Store);
            EXPECT_EQ(prod.op, VecOp::MulK);
            EXPECT_EQ(prod.dst, store.a);
            EXPECT_TRUE(prod.inPlace);
            EXPECT_EQ(prod.access, store.access);
        }
    }
    // One per memo key the group was planned under (window sizes).
    EXPECT_GE(stencils, 1);
}

TEST(Plan, LoweringHoistsInvariantsAndClassifiesAccesses)
{
    KernelFunction fn = makeEveryOpKernel(1);
    ExecutablePlan plan = lowerPlan(fn, 64);
    ASSERT_EQ(plan.nests.size(), 1u);
    const DensePlan &dp = plan.nests[0].dense;
    // Every Const/LoadScalar is strength-reduced into immediate-form
    // tape ops, so no splats survive and no tape instruction
    // re-dispatches constants or scalars.
    EXPECT_TRUE(dp.invariants.empty());
    bool saw_kform = false;
    for (const VecInstr &ins : dp.tape) {
        EXPECT_NE(ins.op, VecOp::Splat);
        if (ins.op == VecOp::SubK || ins.op == VecOp::MulK ||
            ins.op == VecOp::DivK || ins.op == VecOp::PowK)
            saw_kform = true;
    }
    EXPECT_TRUE(saw_kform);
    // Two loads and one store become access sites.
    ASSERT_EQ(dp.accesses.size(), 3u);
    EXPECT_FALSE(dp.accesses[0].isStore);
    EXPECT_TRUE(dp.accesses[2].isStore);
    EXPECT_EQ(dp.loadBufs.size(), 2u);
    EXPECT_EQ(dp.storeBufs.size(), 1u);
    EXPECT_EQ(plan.stripWidth, 64);
    EXPECT_GT(dp.flopsPerElem, 0.0);
    // Slot reuse keeps the register file far below the SSA count.
    EXPECT_LT(dp.regCount, registerCount(fn.nests[0].body));
}

TEST(Plan, CostMetadataMatchesIrWalk)
{
    KernelFunction fn = makeEveryOpKernel(1);
    std::vector<double> a(64), b(64), out(64);
    std::vector<BufferBinding> binds{bindVec(a), bindVec(b),
                                     bindVec(out)};
    TaskCost ir = profileCost(fn, binds);
    CompiledKernel kernel;
    kernel.fn = fn;
    kernel.plan = std::make_shared<const ExecutablePlan>(lowerPlan(fn));
    TaskCost planned = profileCost(kernel, binds);
    EXPECT_DOUBLE_EQ(planned.bytes, ir.bytes);
    EXPECT_DOUBLE_EQ(planned.wflops, ir.wflops);
    EXPECT_EQ(planned.elements, ir.elements);
}

} // namespace
} // namespace kir
} // namespace diffuse
