/**
 * @file
 * Executable plans: the compile-once, execute-many lowering of kernel
 * IR into strip-mined vector tapes.
 *
 * The scalar interpreter in exec.cc re-dispatches a switch over every
 * Instr for every element — interpreter overhead dwarfs the memory
 * traffic that fusion saves. An ExecutablePlan removes that overhead
 * the way runtime array-fusion VMs do (Bohrium's fused array kernels;
 * the fusion payoff model of Filipovič et al.): each Dense nest body
 * is lowered ONCE into a flat tape of vector instructions that each
 * process a strip of `stripWidth` elements from a preallocated
 * register-vector file, so the dispatch cost is paid per strip, not
 * per element.
 *
 * Addressing is strength-reduced at the same time: each LoadBuf /
 * StoreBuf site becomes an access slot that the executor resolves
 * against concrete bindings once per kernel invocation — classifying
 * it as contiguous (unit inner stride), strided, or broadcast
 * (extent-1) — after which inner loops bump pointers with no
 * per-element address lambda and no per-element broadcast test.
 *
 * Where it is safe, the tape addresses memory directly instead of
 * routing every operand through the register file (the memory passes
 * kernel fusion exists to remove). A Load is *in place* when no Store
 * to a buffer that may alias it runs while its value is live (a
 * reduction source is live until the strip's fold); a contiguous
 * in-place Load only points its slot at memory. A producer is *in
 * place* when its only use is the Store right after it and none of
 * its operands is a load of a buffer that may alias that Store (so
 * the executor's __restrict inner loops stay honest); it writes
 * straight into a contiguous Store destination, and the Store, whose
 * source already sits there, does nothing.
 *
 * Plans are lowered by the JIT compiler right after the optimization
 * pipeline and cached inside kir::CompiledKernel, so the memoizer's
 * group cache (paper §5.2) amortizes plan construction exactly like
 * fusion analysis: a memo hit skips codegen *and* plan lowering.
 */

#ifndef DIFFUSE_KERNEL_PLAN_H
#define DIFFUSE_KERNEL_PLAN_H

#include <cstdint>
#include <utility>
#include <vector>

#include "kernel/ir.h"

namespace diffuse {
namespace kir {

/**
 * How a buffer access site walks memory along the innermost loop.
 * Classified once per kernel invocation, never per element.
 */
enum class AccessKind : std::uint8_t {
    Contiguous, ///< unit inner stride: pointer-bumping fast path
    Strided,    ///< constant non-unit inner stride
    Broadcast,  ///< extent-1 along the inner dimension (scalar splat)
};

/** One LoadBuf/StoreBuf site of a dense nest body. */
struct AccessSite
{
    std::int32_t buf = -1;
    bool isStore = false;
};

/**
 * The tape ISA. A superset of the scalar Op set: besides the
 * one-to-one mirrors, lowering strength-reduces
 *  - binops with a loop-invariant operand (Const/LoadScalar) into
 *    immediate forms (AddK, MulK, RsubK = k-x, ...), which read one
 *    register vector instead of two and need no splat; and
 *  - single-use multiplies feeding an add/sub into fused triads
 *    (MulAdd = a*b+c etc.), eliminating the intermediate vector.
 * Every variant performs the same IEEE operations in the same order
 * as the scalar oracle (fused triads keep BOTH rounding steps — they
 * fuse register traffic, not arithmetic), so results stay
 * bit-identical.
 */
enum class VecOp : std::uint8_t {
    Load,    ///< dst = access[k]
    Store,   ///< access[k] = a
    Splat,   ///< invariant prefix only: dst = broadcast(imm | scalar)
    Copy,
    Add, Sub, Mul, Div, Max, Min, Pow,
    Neg, Sqrt, Exp, Log, Erf, Abs,
    CmpLt, CmpGt, Select,
    // Immediate forms; k = imm or scalars[scalar].
    AddK,    ///< dst = a + k
    SubK,    ///< dst = a - k
    RsubK,   ///< dst = k - a
    MulK,    ///< dst = a * k
    DivK,    ///< dst = a / k
    RdivK,   ///< dst = k / a
    MaxK,    ///< dst = max(a, k)
    MinK,    ///< dst = min(a, k)
    PowK,    ///< dst = a ** k
    CmpLtK,  ///< dst = a < k ? 1 : 0
    CmpGtK,  ///< dst = a > k ? 1 : 0
    // Fused multiply-accumulate triads (two rounding steps each).
    MulAdd,  ///< dst = (a * b) + c
    AddMul,  ///< dst = c + (a * b)
    MulSub,  ///< dst = (a * b) - c
    SubMul,  ///< dst = c - (a * b)
    MulAddK, ///< dst = (a * b) + k
    MulSubK, ///< dst = (a * b) - k
    MulRsubK,///< dst = k - (a * b)
    // Scale-accumulate: the product has an immediate factor. k is the
    // first immediate; k2 (imm2/scalar2) the second where present.
    MulKAdd, ///< dst = (a * k) + c
    AddMulK, ///< dst = c + (a * k)
    MulKSub, ///< dst = (a * k) - c
    SubMulK, ///< dst = c - (a * k)
    MulKAddK,///< dst = (a * k) + k2
    MulKSubK,///< dst = (a * k) - k2
    MulKRsubK,///< dst = k2 - (a * k)
};

/**
 * A tape instruction: three-address over register-file slots, with
 * Load/Store referencing a pre-classified access slot instead of
 * recomputing addressing per element.
 */
struct VecInstr
{
    VecOp op = VecOp::Copy;
    std::int32_t dst = -1;
    std::int32_t a = -1;
    std::int32_t b = -1;
    std::int32_t c = -1;
    std::int32_t access = -1; ///< access slot for Load/Store
    std::int32_t scalar = -1; ///< scalar index for Splat / K-forms
    double imm = 0.0;         ///< immediate for Splat / K-forms
    std::int32_t scalar2 = -1; ///< second scalar index (MulK*K forms)
    double imm2 = 0.0;         ///< second immediate (MulK*K forms)
    /**
     * In-place addressing, decided at plan time (see markInPlace):
     *  - Load: no aliasing Store runs while the value is live, so a
     *    contiguous access is read where it lies instead of copied.
     *  - Producer: its only use is the Store right after it and no
     *    operand is a load of a buffer that may alias that Store, so
     *    it writes straight into the Store's contiguous destination;
     *    `access` then names that Store's access slot.
     * Strided and broadcast accesses ignore the flag and copy.
     */
    bool inPlace = false;
};

/** Strip-mined lowering of one Dense nest body. */
struct DensePlan
{
    /**
     * Loop-invariant prefix (Const, LoadScalar): splatted into the
     * register-vector file once per kernel invocation (per worker),
     * never re-executed per strip.
     */
    std::vector<VecInstr> invariants;
    /** Per-strip tape, in program order. */
    std::vector<VecInstr> tape;
    /** Access sites referenced by the tape. */
    std::vector<AccessSite> accesses;
    /** Reductions carried by the nest (register file indices). */
    std::vector<Reduction> reductions;
    /**
     * Pairs (store site, other site) on distinct buffers that may
     * alias (same non-negative alias class). The executor checks the
     * resolved views once per invocation: identical views are
     * same-index accesses and stay on the vector path; genuinely
     * shifted views fall back to the scalar oracle for that nest so
     * element-interleaved semantics are preserved bit-exactly.
     */
    std::vector<std::pair<std::int32_t, std::int32_t>> aliasHazards;
    int regCount = 0;

    // ---- Cost metadata (profileCost reads this instead of re-walking
    // the IR for every point of every submit) ----------------------------
    double flopsPerElem = 0.0;
    std::vector<int> loadBufs;  ///< distinct buffers loaded
    std::vector<int> storeBufs; ///< distinct buffers stored
};

/** Plan for one loop nest; parallels KernelFunction::nests. */
struct NestPlan
{
    NestKind kind = NestKind::Dense;
    int domainBuf = -1;
    DensePlan dense; ///< valid when kind == Dense
    /**
     * Gemv/Csr: rows may shard across workers (the output vector does
     * not alias any input buffer).
     */
    bool rowParallel = false;
};

/**
 * The compile-once artifact: one NestPlan per loop nest plus the strip
 * width the tape was lowered for. Cached in CompiledKernel and shared
 * by every instantiation of a memoized group.
 */
struct ExecutablePlan
{
    std::vector<NestPlan> nests;
    int stripWidth = 256;
    /** Max register count over nests: sizes the vector register file. */
    int maxRegCount = 0;
};

/**
 * Strip width used when none is given: DIFFUSE_STRIP from the
 * environment (clamped to [1, 65536]) or 256. ~256 doubles keeps a
 * register vector inside one 2 KiB stretch of L1 while amortizing the
 * per-strip dispatch to negligible cost.
 */
int defaultStripWidth();

/**
 * Lower an optimized kernel function into an executable plan.
 * Pure function of the IR; bindings are resolved at execution time.
 *
 * @param strip_width Elements per strip; <= 0 selects
 *        defaultStripWidth(). Results are bit-identical for every
 *        width (reductions fold in element order).
 */
ExecutablePlan lowerPlan(const KernelFunction &fn, int strip_width = 0);

} // namespace kir
} // namespace diffuse

#endif // DIFFUSE_KERNEL_PLAN_H
