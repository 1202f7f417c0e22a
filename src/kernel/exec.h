/**
 * @file
 * Kernel execution and cost profiling.
 *
 * Two execution engines share this file:
 *
 *  - The **vector executor** (the default): executes an
 *    ExecutablePlan — the strip-mined tape lowered once per compiled
 *    kernel (see plan.h). A PointContext resolves the plan's access
 *    sites against concrete bindings once per invocation (classifying
 *    each as contiguous / strided / broadcast), allocates task-local
 *    temporaries from a reusable arena, and the executor then runs
 *    pointer-bumping inner loops over strips of N elements held in a
 *    register-vector file. Operands the plan marks in place skip the
 *    file: a contiguous in-place Load is read where it lies, and an
 *    in-place producer writes straight into the contiguous
 *    destination of the Store after it (plan.h states the rules).
 *    Reductions fold lanes in element order, so results are
 *    bit-identical to the scalar oracle at every strip width.
 *
 *  - The **scalar interpreter** (the oracle): the original
 *    element-at-a-time switch interpreter, retained verbatim behind
 *    DIFFUSE_SCALAR_EXEC=1 for differential testing and as the
 *    fallback for nest instances whose resolved views genuinely
 *    overlap at shifted indices (element-interleaved semantics).
 *
 * A binding is a strided view of a physical allocation — the moral
 * equivalent of the memrefs the paper's MLIR kernels receive. In Real
 * execution mode bindings carry live pointers; in Simulated mode they
 * carry extents only and just the cost profile is evaluated.
 *
 * Broadcasting: a binding whose extent along a dimension is 1 always
 * contributes index 0 along that dimension, which is how scalar stores
 * (shape (1,)) participate in dense element-wise bodies.
 */

#ifndef DIFFUSE_KERNEL_EXEC_H
#define DIFFUSE_KERNEL_EXEC_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <thread>
#include <utility>
#include <vector>

#include "common/geometry.h"
#include "common/types.h"
#include "kernel/ir.h"
#include "kernel/plan.h"

namespace diffuse {
namespace kir {

struct CompiledKernel;
class JitModule;

/** A strided view of a physical allocation bound to a kernel buffer. */
struct BufferBinding
{
    void *base = nullptr; ///< pointer to the view origin; null in sim mode
    DType dtype = DType::F64;
    int dims = 1;
    coord_t extent[2] = {1, 1};  ///< view extents
    coord_t stride[2] = {0, 0};  ///< strides in elements of the parent
    /** Element count for irregular (CSR nnz) views; <0 when dense. */
    coord_t irregular = -1;

    coord_t
    volume() const
    {
        coord_t v = 1;
        for (int i = 0; i < dims; i++)
            v *= extent[i];
        return v;
    }
};

/** Aggregate cost of executing one point task. */
struct TaskCost
{
    double bytes = 0.0;  ///< HBM traffic in bytes
    double wflops = 0.0; ///< weighted floating-point operations
    coord_t elements = 0;

    TaskCost &
    operator+=(const TaskCost &o)
    {
        bytes += o.bytes;
        wflops += o.wflops;
        elements += o.elements;
        return *this;
    }
};

/**
 * Compute the cost profile of running `fn` over the given bindings.
 * Pure function of the IR and view extents; used identically in Real
 * and Simulated modes so the two agree.
 */
TaskCost profileCost(const KernelFunction &fn,
                     std::span<const BufferBinding> bindings);

/**
 * Plan-metadata variant: identical result, but reads the per-nest
 * flop/traffic summaries recorded at plan-lowering time instead of
 * re-walking the IR for every point of every submission.
 */
TaskCost profileCost(const CompiledKernel &kernel,
                     std::span<const BufferBinding> bindings);

/** An access site resolved against a concrete binding. */
struct ResolvedAccess
{
    double *base = nullptr; ///< view origin
    coord_t rowStride = 0;  ///< elements advanced per outer row
    coord_t step = 0;       ///< elements advanced per inner element
    AccessKind kind = AccessKind::Broadcast;
};

/** One nest of a plan resolved against a point's bindings. */
struct ResolvedNest
{
    coord_t outer = 1;        ///< rows (1 for 1-D domains)
    coord_t inner = 0;        ///< contiguous inner run length
    coord_t stripsPerRow = 0;
    coord_t strips = 0;       ///< outer * stripsPerRow
    coord_t rows = 0;         ///< Gemv/Csr row count (sharding)
    /**
     * This nest instance must run on the scalar oracle: a store site
     * resolved to a genuinely shifted aliasing view or to a broadcast
     * (extent-1) target with more than one iteration.
     */
    bool scalarFallback = false;
    /**
     * Strips of this instance may run concurrently (no fallback; for
     * Gemv/Csr, rows may shard when the plan says rowParallel).
     */
    bool stripParallel = false;
    std::vector<ResolvedAccess> accesses;
};

/**
 * Per-point execution state shared by every worker sharding one
 * point's strips: the full binding table (external args + arena-backed
 * locals) and the plan's nests resolved against it. Reusable —
 * bind() recycles the local-temporary arena across invocations, so
 * steady-state execution performs no heap allocation.
 */
class PointContext
{
  public:
    /**
     * Resolve `plan` against external bindings. Allocates live local
     * buffers from the internal arena (grown monotonically, reused
     * across calls) and classifies every access site. `jit`, when
     * non-null, supplies natively compiled per-nest entry points
     * (src/kernel/codegen.h) that the executor dispatches in place of
     * the tape interpreter — bitwise-identical by construction.
     */
    void bind(const KernelFunction &fn, const ExecutablePlan &plan,
              std::span<const BufferBinding> bindings,
              std::span<const double> scalars,
              const JitModule *jit = nullptr);

    const ResolvedNest &nest(int i) const
    {
        return nests_[std::size_t(i)];
    }
    int nestCount() const { return int(nests_.size()); }

  private:
    friend class Executor;

    const KernelFunction *fn_ = nullptr;
    const ExecutablePlan *plan_ = nullptr;
    const JitModule *jit_ = nullptr;
    std::span<const double> scalars_;
    std::vector<BufferBinding> all_;
    std::vector<double> arena_; ///< local-temporary storage, reused
    std::vector<ResolvedNest> nests_;
};

/**
 * Executes kernel functions. One instance per worker thread: holds
 * the (scalar and vector) register files and scratch state, which are
 * not thread-safe; PointContexts may be shared across executors.
 */
class Executor
{
  public:
    /**
     * Execute `fn` over `bindings` with the given scalar arguments.
     * Bindings must cover the external arguments; live local buffers
     * are allocated internally. Reduction accumulators are combined
     * into their bound memory with the reduction operator.
     *
     * Runs the vector engine by lowering an ad-hoc plan (or the
     * scalar oracle under DIFFUSE_SCALAR_EXEC=1). Callers on the hot
     * path pass the kernel's cached plan instead.
     */
    void run(const KernelFunction &fn,
             std::span<const BufferBinding> bindings,
             std::span<const double> scalars);

    /** Execute a pre-lowered plan (the compile-once fast path).
     * `jit`: optional natively compiled module for the plan. */
    void run(const KernelFunction &fn, const ExecutablePlan &plan,
             std::span<const BufferBinding> bindings,
             std::span<const double> scalars,
             const JitModule *jit = nullptr);

    /** The element-at-a-time reference interpreter (the oracle). */
    void runScalar(const KernelFunction &fn,
                   std::span<const BufferBinding> bindings,
                   std::span<const double> scalars);

    // ---- Sharded execution pieces (used by the runtime's worker
    // pool; see LowRuntime::executeRetired) --------------------------

    /**
     * Execute one whole nest of a bound context: vector engine with
     * scalar fallback; reductions fold in element order and combine
     * into the bound accumulator.
     */
    void runNest(PointContext &ctx, int nest);

    /**
     * Execute strips [strip0, strip1) of a reduction-free Dense nest.
     * `epoch` identifies the dispatch: the first call of an epoch
     * splats the nest's loop invariants into this executor's register
     * file (invariants are identical across the points of a task, so
     * one splat serves every point).
     */
    void runStrips(PointContext &ctx, int nest, coord_t strip0,
                   coord_t strip1, std::uint64_t epoch);

    /** Execute rows [row0, row1) of a Gemv nest. */
    void runGemvRows(PointContext &ctx, int nest, coord_t row0,
                     coord_t row1);

    /** Execute rows [row0, row1) of a Csr nest. */
    void runCsrRows(PointContext &ctx, int nest, coord_t row0,
                    coord_t row1);

    /**
     * True when DIFFUSE_SCALAR_EXEC=1: the runtime executes every
     * kernel on the scalar oracle (differential-testing toggle).
     * Re-read from the environment on every call so benchmarks can
     * flip it between phases.
     */
    static bool scalarForced();

  private:
    void ensureVecRegs(const ExecutablePlan &plan);
    void splatInvariants(const DensePlan &dp, int width,
                         std::span<const double> scalars);
    void execStrip(const DensePlan &dp, const ResolvedNest &rn,
                   coord_t strip, int width,
                   std::span<const double> scalars, double *partials);

    void runDense(const KernelFunction &fn, const LoopNest &nest,
                  std::span<const BufferBinding> bindings,
                  std::span<const double> scalars);
    void runGemv(const LoopNest &nest,
                 std::span<const BufferBinding> bindings,
                 coord_t row0, coord_t row1);
    void runCsr(const LoopNest &nest,
                std::span<const BufferBinding> bindings, coord_t row0,
                coord_t row1);

    /** Bindings table extended with arena-backed local allocations. */
    std::vector<BufferBinding> all_;
    std::vector<double> scalarArena_; ///< scalar-path locals, reused
    std::vector<double> regs_;        ///< scalar register file
    std::vector<double> vregs_;       ///< vector register file
    /** Per-slot strip pointer: a register vector or, for in-place
     * Loads and producers, memory (one strip at a time). */
    std::vector<const double *> slotPtrs_;
    std::vector<double> partials_;    ///< reduction scratch
    std::uint64_t invariantEpoch_ = 0;
    PointContext ownCtx_; ///< context for the sequential run() API
};

/**
 * Work-stealing task scheduler sharding the strip/row ranges of
 * retired index tasks. A `parallelFor`/`parallelForChunked` call
 * submits one *job* — a range [0, n) cut into chunk-granular work
 * items — and the calling thread immediately participates as the
 * job's slot 0. Up to `workers() - 1` helper threads are spawned
 * **lazily** on the first job that can use them (a pool that never
 * runs parallel work never spawns a thread) and parked on a
 * condition variable between jobs.
 *
 * Each job keeps one deque of spans per worker slot: a worker pops
 * its own deque LIFO (splitting one chunk off the front of a span
 * and pushing the remainder back, so the tail stays stealable) and,
 * when its deque runs dry, steals FIFO from the other slots of the
 * job. Load balance is dynamic, so any determinism requirement must
 * be met by indexing results by item (not by worker), as the
 * runtime's reduction merge does.
 *
 * One pool may be shared by several runtime sessions (see
 * core/context.h). Unlike the historical one-job-at-a-time pool —
 * whose busy-pool `try_lock` fallback silently ran a whole job
 * serially — concurrent jobs coexist: every job is registered with
 * the scheduler, and idle helpers lease a free worker slot on *any*
 * active job, so N sessions' point-task shards interleave instead of
 * queueing. `reserve()` raises the thread target to the largest
 * session request, and each job caps its dense worker-slot ids at
 * the caller's `max_workers` — so a workers=1 session sharing an
 * 8-thread pool still executes exactly like an isolated workers=1
 * runtime, and per-session scratch arrays sized for `max_workers`
 * slots are never indexed beyond it.
 */
class WorkerPool
{
  public:
    /** `workers` <= 0 selects defaultWorkers(). No threads spawn
     * until the first parallel job needs them. */
    explicit WorkerPool(int workers = 0);
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /** Target worker count, including the calling thread. */
    int workers() const
    {
        return target_.load(std::memory_order_relaxed);
    }

    /** Raise the thread target (shared pools: sessions requesting
     * more workers grow the one pool instead of spawning their own).
     * Never shrinks. */
    void reserve(int workers);

    /** Helper threads actually spawned so far (lazy-start tests). */
    int threadsSpawned() const;

    /** Process-wide gauge of live pool helper threads (tests: N
     * sessions sharing one pool spawn at most one pool's worth). */
    static int liveThreads();

    /**
     * Run `fn(worker, item)` for every item in [0, n), distributing
     * items across workers; blocks until all items complete. `worker`
     * is a dense id in [0, min(max_workers, workers())) usable to
     * index scratch state. Must not be called re-entrantly from
     * inside a job.
     */
    void parallelFor(coord_t n,
                     const std::function<void(int, coord_t)> &fn);
    void parallelFor(coord_t n, int max_workers,
                     const std::function<void(int, coord_t)> &fn);

    /**
     * Run `fn(worker, begin, end)` over [0, n) in chunks of `chunk`
     * items claimed dynamically; blocks until all chunks complete.
     * This is how workers split strip ranges: claiming ranges instead
     * of single items keeps the claim counter off the hot path.
     */
    void
    parallelForChunked(coord_t n, coord_t chunk,
                       const std::function<void(int, coord_t, coord_t)> &fn);
    void
    parallelForChunked(coord_t n, coord_t chunk, int max_workers,
                       const std::function<void(int, coord_t, coord_t)> &fn);

    /**
     * Worker count from the environment: DIFFUSE_WORKERS when set (>=
     * 1), else 1 — parallel execution is opt-in so that default runs
     * match the reference semantics exactly.
     */
    static int defaultWorkers();

    /** Spans stolen across worker slots so far (tests: steal-heavy
     * configurations must actually steal). */
    std::uint64_t steals() const
    {
        return steals_.load(std::memory_order_relaxed);
    }

  private:
    /**
     * One submitted parallel job. Spans of un-started items live in
     * per-slot deques; `freeSlots` leases the dense helper slot ids
     * (the caller permanently owns slot 0), `itemsDone` drives
     * completion, and the first exception cancels the remainder —
     * cancelled spans are credited without executing, so accounting
     * always converges and the error is rethrown on the submitting
     * thread.
     */
    struct Job
    {
        const std::function<void(int, coord_t, coord_t)> *fn = nullptr;
        coord_t numItems = 0;
        coord_t chunk = 1;
        int slotLimit = 1;
        /** Items split off into executing chunks so far (gate for the
         * helper scan: nothing left to claim once == numItems). */
        std::atomic<coord_t> itemsTaken{0};

        /** Guards the fields below. Lock order: pool mutex_ before
         * any Job::m; never the reverse. */
        std::mutex m;
        std::condition_variable cv;
        std::vector<int> freeSlots; ///< leasable helper slots (1..)
        coord_t itemsDone = 0;
        std::exception_ptr error;
        bool cancelled = false;
        bool done = false;

        /** Per-slot span deques (owner pops back, thieves steal
         * front). Sized to slotLimit at submission. */
        struct SlotDeque
        {
            std::mutex m;
            std::deque<std::pair<coord_t, coord_t>> q;
        };
        std::vector<SlotDeque> deques;
    };

    void workerLoop();
    /** Execute (or credit, once cancelled) chunks of `job` as slot
     * `slot` until neither the own deque nor a steal yields a span. */
    void runStint(const std::shared_ptr<Job> &job, int slot);
    /** Pop the next span: own deque back first, then steal round-robin
     * from the other slots' fronts. Returns false when the job has no
     * unclaimed span left. */
    bool nextSpan(Job &job, int slot, coord_t &begin, coord_t &end);
    /** Submit a job to the scheduler and run the caller's stint. */
    void runJob(coord_t n, coord_t chunk, int cap,
                const std::function<void(int, coord_t, coord_t)> &fn);
    /** Spawn helper threads up to min(target, job cap) (mutex_
     * held). */
    void ensureSpawnedLocked(int cap);

    std::vector<std::thread> threads_;
    mutable std::mutex mutex_;
    std::condition_variable start_;
    /** Jobs with potentially claimable work (registration order).
     * Guarded by mutex_. */
    std::vector<std::shared_ptr<Job>> activeJobs_;
    /** Bumped (under mutex_) whenever claimable work may have
     * appeared; parked helpers wait for it to move. */
    std::uint64_t signal_ = 0;
    /** Thread target (callers may reserve() it upward at any time). */
    std::atomic<int> target_{1};
    std::atomic<std::uint64_t> steals_{0};
    bool stop_ = false;
};

/**
 * One batch member's share of a combined job: `items` work items,
 * each executed by `run(slot, item)` on a leased worker slot. The
 * member owns everything the closure touches (bindings scratch,
 * executors, reduction partials); the coalescer only schedules.
 */
struct BatchWork
{
    coord_t items = 1;
    std::function<void(int slot, coord_t item)> run;
};

/**
 * Horizontal cross-session batching of identical trace-replay work
 * (DIFFUSE_BATCH): when several sessions concurrently replay the same
 * trace epoch, the point tasks they retire at the same epoch position
 * are gathered — behind a short window (DIFFUSE_BATCH_WINDOW_US) —
 * into *one* work-stealing job with per-session buffer bindings, so
 * job setup and pool hand-off are paid once per batch instead of once
 * per session.
 *
 * Sessions announce()/retract() active replays of an epoch; a member
 * only waits when another session is replaying the same epoch
 * (shouldGather), so solo sessions never see added latency. The first
 * member of a (epoch, submission index) key becomes the group leader:
 * it waits until every announced session arrived or the window
 * expires, then flattens the members' items into one pool job.
 * Exceptions are captured *per member* — one member's kernel fault
 * skips only that member's remaining items; every other member's work
 * completes and each member rethrows only its own error on its own
 * thread, so failure domains stay session-scoped (runtime/runtime.cc
 * poisons only the faulting session's stores and cancels only its
 * hazard edges).
 *
 * Correctness leans on the planning fingerprint: members of one key
 * replay the same immutable TraceEpoch, so their tasks agree on
 * kernel, plan, point count, parallel safety and worker cap — only
 * buffers and scalar values differ, and those live entirely inside
 * each member's closure.
 */
class BatchCoalescer
{
  public:
    /** Occupancy and amortization counters (tests, bench). */
    struct Stats
    {
        std::uint64_t batches = 0;        ///< combined jobs run
        std::uint64_t batchedTasks = 0;   ///< member tasks across them
        std::uint64_t maxOccupancy = 0;   ///< largest member count
        std::uint64_t closedByCount = 0;  ///< closed early, all arrived
        std::uint64_t timeouts = 0;       ///< closed by window expiry
        /** Pool hand-offs amortized away: (members - 1) per batch. */
        std::uint64_t handoffsSaved = 0;
    };

    /** `window_us` < 0 reads DIFFUSE_BATCH_WINDOW_US (default 200). */
    explicit BatchCoalescer(std::shared_ptr<WorkerPool> pool,
                            int window_us = -1);

    /** A session began replaying `epoch` (retirements incoming). */
    void announce(std::uint64_t epoch, std::uint64_t session);

    /** The session's replay of `epoch` fully retired (or died). */
    void retract(std::uint64_t epoch, std::uint64_t session);

    /** Would a member of `epoch` have company right now? False keeps
     * solo sessions on the unbatched fast path with zero waiting. */
    bool shouldGather(std::uint64_t epoch) const;

    /**
     * The session ran submission `index` of `epoch` outside the
     * coalescer (it was alone when it checked). Advances the session's
     * progress watermark so open groups at or below `index` stop
     * expecting it — a session that raced ahead unbatched must never
     * cost a waiting sibling the full window.
     */
    void passBy(std::uint64_t epoch, std::int32_t index,
                std::uint64_t session);

    /**
     * Join the gather group for submission `index` of `epoch`, wait
     * for it to close (every announced session that can still reach
     * `index` — progress watermark <= index — arrived, or the window
     * expired), run the combined job, and return this member's error
     * (nullptr on success). Blocks until this member's items ran or
     * were skipped by its own failure. `max_workers` caps the job's
     * worker slots; identical across members of a key by construction.
     */
    std::exception_ptr joinAndRun(std::uint64_t epoch,
                                  std::int32_t index,
                                  std::uint64_t session,
                                  int max_workers, BatchWork work);

    Stats stats() const;

    /** Distinct sessions currently replaying `epoch` (tests). */
    std::size_t activeReplayers(std::uint64_t epoch) const;

  private:
    struct Member
    {
        BatchWork work;
        /** Owning session: the leader advances members' progress
         * watermarks past the group's index once the job ran. */
        std::uint64_t session = 0;
        /** First exception this member's items raised. Written by the
         * winning worker (failed_ exchange), read by the member thread
         * after the job's completion handshake. */
        std::exception_ptr error;
        /** Latched by the first failing item; later items of this
         * member are credited without running. */
        std::atomic<bool> failed{false};
    };

    struct Group
    {
        /** Frozen once `closed` (arrivals then start a new group). */
        std::vector<Member *> members;
        int cap = 1;
        bool closed = false;
        bool executed = false;
        std::condition_variable cv;
    };

    using Key = std::pair<std::uint64_t, std::int32_t>;

    struct Replayer
    {
        /** Active replay passes (pipelining can overlap two). */
        int instances = 0;
        /** Next submission index this session could still arrive at:
         * 0 on announce, `index` while arriving/grouped at `index`,
         * `index + 1` once it ran past it. Approximate under
         * overlapped passes — the window timeout is the backstop. */
        std::int32_t watermark = 0;
    };

    /** Flatten the (frozen) group's items into one pool job. Called
     * by the leader with no lock held. */
    void runCombined(const std::vector<Member *> &members, int cap);

    /** Announced sessions whose watermark says they can still reach
     * `index` of `epoch` (lock held). */
    std::size_t expectedAt(std::uint64_t epoch,
                           std::int32_t index) const;

    /** A watermark or the census moved: close any open group of
     * `epoch` that now holds everyone it can still expect
     * (lock held). */
    void reapSatisfiedGroups(std::uint64_t epoch);

    std::shared_ptr<WorkerPool> pool_;
    int windowUs_ = 0;
    /** One mutex guards groups, replayer counts and stats: groups are
     * few and short-lived, and every hand-off (member publication,
     * leader collection, wake-ups) rides its happens-before edges. */
    mutable std::mutex mutex_;
    std::map<Key, std::shared_ptr<Group>> open_;
    /** epoch -> (session -> census entry). */
    std::unordered_map<std::uint64_t,
                       std::unordered_map<std::uint64_t, Replayer>>
        replayers_;
    Stats stats_;
};

} // namespace kir
} // namespace diffuse

#endif // DIFFUSE_KERNEL_EXEC_H
