/**
 * @file
 * legion-mini: the low-level task runtime Diffuse targets.
 *
 * This layer plays Legion's role (paper §3.2: "the dynamic semantics of
 * Diffuse's IR are defined by a translation to an underlying task-based
 * runtime system"). Unlike Diffuse's scale-free IR, this layer is
 * deliberately *scale-aware*: launched tasks carry one explicit piece
 * (rectangle) per launch-domain point — the "lower-level, unstructured
 * partitions" the paper describes — and coherence/communication are
 * computed by intersecting those pieces.
 *
 * Execution is asynchronous: submit() enqueues a task into a
 * dependency-tracked TaskStream (RAW/WAR/WAW hazards derived from
 * privileges and piece intersections) and returns an EventId
 * immediately. Tasks retire out of submission order when dependencies
 * allow; wait()/fence() force retirement, and host-side accessors
 * (readScalarValue, dataF64/I32/I64) fence the affected store
 * implicitly. In Real mode retired point tasks run against host
 * allocations on the vectorized kernel executor (strip-mined tapes
 * from the kernel's cached ExecutablePlan); with multiple workers the
 * WorkerPool splits strip ranges — not raw points — with a
 * deterministic reduction merge, so numerics are bit-identical for
 * any worker count (DIFFUSE_SCALAR_EXEC=1 selects the scalar oracle
 * instead). With DIFFUSE_RANKS > 1 execution is sharded across
 * distributed-memory ranks: stores live in per-rank shard buffers and
 * explicit, hazard-tracked Copy tasks move exactly the rectangles a
 * task needs (see runtime/shard.h) — results stay bit-identical to
 * ranks=1. In Simulated mode only the cost model advances. Both modes account
 * identical simulated time: the critical path through the task graph
 * on per-processor timelines, not the serialized sum of task
 * latencies.
 */

#ifndef DIFFUSE_RUNTIME_RUNTIME_H
#define DIFFUSE_RUNTIME_RUNTIME_H

#include <cstddef>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/error.h"
#include "common/geometry.h"
#include "common/types.h"
#include "kernel/compiler.h"
#include "kernel/exec.h"
#include "runtime/fault.h"
#include "runtime/machine.h"
#include "runtime/shard.h"
#include "runtime/task_stream.h"

namespace diffuse {
namespace rt {

/** Counters accumulated by the runtime. */
struct RuntimeStats
{
    /**
     * Simulated seconds: critical path of the overlap-aware schedule
     * (the makespan; independent tasks overlap on distinct
     * processors, and dependence analysis overlaps with execution).
     */
    double simTime = 0.0;
    /**
     * Aggregate busy seconds summed over all processor timelines —
     * the no-overlap upper bound. busyTime / simTime measures the
     * parallelism the asynchronous pipeline exposed.
     */
    double busyTime = 0.0;
    double computeTime = 0.0;    ///< kernel-execution component
    double commTime = 0.0;       ///< point-to-point communication
    double collectiveTime = 0.0; ///< reductions/broadcast trees
    double overheadTime = 0.0;   ///< runtime analysis + launch overhead
    std::uint64_t indexTasks = 0;
    std::uint64_t pointTasks = 0;
    /** Retired tasks whose point loop sharded across the pool. */
    std::uint64_t tasksSharded = 0;
    double bytesHbm = 0.0;
    double bytesIntraNode = 0.0;
    double bytesInterNode = 0.0;
    std::uint64_t collectives = 0;
    /** Stores that actually materialized an allocation (lazy). */
    std::uint64_t storesMaterialized = 0;
    double bytesMaterialized = 0.0;
    /**
     * Measured exchange volume (ranks > 1): bytes moved by charged
     * Copy tasks — rank-to-rank pulls and gathers into the canonical
     * copy. Exactly 0 when ranks == 1 (no exchanges exist).
     */
    double exchangeBytes = 0.0;
    /** Copy tasks submitted to the stream (including free pulls). */
    std::uint64_t copyTasks = 0;

    void reset() { *this = RuntimeStats(); }
};

/**
 * Counters of the failure machinery. Deliberately separate from
 * RuntimeStats: these are diagnostics of fault handling, not of the
 * simulated execution, so parity invariants over RuntimeStats (trace
 * on/off, replay vs. analyzed) hold even under ambient injection.
 */
struct FaultStats
{
    /** Transient exchange faults absorbed by the retry loop. */
    std::uint64_t exchangeRetries = 0;
    /** Tasks degraded to the scalar interpreter (compile faults). */
    std::uint64_t scalarFallbacks = 0;
    /** Stores poisoned by failed or cancelled tasks. */
    std::uint64_t storesPoisoned = 0;
    /** Recycled buffers dropped under DIFFUSE_MEM_BUDGET pressure. */
    std::uint64_t budgetEvictions = 0;
};

/**
 * Submission-side stat increments attributed to one recorded stream
 * submission: everything `LowRuntime::submit`/`submitCopy` adds to
 * RuntimeStats and ShardStats *except* the schedule clocks
 * (simTime/busyTime), which replay recomputes exactly through the
 * stream, and the execution-side counters (storesMaterialized,
 * tasksSharded), which accrue at retirement either way.
 */
struct SubmitStatsDelta
{
    double bytesHbm = 0.0;
    double commTime = 0.0;
    double computeTime = 0.0;
    double overheadTime = 0.0;
    double collectiveTime = 0.0;
    double bytesIntraNode = 0.0;
    double bytesInterNode = 0.0;
    double exchangeBytes = 0.0;
    std::uint64_t collectives = 0;
    std::uint64_t copyTasks = 0;
    std::uint64_t indexTasks = 0;
    std::uint64_t pointTasks = 0;
    std::uint64_t shardCopies = 0;
    std::uint64_t shardGathers = 0;
    std::uint64_t shardHostPulls = 0;
};

/**
 * One stream submission captured for trace replay: the fully lowered
 * task (pieces expanded, shard bindings and parallel-safety decided),
 * its cost model, its hazard edges as indices into the epoch's
 * submission sequence, and its stat increments. Store ids inside
 * `task` (and `task.copy`) are canonicalized to *epoch slot indices*
 * by the capturing layer; `submitRecorded` rebinds them against the
 * replay window's concrete stores.
 */
struct RecordedSubmission
{
    LaunchedTask task;
    TaskTiming timing;
    /** Hazard edges: positions in the epoch's submission order. */
    std::vector<std::uint32_t> deps;
    std::uint32_t rawDeps = 0;
    std::uint32_t warDeps = 0;
    std::uint32_t wawDeps = 0;
    SubmitStatsDelta stats;
};

/** Counters of a BufferPool: one consistent snapshot. */
struct BufferPoolStats
{
    /** Allocations served by a pooled buffer of their size class. */
    std::uint64_t hits = 0;
    /** Allocations that found no pooled buffer and allocated fresh. */
    std::uint64_t misses = 0;
    /** Pooled buffers freed: by the high-water bound or under
     * DIFFUSE_MEM_BUDGET pressure. */
    std::uint64_t evictions = 0;
    /** Bytes held by pooled (free, recyclable) buffers. */
    std::size_t pooledBytes = 0;
    /** Bytes held by live store allocations (class capacity). */
    std::size_t liveBytes = 0;
    /** Peak of liveBytes; pooledBytes never exceeds it. */
    std::size_t highWaterBytes = 0;
};

/**
 * Recycles Real-mode store allocations across every session of one
 * SharedContext. Iterative apps and short serving requests create and
 * destroy similar stores all the time; handing a freed buffer to the
 * next store of its size class reuses warm, already-faulted pages and
 * keeps the executor off the kernel's page-fault path.
 *
 * Allocations are rounded up to a geometric size class (64 B steps up
 * to 4 KiB, then 4 classes per power of two: slack under 25%), so a
 * freed buffer serves any store of its class, not just its exact size.
 * The pool sizes itself: pooled bytes never exceed the high-water mark
 * of live bytes, and the oldest pooled buffers are evicted first.
 * Thread-safe; buffers are allocated and freed outside the mutex.
 */
class BufferPool
{
  public:
    using Bytes = std::unique_ptr<std::byte[]>;

    /** Capacity class (bytes actually allocated) for `bytes`. */
    static std::size_t classBytes(std::size_t bytes);

    /** Take the most recently pooled buffer of class `cls` (a hit; it
     * becomes live), or return null (a miss). */
    Bytes take(std::size_t cls);

    /** Allocate a fresh live buffer of class `cls` (after a miss). */
    Bytes allocate(std::size_t cls);

    /** A live buffer of class `cls` is released: pool it, evicting
     * the oldest pooled buffers beyond the high-water bound. */
    void release(Bytes p, std::size_t cls);

    /** Free every pooled buffer (memory pressure); returns how many. */
    std::size_t evictAll();

    BufferPoolStats stats() const;

  private:
    struct Entry
    {
        Bytes p;
        std::size_t cls = 0;
    };

    /** `cls` more bytes went live (caller holds the mutex). */
    void noteLive(std::size_t cls);

    mutable std::mutex mutex_;
    /** Pooled buffers, oldest release first (eviction order). */
    std::list<Entry> lru_;
    /** Per class, the pooled buffers in release order: take() pops
     * the back (warmest), eviction the front (oldest overall). */
    std::unordered_map<std::size_t,
                       std::deque<std::list<Entry>::iterator>>
        byClass_;
    BufferPoolStats stats_;
};

/** Pieces of an image partition, registered by libraries. */
struct ImageData
{
    std::vector<Rect> pieces;
    std::vector<coord_t> volumes;
    /**
     * When true, kernels address elements of this view absolutely
     * from the allocation origin (CSR values/column indices, gathered
     * vectors); when false, addressing is relative to the piece
     * origin (row-pointer windows).
     */
    bool absolute = true;
};

/**
 * The low-level runtime: stores, coherence, asynchronous execution,
 * statistics.
 */
class LowRuntime
{
  public:
    /**
     * @param workers Point-task worker threads; <= 0 reads
     *        DIFFUSE_WORKERS from the environment (default 1).
     * @param ranks Distributed-memory shards; <= 0 reads
     *        DIFFUSE_RANKS from the environment (default 1 — the
     *        single-allocation path). Results are bit-identical for
     *        every rank count.
     * @param shared_pool Worker pool to execute on. Null constructs a
     *        private pool (the historical per-runtime behavior); a
     *        shared pool (core/context.h sessions) is reserve()d up
     *        to `workers` and multiplexed across runtimes, while this
     *        runtime's sharding decisions and per-slot scratch keep
     *        using its own `workers` — behavior is identical to a
     *        private pool of that size.
     * @param shared_buffers Buffer-recycling pool for store
     *        allocations. Null constructs a private one; sessions of
     *        a SharedContext pass the context's, so a buffer one
     *        session frees can serve another session's next store.
     */
    LowRuntime(const MachineConfig &machine, ExecutionMode mode,
               int workers = 0, int ranks = 0,
               std::shared_ptr<kir::WorkerPool> shared_pool = nullptr,
               std::shared_ptr<BufferPool> shared_buffers = nullptr);

    /** Returns every remaining store allocation to the buffer pool
     * (the stream never executes anything after destruction). */
    ~LowRuntime();

    /**
     * Create a store. In Real mode the allocation is host memory
     * initialized to `init` (interpreted per dtype).
     */
    StoreId createStore(const Point &shape, DType dtype,
                        double init = 0.0);

    /**
     * Release a store's allocation. Deferred while tasks referencing
     * the store are still in flight; the allocation is freed when the
     * last such task retires.
     */
    void destroyStore(StoreId id);

    bool storeExists(StoreId id) const;
    Rect storeShape(StoreId id) const;
    DType storeDtype(StoreId id) const;

    /**
     * Raw data access (Real mode; host initialization and readback).
     * Fences the store: every in-flight task touching it retires
     * first.
     */
    double *dataF64(StoreId id);
    std::int32_t *dataI32(StoreId id);
    std::int64_t *dataI64(StoreId id);

    /**
     * Mutable access for a host write of every element (Real mode).
     * Fences, checks poison and hands ownership to the canonical copy
     * like dataF64, but a fresh allocation skips the init fill and no
     * shard rectangle is gathered. The allocation still happens here,
     * so allocation faults and DIFFUSE_MEM_BUDGET surface as before.
     */
    double *overwriteF64(StoreId id);

    /**
     * Mark a store's contents as freshly initialized everywhere
     * (host-side writes, excluded from timing like the paper's setup).
     */
    void markInitialized(StoreId id);

    /** Register an image partition's pieces; returns its id. */
    ImageId registerImage(ImageData data);
    const ImageData &image(ImageId id) const;

    /**
     * Submit one (possibly fused) index task to the asynchronous
     * stream. Dependence analysis, the cost model and coherence
     * updates run immediately; real execution is deferred until the
     * returned event (or a fence) is waited on.
     */
    EventId submit(LaunchedTask task);

    /** Block until `id` (and its dependencies) have retired. Throws
     * DiffuseError when the event failed or was cancelled. */
    void wait(EventId id);

    /** Retire every in-flight task. Never throws — failures are
     * recorded (check failed()/error()); safe from destructors. */
    void fence();

    /** True when `id` has retired. */
    bool eventComplete(EventId id) const { return stream_.complete(id); }

    /**
     * Marks the stream epoch boundary for cross-window pipelining:
     * submissions after this call treat still-pending work from before
     * it with fence semantics (unconditional schedule clamp, uncounted
     * hazard edges). Called at every window/trace epoch start; a no-op
     * for scheduling and statistics when the stream is drained, which
     * is always the case when pipelining is off.
     */
    void markStreamEpoch() { stream_.markEpoch(); }

    /** Tasks submitted but not yet retired (pipelining introspection). */
    std::size_t streamPending() const { return stream_.pending(); }

    /** The worker pool executing sharded nests (possibly shared). */
    kir::WorkerPool &pool() { return *pool_; }

    // ---- Cross-session batching (see kir::BatchCoalescer) -----------

    /**
     * Enable horizontal batching: Compute retirements carrying a
     * batch tag (stamped on trace-replayed submissions by the middle
     * layer) gather with sibling sessions replaying the same epoch
     * into one combined pool job. Null disables (the default). Real
     * mode only; results, stats and simulated schedules are bitwise
     * identical either way.
     */
    void setBatchCoalescer(std::shared_ptr<kir::BatchCoalescer> c)
    {
        coalescer_ = std::move(c);
    }

    bool batchingEnabled() const { return coalescer_ != nullptr; }
    const std::shared_ptr<kir::BatchCoalescer> &batcher() const
    {
        return coalescer_;
    }

    /**
     * A trace replay of `epoch_id` with `batchable` Compute
     * submissions begins: announce this session to the coalescer. The
     * announcement retracts automatically once all `batchable`
     * retirements are accounted — executed (successfully or not) or
     * cancelled — so pipelined replays and mid-epoch failures never
     * leak a ghost replayer.
     */
    void beginBatchEpoch(std::uint64_t epoch_id, int batchable);

    /** Stamp the next submitRecorded Compute task with a batch tag. */
    void setNextBatchTag(std::uint64_t epoch_id, std::int32_t index)
    {
        pendingBatchEpoch_ = epoch_id;
        pendingBatchIndex_ = index;
    }

    /** Synchronous convenience: wait(submit(task)). */
    void execute(const LaunchedTask &task);

    /**
     * Host-side read of a scalar store's value (Real mode). Fences
     * the store implicitly. Throws DiffuseError when the store was
     * poisoned by an upstream failure.
     */
    double readScalarValue(StoreId id);

    // ---- Failure domain (see docs/architecture.md) -------------------

    /** True once any task of this runtime failed or was cancelled. */
    bool failed() const { return !sessionError_.ok(); }

    /** Root-cause error of the failed state (None when healthy). */
    const Error &error() const { return sessionError_; }

    /**
     * Clear the failed state: drain the stream (recording, not
     * throwing, any further cascade), forget event failures, and
     * quarantine poisoned stores — their allocations are dropped and
     * their coherence reset, so the next use reinitializes them from
     * `init` instead of exposing partial results.
     */
    void resetAfterError();

    /** True when `id`'s contents are undefined (upstream failure). */
    bool storePoisoned(StoreId id) const
    {
        return poisoned_.count(id) != 0;
    }

    /** Un-poison `id`: the caller is about to overwrite every element
     * from the host, which redefines the contents. */
    void clearPoison(StoreId id) { poisoned_.erase(id); }

    /** The deterministic fault injector (tests arm shots here). */
    FaultInjector &faults() { return faults_; }

    const FaultStats &faultStats() const { return faultStats_; }

    /** Session id used to attribute warnings/errors (0 = unset). */
    void setSessionId(std::uint64_t id) { sessionId_ = id; }
    std::uint64_t sessionId() const { return sessionId_; }

    const MachineConfig &machine() const { return machine_; }
    ExecutionMode mode() const { return mode_; }
    RuntimeStats &stats() { return stats_; }
    const RuntimeStats &stats() const { return stats_; }
    const StreamStats &streamStats() const { return stream_.stats(); }
    int workers() const { return workers_; }
    int ranks() const { return shards_.ranks(); }
    const ShardManager &shards() const { return shards_; }

    /** Live store count, excluding zombies (leak checks in tests). */
    std::size_t liveStores() const { return stores_.size() - zombies_; }

    // ---- Trace capture & replay (see core/trace.h) -------------------

    /**
     * Start recording every stream submission (compute and Copy) into
     * `log`, with hazard edges rewritten as epoch-local indices and
     * stat increments attributed per submission. Must be called when
     * nothing is pending (post-fence); active until endSubmitCapture.
     */
    void beginSubmitCapture(std::vector<RecordedSubmission> *log);
    void endSubmitCapture();
    bool capturing() const { return captureLog_ != nullptr; }

    /**
     * Resubmit a recorded submission: rebind slot-indexed store ids
     * through `slot_stores` (and `scalars`, when non-null, replaces
     * the recorded scalar values — they are loop-variant), re-apply
     * the recorded placement/coherence mutations and stat deltas, and
     * enqueue through the stream with the recorded hazard edges and
     * timing. `epoch_events[i]` must hold the EventId returned for the
     * epoch's i-th replayed submission.
     */
    EventId submitRecorded(const RecordedSubmission &recorded,
                           const std::vector<StoreId> &slot_stores,
                           const std::vector<double> *scalars,
                           const std::vector<EventId> &epoch_events);

    /**
     * Digest of everything submission-side planning reads from a
     * store's mutable runtime state: the coherence record (last-write
     * layout and pieces, replicated validity) and the shard placement
     * maps. Two stores with equal shapes/dtypes and equal signatures
     * make `submit` plan identical exchanges, charge identical
     * communication, and record identical timing — the precondition
     * for replaying a recorded submission against them.
     */
    std::uint64_t storeStateSignature(StoreId id) const;

    /**
     * Observer invoked whenever host code acquires mutable access to
     * a store (dataF64/I32/I64, markInitialized). The trace layer
     * uses it to stop speculating/capturing epochs whose stores are
     * mutated behind the submission stream's back.
     */
    void
    setHostWriteObserver(std::function<void(StoreId)> fn)
    {
        hostWriteObserver_ = std::move(fn);
    }

  private:
    /**
     * A store allocation. Unlike std::vector, the memory comes
     * uninitialized, so a store whose first use is a fully-covering
     * write never pays an init pass (the kernel overwrites every
     * element anyway).
     */
    struct RawBuffer
    {
        BufferPool::Bytes p;
        /** Logical bytes (the store's volume times its dtype size). */
        std::size_t n = 0;
        /** Allocated bytes: the size class of `n`. */
        std::size_t cap = 0;

        bool empty() const { return n == 0; }
        std::byte *data() { return p.get(); }
        const std::byte *data() const { return p.get(); }
    };

    struct StoreRec
    {
        Rect shape;
        DType dtype = DType::F64;
        double init = 0.0;
        /** Lazily materialized on first use (Real mode). */
        RawBuffer data;
        /** Coherence: identity of the partition that last wrote. */
        std::uint64_t lastWriteLayout = 0;
        std::vector<Rect> lastWritePieces;
        /** Valid everywhere (post-init, post-reduction/broadcast). */
        bool replicatedValid = true;
        /** In-flight tasks referencing this store. */
        int pendingUses = 0;
        /** Destroyed by the application while still in use. */
        bool zombie = false;
    };

    StoreRec &rec(StoreId id);
    const StoreRec &rec(StoreId id) const;
    /** Host-access prologue: observer, fence, poison and dtype check. */
    StoreRec &hostRec(StoreId id, DType want);
    /** dataF64 / overwriteF64 (`overwrite`: skip init fill and gather). */
    double *hostF64(StoreId id, bool overwrite);

    /**
     * Materialize the allocation of a store (Real mode). With
     * `skip_init` the memory is left uninitialized — legal only when
     * the caller proved the first access overwrites every element.
     */
    void ensureAllocated(StoreRec &store, bool skip_init = false);

    /** Does `arg` write every element of the store (disjoint pieces
     * covering the full shape, or a replicated write)? */
    static bool writeCoversStore(const LowArg &arg,
                                 const StoreRec &store);

    /** Point-to-point communication seconds for point `p` of `arg`
     * (the analytic model; ranks == 1 only — sharded execution
     * charges the measured Copy tasks instead). */
    double commSecondsFor(const LowArg &arg, const StoreRec &store,
                          int p, int num_points);

    /** Submit one planned exchange as a Copy task (hazard-tracked). */
    void submitCopy(const CopyDesc &c);

    /** Coherence updates for written/reduced stores (program order). */
    void applyCoherence(const LaunchedTask &task);

    /** Fold the stream's schedule clocks into simTime/busyTime. */
    void foldScheduleClocks();

    /** Capture hook: record one stream submission (post-analysis). */
    void recordSubmission(const LaunchedTask &task,
                          const TaskTiming &timing,
                          const SubmitTrace &trace, EventId id);

    /** Build executor bindings for point `p`. */
    void buildBindings(const LaunchedTask &task, int p,
                       std::vector<kir::BufferBinding> &out,
                       bool with_pointers);

    /**
     * May the point tasks run concurrently? False when a point's
     * writes overlap another point's accesses (then the sequential
     * point order is semantically relevant and is preserved).
     */
    bool pointsIndependent(const LaunchedTask &task) const;

    /** Run one retired task against host memory (Real mode). */
    void executeRetired(const LaunchedTask &task);

    /**
     * Execute a batch-tagged Compute retirement through the gather
     * group instead of a private pool job. Per-session preparation
     * (materialization, reduction diversion, the fault decision) and
     * post-processing (reduction merge, error rethrow) stay on this
     * session's thread; only the point work itself runs inside the
     * combined job, bound through this session's executors and
     * buffers. Bitwise-identical to the unbatched paths.
     */
    void executeBatchedCompute(const LaunchedTask &task,
                               bool scalar_oracle, bool inject_kernel);

    /** Count down a batch-tagged retirement; retracts the epoch's
     * announcement when the last one is accounted. */
    void accountBatchTask(std::uint64_t epoch_id);

    /**
     * Strip-sharded execution of a parallel-safe retired task on the
     * vector plan: workers claim strip (or Gemv/Csr row) ranges
     * flattened across points, nest by nest. `prepare` fills point
     * `p`'s external bindings (including reduction-slot diversion).
     */
    void executeSharded(
        const LaunchedTask &task,
        const std::function<void(int, std::vector<kir::BufferBinding> &)>
            &prepare);

    /** Drop per-task runtime state once a task has retired. */
    void finishRetired(const LaunchedTask &task);

    /** Return a destroyed store's allocation to the recycling pool.
     * Always leaves `store.data` empty and updates the live-byte
     * accounting. */
    void recycleAllocation(StoreRec &store);

    /** Stream fail fn: poison the failed task's outputs, record the
     * session's root-cause error. */
    void onTaskFailed(const LaunchedTask &task, const Error &e,
                      bool cancelled);

    /** Throw StorePoisoned if `id`'s contents are undefined. */
    void throwIfPoisoned(StoreId id) const;

    MachineConfig machine_;
    ExecutionMode mode_;
    RuntimeStats stats_;
    std::unordered_map<StoreId, StoreRec> stores_;
    /**
     * Recycled allocations, by size class. Shared by every session of
     * a SharedContext (private for a directly constructed runtime or
     * a DIFFUSE_SHARED_CACHE=0 session) and bounded by the context's
     * high-water mark of live store bytes; see BufferPool.
     */
    std::shared_ptr<BufferPool> buffers_;
    /** Class bytes currently held by this runtime's store allocations
     * (canonical buffers; shard buffers are the ShardManager's). */
    std::size_t liveBytes_ = 0;
    /** DIFFUSE_MEM_BUDGET in bytes; 0 = unlimited. Fresh allocations
     * that would push this runtime's live bytes plus the pool's bytes
     * past it first evict the (possibly shared) recycling pool, then
     * fail with a structured MemBudgetExceeded instead of
     * OOM-aborting. */
    std::size_t memBudgetBytes_ = 0;
    /** Destroyed-but-in-flight stores still held in stores_. */
    std::size_t zombies_ = 0;
    std::vector<ImageData> images_;
    StoreId nextStore_ = 1;
    /** This runtime's worker budget: sharding decisions and per-slot
     * scratch sizing use it, never the (possibly larger, shared)
     * pool's thread target. */
    int workers_ = 1;
    /** DIFFUSE_CHUNK: fixed chunk size for sharded nests (0 = auto,
     * total/(workers*8)). Small values force steal-heavy schedules in
     * the determinism tests; results are chunk-invariant by design. */
    int chunkOverride_ = 0;
    std::shared_ptr<kir::WorkerPool> pool_;
    /** Per-worker executor state (executors are not thread-safe). */
    std::vector<kir::Executor> executors_;
    std::vector<std::vector<kir::BufferBinding>> workerBindings_;
    /** Per-point plan resolutions for the strip-sharded path. */
    std::vector<kir::PointContext> pointCtxs_;
    /** Identifies strip dispatches so workers splat loop invariants
     * into their register files exactly once per dispatch. */
    std::uint64_t stripEpoch_ = 0;
    /** Per-rank shard buffers and exchange planning (ranks > 1). */
    ShardManager shards_;
    TaskStream stream_;
    /** Stream clocks at the previous submit (stats are deltas so
     * RuntimeStats::reset() keeps working). */
    double lastCriticalPath_ = 0.0;
    double lastBusyTime_ = 0.0;

    /** Trace capture state (null when not capturing). */
    std::vector<RecordedSubmission> *captureLog_ = nullptr;
    /** EventId -> index in the epoch's submission order. */
    std::unordered_map<EventId, std::uint32_t> captureIndex_;
    /** Stat snapshots for per-submission delta attribution. */
    RuntimeStats captureStatsMark_;
    ShardStats captureShardMark_;
    std::function<void(StoreId)> hostWriteObserver_;

    /** Cross-session batching (null = disabled). */
    std::shared_ptr<kir::BatchCoalescer> coalescer_;
    /** Active announced replays: epoch id -> unaccounted batchable
     * retirements. A handful at most (pipelining overlaps two). */
    struct ActiveBatchEpoch
    {
        std::uint64_t epochId = 0;
        int remaining = 0;
    };
    std::vector<ActiveBatchEpoch> activeBatch_;
    /** One-shot tag consumed by the next Compute submitRecorded. */
    std::uint64_t pendingBatchEpoch_ = 0;
    std::int32_t pendingBatchIndex_ = -1;

    /** Failure-domain state. */
    FaultInjector faults_;
    FaultStats faultStats_;
    /** Stores whose contents are undefined, with the root cause.
     * Bounded: cleared by resetAfterError() / store destruction. */
    std::unordered_map<StoreId, Error> poisoned_;
    /** First root-cause error since the last resetAfterError(). */
    Error sessionError_;
    std::uint64_t sessionId_ = 0;
};

} // namespace rt
} // namespace diffuse

#endif // DIFFUSE_RUNTIME_RUNTIME_H
