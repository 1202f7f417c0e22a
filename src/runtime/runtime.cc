#include "runtime.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/env.h"
#include "common/logging.h"

namespace diffuse {
namespace rt {

namespace {

/** Reserved layout key: valid everywhere. */
constexpr std::uint64_t REPLICATED_LAYOUT = 1;

/** Exchange faults are transient by default: retried with a short
 * exponential backoff up to this bound before the Copy task fails for
 * real. Under probabilistic injection the chance of a genuine failure
 * is rate^5 per copy — tests force one with an armed burst instead. */
constexpr int kMaxExchangeAttempts = 5;

/** rowMajorStrides with the store-layer failure message. */
void
storeStrides(const Rect &shape, coord_t strides[2])
{
    if (!rowMajorStrides(shape, strides))
        diffuse_panic("stores must be 1-D or 2-D, got %d-D",
                      shape.dim());
}

/** Do the pieces of two accesses overlap across distinct points? */
bool
crossPointOverlap(const std::vector<Rect> &a, const std::vector<Rect> &b)
{
    for (std::size_t p = 0; p < a.size(); p++) {
        if (a[p].empty())
            continue;
        for (std::size_t q = 0; q < b.size(); q++) {
            if (p == q)
                continue;
            if (!a[p].intersect(b[q]).empty())
                return true;
        }
    }
    return false;
}

} // namespace

std::size_t
BufferPool::classBytes(std::size_t bytes)
{
    constexpr std::size_t kFine = 64;
    constexpr std::size_t kFineLimit = 4096;
    if (bytes <= kFineLimit)
        return (bytes + kFine - 1) / kFine * kFine;
    // Four classes per power of two: steps of a quarter of the
    // largest power of two below `bytes`.
    std::size_t pow2 = kFineLimit;
    while (pow2 * 2 < bytes)
        pow2 *= 2;
    std::size_t step = pow2 / 4;
    return (bytes + step - 1) / step * step;
}

BufferPool::Bytes
BufferPool::take(std::size_t cls)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = byClass_.find(cls);
    if (it == byClass_.end() || it->second.empty()) {
        stats_.misses++;
        return nullptr;
    }
    auto entry = it->second.back();
    it->second.pop_back();
    Bytes p = std::move(entry->p);
    lru_.erase(entry);
    stats_.hits++;
    stats_.pooledBytes -= cls;
    noteLive(cls);
    return p;
}

BufferPool::Bytes
BufferPool::allocate(std::size_t cls)
{
    Bytes p(new std::byte[cls]);
    std::lock_guard<std::mutex> lock(mutex_);
    noteLive(cls);
    return p;
}

void
BufferPool::noteLive(std::size_t cls)
{
    stats_.liveBytes += cls;
    stats_.highWaterBytes =
        std::max(stats_.highWaterBytes, stats_.liveBytes);
}

void
BufferPool::release(Bytes p, std::size_t cls)
{
    std::vector<Bytes> evicted;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stats_.liveBytes -= cls;
        stats_.pooledBytes += cls;
        byClass_[cls].push_back(lru_.insert(lru_.end(),
                                            Entry{std::move(p), cls}));
        // The buffer just pooled is the newest and fits on its own
        // (it was live, so cls <= high water): only older ones go.
        while (stats_.pooledBytes > stats_.highWaterBytes) {
            Entry &oldest = lru_.front();
            byClass_[oldest.cls].pop_front();
            stats_.pooledBytes -= oldest.cls;
            stats_.evictions++;
            evicted.push_back(std::move(oldest.p));
            lru_.pop_front();
        }
    }
    // `evicted` frees here, outside the mutex.
}

std::size_t
BufferPool::evictAll()
{
    std::list<Entry> evicted;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        evicted.swap(lru_);
        byClass_.clear();
        stats_.pooledBytes = 0;
        stats_.evictions += evicted.size();
    }
    return evicted.size();
}

BufferPoolStats
BufferPool::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

LowRuntime::LowRuntime(const MachineConfig &machine, ExecutionMode mode,
                       int workers, int ranks,
                       std::shared_ptr<kir::WorkerPool> shared_pool,
                       std::shared_ptr<BufferPool> shared_buffers)
    : machine_(machine), mode_(mode),
      buffers_(std::move(shared_buffers)),
      // Simulated mode never runs point tasks: no worker threads.
      workers_(mode == ExecutionMode::Simulated
                   ? 1
                   : (workers > 0 ? workers
                                  : kir::WorkerPool::defaultWorkers())),
      pool_(std::move(shared_pool)),
      executors_(std::size_t(workers_)),
      workerBindings_(std::size_t(workers_)),
      shards_(mode,
              ranks > 0 ? ranks : envInt("DIFFUSE_RANKS", 1, 1, 4096)),
      stream_(machine)
{
    if (buffers_ == nullptr)
        buffers_ = std::make_shared<BufferPool>();
    if (pool_ == nullptr)
        pool_ = std::make_shared<kir::WorkerPool>(workers_);
    else
        pool_->reserve(workers_);
    stream_.setExecuteFn(
        [this](const LaunchedTask &task) { executeRetired(task); });
    stream_.setRetireFn(
        [this](const LaunchedTask &task) { finishRetired(task); });
    stream_.setFailFn([this](const LaunchedTask &task, const Error &e,
                             bool cancelled) {
        onTaskFailed(task, e, cancelled);
    });
    memBudgetBytes_ =
        std::size_t(envInt("DIFFUSE_MEM_BUDGET", 0, 1, 1 << 20)) << 20;
    chunkOverride_ = envInt("DIFFUSE_CHUNK", 0, 0, 1 << 20);
}

LowRuntime::~LowRuntime()
{
    for (auto &[id, store] : stores_)
        recycleAllocation(store);
}

StoreId
LowRuntime::createStore(const Point &shape, DType dtype, double init)
{
    StoreId id = nextStore_++;
    StoreRec store;
    store.shape = Rect::fromShape(shape);
    store.dtype = dtype;
    store.init = init;
    shards_.onStoreCreated(id, store.shape, dtype);
    stores_.emplace(id, std::move(store));
    return id;
}

bool
LowRuntime::writeCoversStore(const LowArg &arg, const StoreRec &store)
{
    if (arg.replicated)
        return true; // every point writes the whole store
    coord_t covered = 0;
    for (const Rect &piece : arg.pieces)
        covered += piece.intersect(store.shape).volume();
    // Disjoint pieces summing to the full volume tile the store
    // exactly; with any overlap the covered volume falls short.
    return covered == store.shape.volume() &&
           !crossPointOverlap(arg.pieces, arg.pieces);
}

void
LowRuntime::recycleAllocation(StoreRec &store)
{
    if (store.data.empty())
        return;
    liveBytes_ -= store.data.cap;
    buffers_->release(std::move(store.data.p), store.data.cap);
    // A moved-from RawBuffer keeps its stale sizes: reset it for
    // callers that keep the StoreRec alive.
    store.data = RawBuffer();
}

void
LowRuntime::ensureAllocated(StoreRec &store, bool skip_init)
{
    if (!store.data.empty() || mode_ != ExecutionMode::Real)
        return;
    std::size_t n = std::size_t(store.shape.volume());
    std::size_t bytes = n * dtypeSize(store.dtype);
    std::size_t cls = BufferPool::classBytes(bytes);
    if (faults_.enabled() && faults_.shouldFault(FaultKind::Alloc))
        throw DiffuseError(makeError(ErrorCode::AllocFailed,
                                     "injected allocation fault"));
    // A hit transfers pooled -> live: total memory is unchanged, so
    // the budget needs no check.
    BufferPool::Bytes p = buffers_->take(cls);
    if (p == nullptr) {
        if (memBudgetBytes_ != 0 &&
            liveBytes_ + buffers_->stats().pooledBytes + cls >
                memBudgetBytes_) {
            // Memory pressure: drop the recycling pool (warm-page
            // reuse is a luxury) before giving up; only if live
            // allocations alone still exceed the budget does the
            // allocation fail — structurally, not as an OOM abort.
            faultStats_.budgetEvictions += buffers_->evictAll();
            if (liveBytes_ + cls > memBudgetBytes_)
                throw DiffuseError(makeError(
                    ErrorCode::MemBudgetExceeded,
                    strprintf("allocation of %zu bytes would exceed "
                              "DIFFUSE_MEM_BUDGET (%zu live of %zu)",
                              cls, liveBytes_, memBudgetBytes_)));
        }
        p = buffers_->allocate(cls);
    }
    store.data.p = std::move(p);
    store.data.n = bytes;
    store.data.cap = cls;
    liveBytes_ += cls;
    stats_.storesMaterialized++;
    stats_.bytesMaterialized += double(bytes);
    if (skip_init)
        return;
    switch (store.dtype) {
      case DType::F64: {
        double *p = reinterpret_cast<double *>(store.data.data());
        std::fill(p, p + n, store.init);
        break;
      }
      case DType::I32: {
        auto *p = reinterpret_cast<std::int32_t *>(store.data.data());
        std::fill(p, p + n, std::int32_t(store.init));
        break;
      }
      case DType::I64: {
        auto *p = reinterpret_cast<std::int64_t *>(store.data.data());
        std::fill(p, p + n, std::int64_t(store.init));
        break;
      }
    }
}

void
LowRuntime::destroyStore(StoreId id)
{
    auto it = stores_.find(id);
    if (it == stores_.end())
        // User misuse (double destroy, stale id): recoverable — the
        // runtime's own state is untouched, so report it structurally
        // instead of aborting every session in the process.
        throw DiffuseError(makeError(
            ErrorCode::StoreError,
            strprintf("destroy of unknown store %llu (double destroy?)",
                      (unsigned long long)id),
            std::string(), id));
    if (it->second.pendingUses > 0) {
        // In-flight tasks still reference the allocation: defer the
        // release until the last of them retires.
        if (!it->second.zombie) {
            it->second.zombie = true;
            zombies_++;
        }
        return;
    }
    recycleAllocation(it->second);
    stores_.erase(it);
    poisoned_.erase(id);
    shards_.onStoreDestroyed(id);
    stream_.forgetStore(id);
}

bool
LowRuntime::storeExists(StoreId id) const
{
    auto it = stores_.find(id);
    return it != stores_.end() && !it->second.zombie;
}

LowRuntime::StoreRec &
LowRuntime::rec(StoreId id)
{
    auto it = stores_.find(id);
    diffuse_assert(it != stores_.end(), "unknown store %llu",
                   (unsigned long long)id);
    return it->second;
}

const LowRuntime::StoreRec &
LowRuntime::rec(StoreId id) const
{
    auto it = stores_.find(id);
    diffuse_assert(it != stores_.end(), "unknown store %llu",
                   (unsigned long long)id);
    return it->second;
}

Rect
LowRuntime::storeShape(StoreId id) const
{
    return rec(id).shape;
}

DType
LowRuntime::storeDtype(StoreId id) const
{
    return rec(id).dtype;
}

LowRuntime::StoreRec &
LowRuntime::hostRec(StoreId id, DType want)
{
    if (hostWriteObserver_)
        hostWriteObserver_(id);
    stream_.waitStore(id);
    throwIfPoisoned(id);
    StoreRec &r = rec(id);
    if (r.dtype != want)
        throw DiffuseError(makeError(
            ErrorCode::InvalidArgument,
            strprintf("store %llu is not %s", (unsigned long long)id,
                      dtypeName(want)),
            std::string(), id));
    return r;
}

double *
LowRuntime::dataF64(StoreId id)
{
    return hostF64(id, /*overwrite=*/false);
}

double *
LowRuntime::overwriteF64(StoreId id)
{
    return hostF64(id, /*overwrite=*/true);
}

double *
LowRuntime::hostF64(StoreId id, bool overwrite)
{
    StoreRec &r = hostRec(id, DType::F64);
    // A caller that writes every element needs no init fill of a
    // fresh allocation and no shard rectangle gathered.
    ensureAllocated(r, /*skip_init=*/overwrite);
    if (r.data.empty())
        throw DiffuseError(makeError(
            ErrorCode::StoreError,
            strprintf("store %llu has no allocation (Simulated mode?)",
                      (unsigned long long)id),
            std::string(), id));
    // Host readback/write-through: pull every shard-resident
    // rectangle into the canonical allocation, then treat the mutable
    // pointer as a host write (the canonical copy becomes the owner).
    if (!overwrite)
        shards_.gatherToCanonical(id, r.data.data());
    shards_.onHostWrite(id);
    return reinterpret_cast<double *>(r.data.data());
}

std::int32_t *
LowRuntime::dataI32(StoreId id)
{
    StoreRec &r = hostRec(id, DType::I32);
    ensureAllocated(r);
    shards_.gatherToCanonical(id, r.data.data());
    shards_.onHostWrite(id);
    return reinterpret_cast<std::int32_t *>(r.data.data());
}

std::int64_t *
LowRuntime::dataI64(StoreId id)
{
    StoreRec &r = hostRec(id, DType::I64);
    ensureAllocated(r);
    shards_.gatherToCanonical(id, r.data.data());
    shards_.onHostWrite(id);
    return reinterpret_cast<std::int64_t *>(r.data.data());
}

void
LowRuntime::markInitialized(StoreId id)
{
    if (hostWriteObserver_)
        hostWriteObserver_(id);
    stream_.waitStore(id);
    // A host-side (re)initialization redefines every element: the
    // store is healthy again even if an earlier failure poisoned it.
    clearPoison(id);
    StoreRec &r = rec(id);
    r.replicatedValid = true;
    r.lastWriteLayout = 0;
    r.lastWritePieces.clear();
    shards_.onHostWrite(id);
}

ImageId
LowRuntime::registerImage(ImageData data)
{
    images_.push_back(std::move(data));
    return ImageId(images_.size() - 1);
}

const ImageData &
LowRuntime::image(ImageId id) const
{
    diffuse_assert(id < images_.size(), "unknown image %llu",
                   (unsigned long long)id);
    return images_[std::size_t(id)];
}

double
LowRuntime::commSecondsFor(const LowArg &arg, const StoreRec &store,
                           int p, int num_points)
{
    if (store.replicatedValid || store.lastWriteLayout == 0)
        return 0.0; // valid everywhere (initial or post-collective)
    if (arg.layoutKey == store.lastWriteLayout)
        return 0.0; // same distributed view: data already local

    const Rect &read_piece =
        arg.replicated ? store.shape : arg.pieces[std::size_t(p)];
    if (read_piece.empty() && !arg.replicated)
        return 0.0;

    double esize = double(dtypeSize(store.dtype));
    int same_points =
        int(store.lastWritePieces.size()) == num_points ? 1 : 0;
    double intra_bytes = 0.0, inter_bytes = 0.0;
    int intra_srcs = 0, inter_srcs = 0;
    int my_node = machine_.nodeOf(p % machine_.totalGpus());
    for (std::size_t q = 0; q < store.lastWritePieces.size(); q++) {
        // A writer piece colocated with this point holds data locally.
        if (same_points && int(q) == p)
            continue;
        Rect overlap = read_piece.intersect(store.lastWritePieces[q]);
        coord_t vol = overlap.volume();
        if (vol == 0)
            continue;
        int src_node = machine_.nodeOf(int(q) % machine_.totalGpus());
        if (src_node == my_node) {
            intra_bytes += double(vol) * esize;
            intra_srcs++;
        } else {
            inter_bytes += double(vol) * esize;
            inter_srcs++;
        }
    }
    stats_.bytesIntraNode += intra_bytes;
    stats_.bytesInterNode += inter_bytes;
    return intra_srcs * machine_.nvlinkLatency +
           intra_bytes / machine_.nvlinkBandwidth +
           inter_srcs * machine_.ibLatency +
           inter_bytes / machine_.ibBandwidth;
}

void
LowRuntime::buildBindings(const LaunchedTask &task, int p,
                          std::vector<kir::BufferBinding> &out,
                          bool with_pointers)
{
    out.clear();
    out.reserve(task.args.size());
    for (std::size_t i = 0; i < task.args.size(); i++) {
        const LowArg &arg = task.args[i];
        StoreRec &store = rec(arg.store);
        kir::BufferBinding b;
        b.dtype = store.dtype;
        Rect piece =
            arg.replicated ? store.shape : arg.pieces[std::size_t(p)];
        b.dims = store.shape.dim();
        Point ext = piece.extent();
        b.extent[0] = b.dims >= 1 ? std::max<coord_t>(ext[0], 0) : 1;
        b.extent[1] = b.dims == 2 ? std::max<coord_t>(ext[1], 0) : 1;
        if (!arg.irregular.empty())
            b.irregular = arg.irregular[std::size_t(p)];
        // Shard-bound pieces view the rank's shard buffer: the row
        // pitch is the shard's, not the store's — the executor's
        // access classification (contiguous/strided/broadcast)
        // handles the difference. An empty piece binds nothing (the
        // kernel iterates zero elements); it must not fall through
        // and materialize the canonical allocation.
        bool shard_bound =
            i < task.argCanonical.size() && !task.argCanonical[i];
        if (shard_bound) {
            if (!piece.empty()) {
                ShardView view = shards_.shardView(arg.store, p, piece,
                                                   with_pointers);
                b.stride[0] = view.stride[0];
                b.stride[1] = view.stride[1];
                if (with_pointers)
                    b.base = view.base;
            }
            out.push_back(b);
            continue;
        }
        coord_t strides[2];
        storeStrides(store.shape, strides);
        b.stride[0] = strides[0];
        b.stride[1] = strides[1];
        if (with_pointers) {
            ensureAllocated(store);
            std::byte *base = store.data.data();
            coord_t off =
                arg.absolute ? 0 : rowMajorOffset(store.shape, piece.lo);
            b.base = base + off * dtypeSize(store.dtype);
        }
        out.push_back(b);
    }
}

bool
LowRuntime::pointsIndependent(const LaunchedTask &task) const
{
    if (task.numPoints <= 1)
        return false;
    const kir::KernelFunction &fn = task.kernel->fn;
    for (std::size_t wi = 0; wi < task.args.size(); wi++) {
        const LowArg &w = task.args[wi];
        if (privReduces(w.priv)) {
            // Reductions run into private per-point accumulators and
            // merge deterministically — but only for replicated f64
            // accumulators (the merge adds whole-store slots, which
            // is wrong for per-piece offsets), and only when the
            // kernel never loads the accumulator.
            if (!w.replicated || rec(w.store).dtype != DType::F64)
                return false;
            for (const kir::LoopNest &nest : fn.nests) {
                for (const kir::Instr &ins : nest.body) {
                    if (ins.op == kir::Op::LoadBuf &&
                        ins.buf == int(wi))
                        return false;
                }
            }
            // Another argument on the same store would observe the
            // point-by-point merge order of the sequential path.
            for (std::size_t ri = 0; ri < task.args.size(); ri++) {
                if (ri != wi && task.args[ri].store == w.store)
                    return false;
            }
            continue;
        }
        if (!privWrites(w.priv))
            continue;
        // Replicated writes rely on sequential last-point-wins order.
        if (w.replicated)
            return false;
        // Writes of distinct points must not overlap each other.
        if (crossPointOverlap(w.pieces, w.pieces))
            return false;
        // Another argument of the same store must not access pieces a
        // different point writes (the sequential point order would be
        // observable through the shared allocation).
        for (std::size_t ri = 0; ri < task.args.size(); ri++) {
            if (ri == wi || task.args[ri].store != w.store)
                continue;
            const LowArg &r = task.args[ri];
            if (r.replicated)
                return false;
            if (crossPointOverlap(r.pieces, w.pieces))
                return false;
        }
    }
    return true;
}

EventId
LowRuntime::submit(LaunchedTask task)
{
    diffuse_assert(task.kernel != nullptr, "task %s has no kernel",
                   task.name.c_str());
    const kir::KernelFunction &fn = task.kernel->fn;
    diffuse_assert(int(task.args.size()) == fn.numArgs,
                   "task %s: %zu args vs kernel %d", task.name.c_str(),
                   task.args.size(), fn.numArgs);

    stats_.indexTasks++;
    stats_.pointTasks += std::uint64_t(task.numPoints);

    // Sharded execution: decide per-argument bindings, evolve the
    // placement map in program order, and submit the exchanges this
    // task needs as hazard-tracked Copy tasks *before* the task
    // itself, so RAW/WAR edges order data movement against compute.
    if (shards_.active()) {
        std::vector<CopyDesc> copies;
        shards_.planTask(task, copies);
        for (const CopyDesc &c : copies)
            submitCopy(c);
    }

    TaskTiming timing;
    timing.analysisSeconds = machine_.runtimeOverhead();
    timing.pointSeconds.resize(std::size_t(task.numPoints));

    // Per-point cost: incoming communication, launch, compute. The
    // index task completes when its slowest point task does. With
    // sharding active, communication is carried by the measured Copy
    // tasks instead of the analytic per-point model.
    double max_point_seconds = 0.0;
    double comm_at_max = 0.0, compute_at_max = 0.0;
    std::vector<kir::BufferBinding> &bindings = workerBindings_[0];
    for (int p = 0; p < task.numPoints; p++) {
        double comm = 0.0;
        for (const LowArg &arg : task.args) {
            if (privReads(arg.priv) && !shards_.active())
                comm += commSecondsFor(arg, rec(arg.store), p,
                                       task.numPoints);
        }
        buildBindings(task, p, bindings, false);
        // Plan metadata carries the per-nest flop/traffic summaries,
        // so costing a point is extent resolution only (no IR walk).
        kir::TaskCost cost = kir::profileCost(*task.kernel, bindings);
        stats_.bytesHbm += cost.bytes;
        double compute = std::max(cost.bytes / machine_.hbmBandwidth,
                                  cost.wflops / machine_.flopRate);
        double t = comm + machine_.launchOverhead + compute;
        timing.pointSeconds[std::size_t(p)] = t;
        if (t > max_point_seconds) {
            max_point_seconds = t;
            comm_at_max = comm;
            compute_at_max = compute;
        }
    }
    stats_.commTime += comm_at_max;
    stats_.computeTime += compute_at_max;

    // Reductions: a collective combines partials across points.
    double collective = 0.0;
    for (const LowArg &arg : task.args) {
        if (!privReduces(arg.priv))
            continue;
        StoreRec &store = rec(arg.store);
        double bytes =
            double(store.shape.volume() * dtypeSize(store.dtype));
        int p_total = task.numPoints;
        if (p_total > 1) {
            double hops = std::ceil(std::log2(double(p_total)));
            double lat = machine_.nodes > 1 ? machine_.ibLatency
                                            : machine_.nvlinkLatency;
            double bw = machine_.nodes > 1 ? machine_.ibBandwidth
                                           : machine_.nvlinkBandwidth;
            collective += hops * (lat + bytes / bw);
            stats_.collectives++;
        }
    }
    timing.collectiveSeconds = collective;

    // Coherence updates for written and reduced stores. These run at
    // submission — submission order is program order, so the coherence
    // walk matches the sequential semantics even though execution is
    // deferred.
    applyCoherence(task);

    stats_.overheadTime += timing.analysisSeconds +
                           machine_.launchOverhead * task.numPoints;
    stats_.collectiveTime += collective;

    // Only Real mode shards retired point tasks, so only it pays for
    // the independence analysis.
    task.parallelSafe = mode_ == ExecutionMode::Real &&
                        workers_ > 1 && pointsIndependent(task);

    // Injected plan/lowering fault: degrade this task to the scalar
    // interpreter. The scalar path is the bitwise reference for the
    // vector plans, so the fallback is transparent to results — only
    // throughput suffers.
    if (mode_ == ExecutionMode::Real && faults_.enabled() &&
        task.kernel->plan != nullptr &&
        faults_.shouldFault(FaultKind::Compile)) {
        task.forceScalar = true;
        faultStats_.scalarFallbacks++;
        diffuse_warn_session(
            sessionId_,
            "session %llu: compile fault on task %s; degrading "
            "to scalar interpreter",
            (unsigned long long)sessionId_, task.name.c_str());
    }

    for (const LowArg &arg : task.args)
        rec(arg.store).pendingUses++;

    EventId id;
    if (captureLog_) {
        LaunchedTask task_copy = task;
        TaskTiming timing_copy = timing;
        SubmitTrace trace;
        id = stream_.submit(std::move(task), std::move(timing), &trace);
        recordSubmission(task_copy, timing_copy, trace, id);
    } else {
        id = stream_.submit(std::move(task), std::move(timing));
    }
    foldScheduleClocks();
    return id;
}

void
LowRuntime::applyCoherence(const LaunchedTask &task)
{
    for (const LowArg &arg : task.args) {
        StoreRec &store = rec(arg.store);
        if (privWrites(arg.priv)) {
            store.lastWriteLayout = arg.layoutKey;
            store.replicatedValid = false;
            if (arg.replicated) {
                store.lastWritePieces.assign(
                    std::size_t(task.numPoints), store.shape);
            } else {
                store.lastWritePieces = arg.pieces;
            }
        } else if (privReduces(arg.priv)) {
            // Reduction results are combined and broadcast by the
            // collective: valid everywhere afterwards.
            store.lastWriteLayout = REPLICATED_LAYOUT;
            store.replicatedValid = true;
            store.lastWritePieces.clear();
        }
    }
}

void
LowRuntime::foldScheduleClocks()
{
    // Accumulate deltas (not totals) so RuntimeStats::reset() scopes
    // simTime/busyTime to a measurement phase as it always did.
    double critical = stream_.stats().criticalPathTime;
    double busy = stream_.stats().busyTime;
    stats_.simTime += critical - lastCriticalPath_;
    stats_.busyTime += busy - lastBusyTime_;
    lastCriticalPath_ = critical;
    lastBusyTime_ = busy;
}

void
LowRuntime::beginSubmitCapture(std::vector<RecordedSubmission> *log)
{
    diffuse_assert(captureLog_ == nullptr, "nested submit capture");
    diffuse_assert(stream_.pending() == 0,
                   "submit capture must start post-fence");
    captureLog_ = log;
    captureIndex_.clear();
    captureStatsMark_ = stats_;
    captureShardMark_ = shards_.stats();
}

void
LowRuntime::endSubmitCapture()
{
    captureLog_ = nullptr;
    captureIndex_.clear();
}

void
LowRuntime::recordSubmission(const LaunchedTask &task,
                             const TaskTiming &timing,
                             const SubmitTrace &trace, EventId id)
{
    RecordedSubmission rec;
    rec.task = task;
    rec.timing = timing;
    rec.rawDeps = trace.rawDeps;
    rec.warDeps = trace.warDeps;
    rec.wawDeps = trace.wawDeps;
    rec.deps.reserve(trace.deps.size());
    for (EventId d : trace.deps) {
        auto it = captureIndex_.find(d);
        // Epochs begin post-fence, so every pending dependency was
        // itself submitted (and recorded) within this epoch.
        diffuse_assert(it != captureIndex_.end(),
                       "dependency %llu outside the captured epoch",
                       (unsigned long long)d);
        rec.deps.push_back(it->second);
    }

    // Everything submission-side accounting added since the previous
    // recorded submission belongs to this one (planned exchanges of a
    // compute task attach to its first Copy; the aggregate is exact).
    SubmitStatsDelta &d = rec.stats;
    d.bytesHbm = stats_.bytesHbm - captureStatsMark_.bytesHbm;
    d.commTime = stats_.commTime - captureStatsMark_.commTime;
    d.computeTime = stats_.computeTime - captureStatsMark_.computeTime;
    d.overheadTime =
        stats_.overheadTime - captureStatsMark_.overheadTime;
    d.collectiveTime =
        stats_.collectiveTime - captureStatsMark_.collectiveTime;
    d.bytesIntraNode =
        stats_.bytesIntraNode - captureStatsMark_.bytesIntraNode;
    d.bytesInterNode =
        stats_.bytesInterNode - captureStatsMark_.bytesInterNode;
    d.exchangeBytes =
        stats_.exchangeBytes - captureStatsMark_.exchangeBytes;
    d.collectives = stats_.collectives - captureStatsMark_.collectives;
    d.copyTasks = stats_.copyTasks - captureStatsMark_.copyTasks;
    d.indexTasks = stats_.indexTasks - captureStatsMark_.indexTasks;
    d.pointTasks = stats_.pointTasks - captureStatsMark_.pointTasks;
    const ShardStats &ss = shards_.stats();
    d.shardCopies = ss.copiesPlanned - captureShardMark_.copiesPlanned;
    d.shardGathers =
        ss.gathersPlanned - captureShardMark_.gathersPlanned;
    d.shardHostPulls = ss.hostPulls - captureShardMark_.hostPulls;
    captureStatsMark_ = stats_;
    captureShardMark_ = ss;

    captureIndex_.emplace(id, std::uint32_t(captureLog_->size()));
    captureLog_->push_back(std::move(rec));
}

EventId
LowRuntime::submitRecorded(const RecordedSubmission &recorded,
                           const std::vector<StoreId> &slot_stores,
                           const std::vector<double> *scalars,
                           const std::vector<EventId> &epoch_events)
{
    LaunchedTask task = recorded.task;
    for (LowArg &a : task.args) {
        diffuse_assert(a.store < slot_stores.size(),
                       "recorded slot %llu out of range",
                       (unsigned long long)a.store);
        a.store = slot_stores[std::size_t(a.store)];
    }
    if (task.kind == TaskKind::Copy)
        task.copy.store = slot_stores[std::size_t(task.copy.store)];
    if (scalars)
        task.scalars = *scalars;
    if (pendingBatchEpoch_ != 0 && task.kind == TaskKind::Compute) {
        // Batch tag stamped by the replaying middle layer: this
        // retirement may coalesce with sibling sessions replaying the
        // same epoch (see executeRetired).
        task.batchEpoch = pendingBatchEpoch_;
        task.batchIndex = pendingBatchIndex_;
        pendingBatchEpoch_ = 0;
        pendingBatchIndex_ = -1;
    }

    // Recorded cost-model and exchange accounting, verbatim.
    const SubmitStatsDelta &d = recorded.stats;
    stats_.bytesHbm += d.bytesHbm;
    stats_.commTime += d.commTime;
    stats_.computeTime += d.computeTime;
    stats_.overheadTime += d.overheadTime;
    stats_.collectiveTime += d.collectiveTime;
    stats_.bytesIntraNode += d.bytesIntraNode;
    stats_.bytesInterNode += d.bytesInterNode;
    stats_.exchangeBytes += d.exchangeBytes;
    stats_.collectives += d.collectives;
    stats_.copyTasks += d.copyTasks;
    stats_.indexTasks += d.indexTasks;
    stats_.pointTasks += d.pointTasks;
    shards_.addReplayedPlans(d.shardCopies, d.shardGathers,
                             d.shardHostPulls);

    if (task.kind == TaskKind::Compute) {
        // Evolve the placement map and coherence records exactly as
        // the analyzed submission did — without planning (the epoch's
        // recorded Copy tasks are resubmitted verbatim).
        shards_.replayTask(task);
        applyCoherence(task);
    }

    for (const LowArg &arg : task.args)
        rec(arg.store).pendingUses++;

    SubmitTrace trace;
    trace.rawDeps = recorded.rawDeps;
    trace.warDeps = recorded.warDeps;
    trace.wawDeps = recorded.wawDeps;
    trace.deps.reserve(recorded.deps.size());
    for (std::uint32_t idx : recorded.deps) {
        diffuse_assert(idx < epoch_events.size(),
                       "recorded dependency %u outside replay epoch",
                       idx);
        trace.deps.push_back(epoch_events[std::size_t(idx)]);
    }
    EventId id = stream_.submitPrelinked(std::move(task),
                                         recorded.timing, trace);
    foldScheduleClocks();
    return id;
}

std::uint64_t
LowRuntime::storeStateSignature(StoreId id) const
{
    auto it = stores_.find(id);
    if (it == stores_.end())
        return 0;
    const StoreRec &r = it->second;
    std::uint64_t h = 0x434f4845u; // "COHE"
    hashCombine64(h, r.lastWriteLayout);
    hashCombine64(h, r.replicatedValid ? 1 : 0);
    hashCombineRects(h, r.lastWritePieces);
    hashCombine64(h, shards_.stateSignature(id));
    return h;
}

void
LowRuntime::submitCopy(const CopyDesc &c)
{
    LaunchedTask t;
    t.kind = TaskKind::Copy;
    t.copy = c;
    t.numPoints = 1;
    t.name = "exchange";
    // The moved rectangle enters the hazard machinery as a ReadWrite
    // access: RAW orders the copy after the producer of the data, the
    // consumer's read orders after the copy, and a later writer WARs
    // against it — exactly the compute-task rules.
    LowArg a;
    a.store = c.store;
    a.priv = Privilege::ReadWrite;
    a.pieces = {c.rect};
    t.args.push_back(std::move(a));

    int nprocs = machine_.totalGpus();
    // Gathers (dstRank < 0) land on the canonical copy's root.
    int dst_proc = (c.dstRank >= 0 ? c.dstRank : 0) % nprocs;
    t.procHint = dst_proc;

    TaskTiming timing;
    double seconds = 0.0;
    if (c.srcRank >= 0) {
        // Charged: the data crosses a link. Pulls from the canonical
        // copy (srcRank < 0) are free — that data is resident
        // everywhere (initialization, post-collective broadcast).
        bool inter = machine_.nodeOf(c.srcRank % nprocs) !=
                     machine_.nodeOf(dst_proc);
        seconds = machine_.linkSeconds(c.bytes, inter);
        if (inter)
            stats_.bytesInterNode += c.bytes;
        else
            stats_.bytesIntraNode += c.bytes;
        stats_.exchangeBytes += c.bytes;
        stats_.commTime += seconds;
    }
    timing.pointSeconds = {seconds};
    stats_.copyTasks++;
    rec(c.store).pendingUses++;
    if (captureLog_) {
        LaunchedTask task_copy = t;
        TaskTiming timing_copy = timing;
        SubmitTrace trace;
        EventId id =
            stream_.submit(std::move(t), std::move(timing), &trace);
        recordSubmission(task_copy, timing_copy, trace, id);
    } else {
        stream_.submit(std::move(t), std::move(timing));
    }
}

void
LowRuntime::wait(EventId id)
{
    stream_.wait(id);
    if (const Error *e = stream_.eventError(id))
        throw DiffuseError(*e);
}

void
LowRuntime::fence()
{
    stream_.fence();
}

void
LowRuntime::execute(const LaunchedTask &task)
{
    wait(submit(task));
}

void
LowRuntime::executeRetired(const LaunchedTask &task)
{
    if (mode_ != ExecutionMode::Real)
        return;
    if (task.kind == TaskKind::Copy) {
        // Exchanges move bytes verbatim between shard buffers and/or
        // the canonical allocation.
        std::byte *canonical = nullptr;
        if (task.copy.srcRank < 0 || task.copy.dstRank < 0) {
            StoreRec &r = rec(task.copy.store);
            ensureAllocated(r);
            canonical = r.data.data();
        }
        // Exchange faults are transient (a dropped message, a busy
        // link): retry with a short exponential backoff. Only a
        // persistent fault — kMaxExchangeAttempts consecutive fires —
        // fails the Copy task for real.
        for (int attempt = 1;; attempt++) {
            if (faults_.enabled() &&
                faults_.shouldFault(FaultKind::Exchange)) {
                if (attempt >= kMaxExchangeAttempts)
                    throw DiffuseError(makeError(
                        ErrorCode::ExchangeFault,
                        strprintf("exchange failed after %d attempts",
                                  attempt),
                        task.name, task.copy.store));
                faultStats_.exchangeRetries++;
                diffuse_warn_session(
                    sessionId_,
                    "session %llu: transient exchange fault on "
                    "store %llu (attempt %d); retrying",
                    (unsigned long long)sessionId_,
                    (unsigned long long)task.copy.store, attempt);
                std::this_thread::sleep_for(
                    std::chrono::microseconds(1 << attempt));
                continue;
            }
            break;
        }
        shards_.executeCopy(task.copy, canonical);
        return;
    }
    // Batch-tagged retirements count down their epoch's announcement
    // no matter how execution ends — success, kernel fault, injected
    // error — so the coalescer's replayer census never leaks a ghost
    // session (cancelled tasks are accounted in onTaskFailed, the one
    // path that never reaches here).
    struct BatchAccount
    {
        LowRuntime *rt;
        std::uint64_t epoch;
        ~BatchAccount()
        {
            if (epoch != 0)
                rt->accountBatchTask(epoch);
        }
    } batch_account{this, task.batchEpoch};
    const kir::KernelFunction &fn = task.kernel->fn;
    const bool scalar_oracle =
        kir::Executor::scalarForced() || task.forceScalar;
    // Sample the kernel-fault decision here, on the retiring thread:
    // the per-kind opportunity count (and hence the firing pattern of
    // a given seed) is identical for every worker count. The throw
    // itself happens inside the pool job below so the helper-thread
    // exception capture is exercised for real.
    const bool inject_kernel =
        faults_.enabled() && faults_.shouldFault(FaultKind::Kernel);

    // Materialize allocations serially: StoreRec mutation and stats
    // accounting must not race with the sharded point loop. A store
    // whose first-ever use is a fully-covering write (and which no
    // argument of this task reads or reduces) skips the init fill —
    // the kernel overwrites every element before anything can read.
    // Shard-bound arguments never touch the canonical allocation;
    // their buffers were materialized by the exchange planner.
    for (std::size_t i = 0; i < task.args.size(); i++) {
        const LowArg &arg = task.args[i];
        if (i < task.argCanonical.size() && !task.argCanonical[i])
            continue;
        StoreRec &r = rec(arg.store);
        if (!r.data.empty())
            continue;
        bool skip = privWrites(arg.priv) && !privReads(arg.priv) &&
                    writeCoversStore(arg, r);
        for (const LowArg &other : task.args) {
            if (skip && other.store == arg.store &&
                (privReads(other.priv) || privReduces(other.priv)))
                skip = false;
        }
        ensureAllocated(r, skip);
    }

    // Cross-session batching: a batch-tagged retirement of a healthy
    // session gathers with sibling sessions replaying the same epoch
    // into one combined pool job (kir::BatchCoalescer). Everything up
    // to here (fault sampling, materialization) already ran on this
    // session's thread; everything observable — results, stats,
    // FaultStats, the simulated schedule — is bitwise-identical to
    // the unbatched paths below. Failed sessions fall through: their
    // remaining work drains solo, excised from pending batches.
    if (task.batchEpoch != 0 && coalescer_ != nullptr && !failed()) {
        if (coalescer_->shouldGather(task.batchEpoch)) {
            executeBatchedCompute(task, scalar_oracle, inject_kernel);
            return;
        }
        // Running unbatched (alone on the epoch right now): advance
        // the progress watermark so a sibling that announces later
        // never waits out the window at an index this session passed.
        coalescer_->passBy(task.batchEpoch, task.batchIndex,
                           sessionId_);
    }

    int np = task.numPoints;
    if (inject_kernel) {
        // Fault from inside a pool job: with workers > 1 the
        // exception crosses a helper thread and must be captured and
        // rethrown on this thread (WorkerPool::jobError_), never
        // std::terminate. Exactly one point throws, so the resulting
        // error is deterministic regardless of chunk interleaving.
        pool_->parallelFor(np, workers_, [&](int, coord_t p) {
            if (p == coord_t(np - 1))
                throw DiffuseError(makeError(ErrorCode::KernelFault,
                                             "injected kernel fault",
                                             task.name));
        });
        return; // unreachable: the faulting point always throws
    }
    if (!task.parallelSafe || workers_ == 1 || np <= 1) {
        // Sequential reference path: point tasks in point order, each
        // on the vector executor with the kernel's cached plan (or on
        // the scalar oracle under DIFFUSE_SCALAR_EXEC=1).
        std::vector<kir::BufferBinding> &b = workerBindings_[0];
        for (int p = 0; p < np; p++) {
            buildBindings(task, p, b, true);
            if (scalar_oracle || task.kernel->plan == nullptr)
                executors_[0].runScalar(fn, b, task.scalars);
            else
                executors_[0].run(fn, *task.kernel->plan, b,
                                  task.scalars,
                                  task.kernel->jit.get());
        }
        return;
    }

    // Sharded path. Reduction accumulators divert to per-point slots
    // so no two points touch shared memory; slots merge in point order
    // after execution, keeping sums bit-identical for every worker
    // count.
    stats_.tasksSharded++;
    struct RedSlot
    {
        std::size_t arg;
        coord_t vol;
        std::vector<double> partials;
    };
    std::vector<RedSlot> reds;
    for (std::size_t i = 0; i < task.args.size(); i++) {
        const LowArg &arg = task.args[i];
        if (!privReduces(arg.priv))
            continue;
        RedSlot rs;
        rs.arg = i;
        rs.vol = rec(arg.store).shape.volume();
        rs.partials.assign(std::size_t(rs.vol) * std::size_t(np),
                           reductionIdentity(arg.redop));
        reds.push_back(std::move(rs));
    }

    if (scalar_oracle || task.kernel->plan == nullptr) {
        // Oracle path: whole points shard across workers, private
        // interpreter state per worker (the pre-plan reference shape).
        pool_->parallelFor(np, workers_, [&](int worker, coord_t p) {
            std::vector<kir::BufferBinding> &b =
                workerBindings_[std::size_t(worker)];
            buildBindings(task, int(p), b, true);
            for (RedSlot &rs : reds) {
                b[rs.arg].base = rs.partials.data() +
                                 std::size_t(p) * std::size_t(rs.vol);
            }
            executors_[std::size_t(worker)].runScalar(fn, b,
                                                      task.scalars);
        });
    } else {
        executeSharded(task, [&](int p,
                                 std::vector<kir::BufferBinding> &b) {
            buildBindings(task, p, b, true);
            for (RedSlot &rs : reds) {
                b[rs.arg].base = rs.partials.data() +
                                 std::size_t(p) * std::size_t(rs.vol);
            }
        });
    }

    // Merge reduction partials in point order: the combine sequence
    // is identical for every worker count, so sums stay bit-identical
    // whether one worker ran all points or eight shared them.
    for (const RedSlot &rs : reds) {
        const LowArg &arg = task.args[rs.arg];
        double *dst =
            reinterpret_cast<double *>(rec(arg.store).data.data());
        for (coord_t p = 0; p < np; p++) {
            const double *src =
                rs.partials.data() + std::size_t(p) * std::size_t(rs.vol);
            for (coord_t e = 0; e < rs.vol; e++)
                dst[e] = applyReduction(arg.redop, dst[e], src[e]);
        }
    }
}

void
LowRuntime::executeSharded(
    const LaunchedTask &task,
    const std::function<void(int, std::vector<kir::BufferBinding> &)>
        &prepare)
{
    const kir::KernelFunction &fn = task.kernel->fn;
    const kir::ExecutablePlan &plan = *task.kernel->plan;
    int np = task.numPoints;

    // Resolve every point's plan against its bindings (serial: cheap,
    // and the contexts recycle their local-temporary arenas).
    if (int(pointCtxs_.size()) < np)
        pointCtxs_.resize(std::size_t(np));
    std::vector<kir::BufferBinding> &scratch = workerBindings_[0];
    for (int p = 0; p < np; p++) {
        prepare(p, scratch);
        pointCtxs_[std::size_t(p)].bind(fn, plan, scratch,
                                        task.scalars,
                                        task.kernel->jit.get());
    }

    // Nests execute in order with a barrier between them (a later nest
    // may consume what an earlier one produced). Within a nest,
    // workers claim strip (or row) ranges flattened across points —
    // points are independent here, so any interleaving is sound.
    std::vector<coord_t> offsets(std::size_t(np) + 1, 0);
    for (std::size_t n = 0; n < plan.nests.size(); n++) {
        const kir::NestPlan &npn = plan.nests[n];
        bool dense = npn.kind == kir::NestKind::Dense;

        // Reduction-carrying nests fold lanes in element order into
        // per-point slots; nests whose instances fell back to the
        // scalar oracle keep interleaved semantics. Both run whole
        // nests per point (still concurrently across points).
        bool ranged = !dense || npn.dense.reductions.empty();
        for (int p = 0; ranged && p < np; p++) {
            if (!pointCtxs_[std::size_t(p)].nest(int(n)).stripParallel)
                ranged = false;
        }
        if (!ranged) {
            pool_->parallelFor(np, workers_, [&](int worker, coord_t p) {
                executors_[std::size_t(worker)].runNest(
                    pointCtxs_[std::size_t(p)], int(n));
            });
            continue;
        }

        coord_t total = 0;
        for (int p = 0; p < np; p++) {
            const kir::ResolvedNest &rn =
                pointCtxs_[std::size_t(p)].nest(int(n));
            offsets[std::size_t(p)] = total;
            total += dense ? rn.strips : rn.rows;
        }
        offsets[std::size_t(np)] = total;
        if (total == 0)
            continue;

        coord_t chunk =
            chunkOverride_ > 0
                ? coord_t(chunkOverride_)
                : std::max<coord_t>(1, total / (coord_t(workers_) * 8));
        std::uint64_t epoch = ++stripEpoch_;
        pool_->parallelForChunked(total, chunk, workers_,
                                  [&](int worker,
                                                   coord_t begin,
                                                   coord_t end) {
            kir::Executor &ex = executors_[std::size_t(worker)];
            int p = int(std::upper_bound(offsets.begin(),
                                         offsets.end(), begin) -
                        offsets.begin()) -
                    1;
            coord_t s = begin;
            while (s < end) {
                coord_t limit =
                    std::min(end, offsets[std::size_t(p) + 1]);
                if (limit > s) {
                    kir::PointContext &ctx = pointCtxs_[std::size_t(p)];
                    coord_t lo = s - offsets[std::size_t(p)];
                    coord_t hi = limit - offsets[std::size_t(p)];
                    if (dense)
                        ex.runStrips(ctx, int(n), lo, hi, epoch);
                    else if (npn.kind == kir::NestKind::Gemv)
                        ex.runGemvRows(ctx, int(n), lo, hi);
                    else
                        ex.runCsrRows(ctx, int(n), lo, hi);
                }
                s = limit;
                p++;
            }
        });
    }
}

void
LowRuntime::executeBatchedCompute(const LaunchedTask &task,
                                  bool scalar_oracle,
                                  bool inject_kernel)
{
    const kir::KernelFunction &fn = task.kernel->fn;
    int np = task.numPoints;
    // Mirror the unbatched dispatch decision exactly: the sharded
    // path (and its tasksSharded counter) engages under the same
    // condition, and the injected fault executes no point either way.
    bool per_point = task.parallelSafe && workers_ > 1 && np > 1;
    if (per_point && !inject_kernel)
        stats_.tasksSharded++;

    // Reduction accumulators divert to per-point slots and merge in
    // point order below — the unbatched sharded discipline, which is
    // bit-identical to the sequential combine for every worker count.
    struct RedSlot
    {
        std::size_t arg;
        coord_t vol;
        std::vector<double> partials;
    };
    std::vector<RedSlot> reds;
    if (per_point && !inject_kernel) {
        for (std::size_t i = 0; i < task.args.size(); i++) {
            const LowArg &arg = task.args[i];
            if (!privReduces(arg.priv))
                continue;
            RedSlot rs;
            rs.arg = i;
            rs.vol = rec(arg.store).shape.volume();
            rs.partials.assign(std::size_t(rs.vol) * std::size_t(np),
                               reductionIdentity(arg.redop));
            reds.push_back(std::move(rs));
        }
    }

    // This thread blocks inside joinAndRun until its items ran, so
    // the closures may reference this frame freely. Slot ids are
    // job-unique and capped at workers_ (identical across members of
    // a key — the planning fingerprint is part of the epoch code), so
    // per-slot executors and binding scratch never race or overflow.
    kir::BatchWork work;
    if (inject_kernel) {
        // The unbatched injected fault runs no point and throws from
        // the last item; here the coalescer captures it for this
        // member alone — siblings in the batch are untouched.
        work.items = np;
        work.run = [&task, np](int, coord_t p) {
            if (p == coord_t(np - 1))
                throw DiffuseError(makeError(ErrorCode::KernelFault,
                                             "injected kernel fault",
                                             task.name));
        };
    } else if (per_point) {
        work.items = np;
        work.run = [this, &task, &fn, &reds,
                    scalar_oracle](int slot, coord_t p) {
            std::vector<kir::BufferBinding> &b =
                workerBindings_[std::size_t(slot)];
            buildBindings(task, int(p), b, true);
            for (RedSlot &rs : reds) {
                b[rs.arg].base = rs.partials.data() +
                                 std::size_t(p) * std::size_t(rs.vol);
            }
            if (scalar_oracle || task.kernel->plan == nullptr)
                executors_[std::size_t(slot)].runScalar(fn, b,
                                                        task.scalars);
            else
                executors_[std::size_t(slot)].run(
                    fn, *task.kernel->plan, b, task.scalars,
                    task.kernel->jit.get());
        };
    } else {
        // Sequential reference semantics: this member's points run in
        // point order on one slot (points may alias), concurrently
        // only with *sibling sessions'* items — disjoint stores.
        work.items = 1;
        work.run = [this, &task, &fn, np, scalar_oracle](int slot,
                                                         coord_t) {
            std::vector<kir::BufferBinding> &b =
                workerBindings_[std::size_t(slot)];
            for (int p = 0; p < np; p++) {
                buildBindings(task, p, b, true);
                if (scalar_oracle || task.kernel->plan == nullptr)
                    executors_[std::size_t(slot)].runScalar(
                        fn, b, task.scalars);
                else
                    executors_[std::size_t(slot)].run(
                        fn, *task.kernel->plan, b, task.scalars,
                        task.kernel->jit.get());
            }
        };
    }

    std::exception_ptr err =
        coalescer_->joinAndRun(task.batchEpoch, task.batchIndex,
                               sessionId_, workers_, std::move(work));
    if (err)
        std::rethrow_exception(err); // this session's failure alone

    // Merge reduction partials in point order — the unbatched merge,
    // verbatim: bit-identical for every worker count and occupancy.
    for (const RedSlot &rs : reds) {
        const LowArg &arg = task.args[rs.arg];
        double *dst =
            reinterpret_cast<double *>(rec(arg.store).data.data());
        for (coord_t p = 0; p < np; p++) {
            const double *src = rs.partials.data() +
                                std::size_t(p) * std::size_t(rs.vol);
            for (coord_t e = 0; e < rs.vol; e++)
                dst[e] = applyReduction(arg.redop, dst[e], src[e]);
        }
    }
}

void
LowRuntime::beginBatchEpoch(std::uint64_t epoch_id, int batchable)
{
    if (coalescer_ == nullptr || epoch_id == 0 || batchable <= 0)
        return;
    coalescer_->announce(epoch_id, sessionId_);
    activeBatch_.push_back({epoch_id, batchable});
}

void
LowRuntime::accountBatchTask(std::uint64_t epoch_id)
{
    // Pipelined replays of one epoch coexist; the counters are
    // fungible, so the oldest matching announcement absorbs the tick.
    for (auto it = activeBatch_.begin(); it != activeBatch_.end();
         ++it) {
        if (it->epochId != epoch_id)
            continue;
        if (--it->remaining <= 0) {
            if (coalescer_ != nullptr)
                coalescer_->retract(epoch_id, sessionId_);
            activeBatch_.erase(it);
        }
        return;
    }
}

void
LowRuntime::finishRetired(const LaunchedTask &task)
{
    for (const LowArg &arg : task.args) {
        auto it = stores_.find(arg.store);
        diffuse_assert(it != stores_.end(),
                       "retired task %s references dead store %llu",
                       task.name.c_str(),
                       (unsigned long long)arg.store);
        StoreRec &r = it->second;
        diffuse_assert(r.pendingUses > 0, "pending-use underflow on "
                       "store %llu", (unsigned long long)arg.store);
        r.pendingUses--;
        if (r.zombie && r.pendingUses == 0) {
            StoreId sid = arg.store;
            zombies_--;
            recycleAllocation(r);
            stores_.erase(it);
            poisoned_.erase(sid);
            shards_.onStoreDestroyed(sid);
            stream_.forgetStore(sid);
        }
    }
}

double
LowRuntime::readScalarValue(StoreId id)
{
    stream_.waitStore(id);
    throwIfPoisoned(id);
    StoreRec &r = rec(id);
    if (mode_ != ExecutionMode::Real)
        return 0.0;
    if (r.dtype != DType::F64)
        throw DiffuseError(makeError(ErrorCode::InvalidArgument,
                                     "scalar read of non-f64 store",
                                     std::string(), id));
    ensureAllocated(r);
    // Scalar stores are written replicated (canonical) in practice,
    // but a sharded write is legal: gather before reading.
    shards_.gatherToCanonical(id, r.data.data());
    return *reinterpret_cast<const double *>(r.data.data());
}

void
LowRuntime::throwIfPoisoned(StoreId id) const
{
    auto it = poisoned_.find(id);
    if (it == poisoned_.end())
        return;
    const Error &root = it->second;
    throw DiffuseError(makeError(
        ErrorCode::StorePoisoned,
        "read of poisoned store: " + root.describe(), root.originTask,
        id, root.originEvent));
}

void
LowRuntime::onTaskFailed(const LaunchedTask &task, const Error &e,
                         bool cancelled)
{
    // The failed (or cancelled) task's mutable stores hold undefined
    // contents: the kernel may have partially run, or never ran at
    // all. Poison them — host reads surface the root cause instead of
    // garbage. The first poisoning error per store wins (root cause).
    for (const LowArg &arg : task.args) {
        if (!privWrites(arg.priv) && !privReduces(arg.priv))
            continue;
        if (poisoned_.emplace(arg.store, e).second)
            faultStats_.storesPoisoned++;
    }
    if (sessionError_.ok())
        sessionError_ = e;
    // Cancelled tasks never reach executeRetired: account their batch
    // tags here so the epoch's replayer announcement still retracts
    // (executed-and-failed tasks were accounted at execution).
    if (cancelled && task.batchEpoch != 0)
        accountBatchTask(task.batchEpoch);
    if (!cancelled)
        diffuse_warn_session(sessionId_, "session %llu: task failed: %s",
                             (unsigned long long)sessionId_,
                             e.describe().c_str());
}

void
LowRuntime::resetAfterError()
{
    // Drain everything still in flight first: cancellations cascade
    // through the fail fn (recording, not throwing), extending the
    // poisoned set to its final extent.
    stream_.fence();
    stream_.clearFailures();
    foldScheduleClocks();
    for (const auto &[id, err] : poisoned_) {
        auto it = stores_.find(id);
        if (it == stores_.end())
            continue; // destroyed while poisoned
        StoreRec &r = it->second;
        // Quarantine: drop the undefined allocation and reset the
        // coherence record. The next use re-materializes the store
        // from its `init` value — defined, if not meaningful, data.
        recycleAllocation(r);
        r.replicatedValid = true;
        r.lastWriteLayout = 0;
        r.lastWritePieces.clear();
        shards_.onHostWrite(id);
    }
    poisoned_.clear();
    sessionError_ = Error();
    // Counter hygiene: rewind the injector's per-kind opportunity
    // counters (keeping seed/rate/kinds) so a recovered session's
    // re-run samples the same deterministic fault sequence as a fresh
    // session — post-recovery behavior must not depend on how many
    // opportunities the failed run burned. Armed shots are disarmed;
    // tests re-arm after reset when they want another failure.
    faults_.resetCounters();
}

} // namespace rt
} // namespace diffuse
