#include "diffuse.h"

#include <atomic>
#include <chrono>
#include <cstring>

#include "common/env.h"
#include "common/logging.h"

namespace diffuse {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Process-wide session numbering (warning/error attribution). */
std::atomic<std::uint64_t> g_nextSessionId{1};

} // namespace

DiffuseRuntime::DiffuseRuntime(const rt::MachineConfig &machine,
                               DiffuseOptions options)
    : DiffuseRuntime(SharedContext::create(machine), options)
{
}

DiffuseRuntime::DiffuseRuntime(std::shared_ptr<SharedContext> shared,
                               DiffuseOptions options)
    : ctx_(std::move(shared)),
      options_(options),
      low_(ctx_->machine(), options.mode, options.workers,
           options.ranks, ctx_->pool(), ctx_->buffers()),
      planner_(registry_, ctx_->compiler(), stores_,
               PlannerOptions{options.tempElimination,
                              options.kernelOptimization}),
      windowSize_(options.fusionEnabled ? options.initialWindow : 1)
{
    diffuse_assert(windowSize_ >= 1, "window must hold a task");
    fusionStats_.windowSize = windowSize_;
    low_.setSessionId(
        g_nextSessionId.fetch_add(1, std::memory_order_relaxed));
    // The planning fingerprint scopes every shared-cache key to this
    // session's configuration: any knob (beyond the event stream
    // itself) that changes what the planner emits, what the runtime
    // records, or how the window evolves must be mixed in here.
    planSalt_ = 0x53455353u; // "SESS"
    hashCombine64(planSalt_, options_.fusionEnabled ? 1 : 0);
    hashCombine64(planSalt_, options_.kernelOptimization ? 1 : 0);
    hashCombine64(planSalt_, options_.tempElimination ? 1 : 0);
    hashCombine64(planSalt_, options_.memoization ? 1 : 0);
    hashCombine64(planSalt_, std::uint64_t(options_.mode));
    hashCombine64(planSalt_, std::uint64_t(low_.workers()));
    hashCombine64(planSalt_, std::uint64_t(low_.ranks()));
    hashCombine64(planSalt_, std::uint64_t(options_.initialWindow));
    hashCombine64(planSalt_, std::uint64_t(options_.maxWindow));
    jitEnabled_ = options.jit >= 0
                      ? options.jit != 0
                      : envInt("DIFFUSE_JIT", 0, 0, 1) != 0;
    // In planSalt_: attach() mutates the cached kernel (sets its jit
    // module), so jit=0 and jit=1 sessions must never share entries —
    // a jit=0 oracle session would otherwise dispatch native code.
    hashCombine64(planSalt_, jitEnabled_ ? 1 : 0);
    traceEnabled_ = options.trace >= 0
                        ? options.trace != 0
                        : envInt("DIFFUSE_TRACE", 1, 0, 1) != 0;
    // Not mixed into planSalt_: plans and trace epochs are identical
    // across pipeline modes, so cached entries stay shareable.
    pipelineEnabled_ = options.pipeline >= 0
                           ? options.pipeline != 0
                           : envInt("DIFFUSE_PIPELINE", 0, 0, 1) != 0;
    // Likewise not in planSalt_: batching only changes *where* a
    // replayed retirement executes, never what the planner emits —
    // and the epochs batching keys on must stay shareable across the
    // DIFFUSE_BATCH oracle pair.
    bool batch_enabled = options.batch >= 0
                             ? options.batch != 0
                             : envInt("DIFFUSE_BATCH", 0, 0, 1) != 0;
    if (batch_enabled && options.mode == rt::ExecutionMode::Real)
        low_.setBatchCoalescer(ctx_->batcher());
    if (traceEnabled_) {
        low_.setHostWriteObserver(
            [this](StoreId id) { traceOnHostWrite(id); });
    }
    traceBeginEpoch();
}

std::uint64_t
DiffuseRuntime::cacheSalt() const
{
    std::uint64_t salt = planSalt_;
    hashCombine64(salt, registry_.fingerprint());
    return salt;
}

DiffuseRuntime::~DiffuseRuntime()
{
    // Sessions may be torn down mid-flight (a serving client hangs
    // up): retire everything already submitted to the stream; tasks
    // still buffered in the window are abandoned. Shared caches hold
    // only canonical, session-independent state and stay usable.
    low_.fence();
}

StoreId
DiffuseRuntime::createStore(const Point &shape, DType dtype, double init,
                            const std::string &name)
{
    StoreId id = low_.createStore(shape, dtype, init);
    stores_.add(id, Rect::fromShape(shape), dtype, name);
    return id;
}

void
DiffuseRuntime::retainApp(StoreId id)
{
    if (traceRouting()) {
        TraceEvent ev;
        ev.kind = TraceEventKind::Retain;
        ev.store = id;
        traceOnEvent(std::move(ev));
        return;
    }
    stores_.retainApp(id);
}

void
DiffuseRuntime::releaseApp(StoreId id)
{
    if (traceRouting()) {
        TraceEvent ev;
        ev.kind = TraceEventKind::Release;
        ev.store = id;
        traceOnEvent(std::move(ev));
        return;
    }
    applyRelease(id);
}

void
DiffuseRuntime::applyRelease(StoreId id)
{
    if (stores_.releaseApp(id)) {
        low_.destroyStore(id);
        stores_.remove(id);
    }
}

const StoreMeta &
DiffuseRuntime::storeMeta(StoreId id) const
{
    return stores_.get(id);
}

void
DiffuseRuntime::submit(IndexTask task)
{
    if (failed())
        throw DiffuseError(makeError(
            ErrorCode::SessionFailed,
            "submit into failed session (resetAfterError() to "
            "recover); root cause: " +
                error().describe()));
    if (task.launchDomain.empty())
        throw DiffuseError(makeError(
            ErrorCode::InvalidArgument,
            strprintf("task %s has an empty launch domain",
                      task.name.c_str())));
    Clock::time_point t0 = Clock::now();
    for (const StoreArg &arg : task.args)
        stores_.retainWindow(arg.store);
    fusionStats_.tasksSubmitted++;
    if (traceRouting()) {
        TraceEvent ev;
        ev.kind = TraceEventKind::Submit;
        ev.task = std::move(task);
        traceOnEvent(std::move(ev));
    } else {
        window_.push_back(std::move(task));
        while (int(window_.size()) >= windowSize_)
            processOne();
    }
    traceEpochSeconds_ += secondsSince(t0);
}

void
DiffuseRuntime::flushWindow()
{
    flushWindowImpl(pipelineEnabled_);
}

void
DiffuseRuntime::flushWindowAsync()
{
    flushWindowImpl(true);
}

void
DiffuseRuntime::flushWindowImpl(bool pipelined)
{
    Clock::time_point t0 = Clock::now();
    fusionStats_.flushes++;
    if (traceEnabled_) {
        if (traceMode_ == TraceMode::Speculating) {
            if (traceTryReplay()) {
                fusionStats_.replaySubmitSeconds +=
                    traceEpochSeconds_ + secondsSince(t0);
                fusionStats_.traceEpochsReplayed++;
                // Pipelined: the epoch stays in flight; the epoch
                // mark inside traceBeginEpoch() gives the next
                // window's submissions fence-equivalent ordering
                // against it, and failures latch at the next
                // synchronizing point instead of here.
                if (!pipelined)
                    low_.fence();
                traceBeginEpoch();
                // The fence never throws; failures it drained into
                // the session state surface here, at the paper's
                // synchronization point.
                if (low_.failed())
                    throw DiffuseError(low_.error());
                return;
            }
            // A candidate engaged but the epoch ended early or failed
            // validation: fall back to the analyzed path and
            // recapture (replacing the stale cache entry).
            fusionStats_.traceAborts++;
            traceMode_ = TraceMode::Capturing;
            traceBeginCapture();
            traceDrainPending();
        }
    }
    traceCurEvent_ = traceEvent_; // flush-emitted units
    while (!window_.empty())
        processOne();
    if (traceMode_ == TraceMode::Capturing)
        traceFinalizeCapture();
    fusionStats_.plannedSubmitSeconds +=
        traceEpochSeconds_ + secondsSince(t0);
    // Drain the asynchronous stream: flush is the paper's
    // synchronization point, so every submitted group retires here —
    // unless pipelining keeps the epoch in flight (see above).
    if (!pipelined)
        low_.fence();
    traceBeginEpoch();
    // Failures recorded during the drain surface now, as the root
    // cause; the session stays failed until resetAfterError().
    if (low_.failed())
        throw DiffuseError(low_.error());
}

double
DiffuseRuntime::readScalar(StoreId id)
{
    flushWindow();
    return low_.readScalarValue(id);
}

std::vector<double>
DiffuseRuntime::readStoreF64(StoreId id)
{
    flushWindow();
    const StoreMeta &meta = stores_.get(id);
    std::size_t n = std::size_t(meta.shape.volume());
    std::vector<double> out(n);
    const double *p = low_.dataF64(id);
    std::memcpy(out.data(), p, n * sizeof(double));
    return out;
}

void
DiffuseRuntime::writeStoreF64(StoreId id, const std::vector<double> &v)
{
    flushWindow();
    const StoreMeta &meta = stores_.get(id);
    std::size_t n = std::size_t(meta.shape.volume());
    if (v.size() != n)
        throw DiffuseError(makeError(
            ErrorCode::InvalidArgument,
            strprintf("writeStoreF64 size mismatch: %zu values for %zu "
                      "elements",
                      v.size(), n),
            std::string(), id));
    // A full overwrite redefines the contents: lift any poison before
    // the accessor (which would otherwise surface the stale failure).
    low_.clearPoison(id);
    std::memcpy(low_.overwriteF64(id), v.data(), n * sizeof(double));
    low_.markInitialized(id);
}

void
DiffuseRuntime::resetAfterError()
{
    // Abandon buffered work, releasing the references it holds.
    // Deferred (speculating) events are unwound likewise: submits are
    // dropped, retains/releases applied so app refcounts stay exact.
    for (TraceEvent &ev : tracePending_) {
        switch (ev.kind) {
          case TraceEventKind::Submit:
            releaseTaskRefs(ev.task);
            break;
          case TraceEventKind::Retain:
            stores_.retainApp(ev.store);
            break;
          case TraceEventKind::Release:
            applyRelease(ev.store);
            break;
        }
    }
    tracePending_.clear();
    for (IndexTask &t : window_)
        releaseTaskRefs(t);
    window_.clear();
    low_.resetAfterError();
    traceBeginEpoch();
}

bool
DiffuseRuntime::windowReadsBeyond(StoreId id,
                                  std::size_t prefix_len) const
{
    // Definition 4, condition 2: a pending task beyond the prefix
    // reads or reduces the store.
    for (std::size_t t = prefix_len; t < window_.size(); t++) {
        for (const StoreArg &arg : window_[t].args) {
            if (arg.store == id &&
                (privReads(arg.priv) || privReduces(arg.priv))) {
                return true;
            }
        }
    }
    return false;
}

bool
DiffuseRuntime::liveAfterIndex(StoreId id, std::size_t prefix_len) const
{
    // Definition 4, condition 3: live application references.
    if (stores_.get(id).appRefs > 0)
        return true;
    return windowReadsBeyond(id, prefix_len);
}

ExecutionGroup
DiffuseRuntime::buildSingleCached(const IndexTask &task)
{
    // Library task variants are compiled ahead of time in the real
    // system; cache them by type and signature.
    kir::GenSignature sig = planner_.signatureFor(task);
    std::string key;
    key.reserve(16 + sig.args.size() * 16);
    auto append = [&key](std::uint64_t v) {
        key.append(reinterpret_cast<const char *>(&v), sizeof(v));
    };
    append(task.type);
    append(std::uint64_t(sig.numScalars));
    for (const kir::ArgInfo &a : sig.args) {
        append(std::uint64_t(a.dims));
        append(std::uint64_t(a.dtype));
        append(std::uint64_t(a.aliasClass + 1));
        append(std::uint64_t(a.shapeClass + 1));
    }

    append(cacheSalt());

    ExecutionGroup group;
    group.task = task;
    group.sourceTasks = 1;
    group.fused = false;
    group.kernel = ctx_->singleKernel(key, [&] {
        std::shared_ptr<kir::CompiledKernel> k =
            planner_.buildSingle(task).kernel;
        if (jitEnabled_ && k)
            ctx_->jit().attach(key, *k);
        return k;
    });
    return group;
}

void
DiffuseRuntime::processOne()
{
    if (window_.empty())
        return;

    bool was_full = int(window_.size()) >= windowSize_;

    FusionBlock block = FusionBlock::None;
    int f = options_.fusionEnabled
                ? planner_.findPrefix(window_, &block)
                : 1;
    diffuse_assert(f >= 1, "planner returned empty prefix");
    fusionStats_.blocks[std::size_t(block)]++;

    std::span<const IndexTask> prefix(window_.data(), std::size_t(f));
    ExecutionGroup group;
    if (f >= 2) {
        auto live = [this, f](StoreId id) {
            if (!traceCaptureUnits_)
                return liveAfterIndex(id, std::size_t(f));
            // Capture splits the liveness conditions: the in-window
            // component is implied by a matching event stream, so
            // only app-refcount-decided bits need replay validation.
            bool app = stores_.get(id).appRefs > 0;
            bool win = windowReadsBeyond(id, std::size_t(f));
            if (!win) {
                int slot = traceEnc_.slotOf(id);
                diffuse_assert(slot >= 0,
                               "liveness probe for store outside the "
                               "captured epoch");
                bool seen = false;
                for (const TraceProbe &p : traceProbes_)
                    seen = seen || p.slot == slot;
                if (!seen)
                    traceProbes_.push_back({slot, app});
            }
            return app || win;
        };
        if (options_.memoization) {
            Memoizer &memo = ctx_->memo();
            std::vector<StoreId> slots;
            std::string key = memo.encode(prefix, stores_, live, &slots);
            std::uint64_t salt = cacheSalt();
            key.append(reinterpret_cast<const char *>(&salt),
                       sizeof(salt));
            // Atomic lookup-or-build: with a shared context, sessions
            // racing on the same cold group serialize on its shard
            // and the group is planned and compiled exactly once
            // process-wide.
            const CachedGroup *plan = memo.getOrBuild(key, [&] {
                CachedGroup g = Memoizer::canonicalize(
                    planner_.buildFused(prefix, live), slots);
                if (jitEnabled_ && g.kernel)
                    ctx_->jit().attach(key, *g.kernel);
                return g;
            });
            group = Memoizer::instantiate(*plan, prefix, slots);
        } else {
            group = planner_.buildFused(prefix, live);
        }
        fusionStats_.fusedGroups++;
        fusionStats_.tempsEliminated += group.temps.size();
    } else {
        group = buildSingleCached(window_.front());
        fusionStats_.singleTasks++;
    }

    scheduleGroup(group);
    if (traceCaptureUnits_)
        traceRecordUnit(f, block, group);

    // Retire the emitted tasks and drop their window references.
    for (int t = 0; t < f; t++)
        releaseTaskRefs(window_[std::size_t(t)]);
    window_.erase(window_.begin(), window_.begin() + f);

    // Automatic window growth (paper §7): when a full window fused
    // entirely into one task, double the window.
    if (was_full && f >= windowSize_ &&
        windowSize_ < options_.maxWindow) {
        windowSize_ = std::min(windowSize_ * 2, options_.maxWindow);
        fusionStats_.windowGrowths++;
        traceEpochGrowths_++;
        fusionStats_.windowSize = windowSize_;
    }
}

void
DiffuseRuntime::scheduleGroup(const ExecutionGroup &group)
{
    // Submission is asynchronous: the group executes once its
    // dependencies retire (or at the next fence), letting the window
    // pipeline run ahead of the task stream.
    low_.submit(lowerGroup(group, stores_, low_));
    fusionStats_.groupsLaunched++;
}

void
DiffuseRuntime::releaseTaskRefs(const IndexTask &task)
{
    for (const StoreArg &arg : task.args) {
        if (stores_.releaseWindow(arg.store)) {
            low_.destroyStore(arg.store);
            stores_.remove(arg.store);
        }
    }
}

void
DiffuseRuntime::destroyIfDead(StoreId id)
{
    const StoreMeta &meta = stores_.get(id);
    if (meta.appRefs == 0 && meta.windowRefs == 0) {
        low_.destroyStore(id);
        stores_.remove(id);
    }
}

// ---------------------------------------------------------------------
// Trace-memoized window replay
// ---------------------------------------------------------------------

bool
DiffuseRuntime::traceRouting() const
{
    return traceEnabled_ && traceMode_ != TraceMode::Bypassed;
}

void
DiffuseRuntime::traceBeginEpoch()
{
    if (low_.capturing())
        low_.endSubmitCapture();
    // Epoch boundary for the task stream: under pipelining the
    // previous epoch is still in flight here, and this mark gives the
    // new epoch's submissions fence-equivalent ordering against it.
    // Redundant (stream drained) when pipelining is off.
    low_.markStreamEpoch();
    traceMode_ = TraceMode::Idle;
    traceEnc_.reset(windowSize_);
    epochCodes_.clear();
    traceSigs_.clear();
    tracePending_.clear();
    traceCands_.clear();
    traceRec_.reset();
    traceLog_.clear();
    traceLogMark_ = 0;
    traceProbes_.clear();
    traceEvent_ = 0;
    traceCurEvent_ = 0;
    traceCaptureUnits_ = false;
    traceEpochGrowths_ = 0;
    traceEpochSeconds_ = 0.0;
}

void
DiffuseRuntime::traceOnEvent(TraceEvent ev)
{
    // The registry half of the salt settles only once libraries have
    // registered their task types — refresh it as the epoch's first
    // code is built (events always carry registered types).
    if (traceEvent_ == 0)
        traceEnc_.setSalt(cacheSalt());
    std::vector<StoreId> fresh;
    std::string code = traceEnc_.encode(ev, stores_, &fresh);
    int idx = traceEvent_++;
    epochCodes_.push_back(code);
    // Fresh slots' runtime state is snapshotted before anything in
    // this epoch can have touched them: a store is only mutated by
    // processing events in which it already appeared.
    std::size_t sig_base = traceSigs_.size();
    for (StoreId sid : fresh)
        traceSigs_.push_back(low_.storeStateSignature(sid));

    auto sigs_match = [&](const TraceEpoch *c) {
        for (std::size_t i = sig_base; i < traceSigs_.size(); i++) {
            if (i >= c->slotSigs.size() || c->slotSigs[i] != traceSigs_[i])
                return false;
        }
        return true;
    };

    switch (traceMode_) {
      case TraceMode::Idle: {
        // Snapshot the bucket (shared caches: candidates are held by
        // shared_ptr, so a concurrent replacement cannot invalidate
        // this session's speculation), then narrow by signature.
        bool has_bucket =
            ctx_->traceCache().candidates(code, &traceCands_);
        std::size_t live = 0;
        for (std::size_t i = 0; i < traceCands_.size(); i++) {
            if (!sigs_match(traceCands_[i].get()))
                continue;
            if (live != i)
                traceCands_[live] = std::move(traceCands_[i]);
            live++;
        }
        traceCands_.resize(live);
        if (!traceCands_.empty()) {
            traceMode_ = TraceMode::Speculating;
            tracePending_.push_back(std::move(ev));
            return;
        }
        // A full cache can still *replace* an epoch sharing this
        // first code (stale signatures); but when none does, capture
        // could never be stored — skip its overhead outright.
        if (!has_bucket &&
            ctx_->traceCache().entries() >= kTraceMaxEntries) {
            traceMode_ = TraceMode::Bypassed;
            traceCurEvent_ = idx;
            traceApplyEvent(ev);
            return;
        }
        traceMode_ = TraceMode::Capturing;
        traceBeginCapture();
        traceCurEvent_ = idx;
        traceApplyEvent(ev);
        return;
      }
      case TraceMode::Speculating: {
        std::size_t kept = 0;
        for (std::size_t i = 0; i < traceCands_.size(); i++) {
            const TraceEpoch *c = traceCands_[i].get();
            if (std::size_t(idx) < c->codes.size() &&
                c->codes[std::size_t(idx)] == code && sigs_match(c)) {
                if (kept != i)
                    traceCands_[kept] = std::move(traceCands_[i]);
                kept++;
            }
        }
        traceCands_.resize(kept);
        if (kept == 0) {
            fusionStats_.traceAborts++;
            traceMode_ = TraceMode::Capturing;
            traceBeginCapture();
            traceDrainPending();
            traceCurEvent_ = idx;
            traceApplyEvent(ev);
            return;
        }
        tracePending_.push_back(std::move(ev));
        return;
      }
      case TraceMode::Capturing: {
        if (traceEvent_ > kTraceMaxEvents)
            traceSwitchToBypass();
        traceCurEvent_ = idx;
        traceApplyEvent(ev);
        return;
      }
      case TraceMode::Bypassed:
        traceCurEvent_ = idx;
        traceApplyEvent(ev);
        return;
    }
}

void
DiffuseRuntime::traceDrainPending()
{
    std::vector<TraceEvent> pend = std::move(tracePending_);
    tracePending_.clear();
    for (std::size_t i = 0; i < pend.size(); i++) {
        traceCurEvent_ = int(i);
        traceApplyEvent(pend[i]);
    }
}

void
DiffuseRuntime::traceApplyEvent(TraceEvent &ev)
{
    switch (ev.kind) {
      case TraceEventKind::Submit:
        window_.push_back(std::move(ev.task));
        while (int(window_.size()) >= windowSize_)
            processOne();
        break;
      case TraceEventKind::Retain:
        stores_.retainApp(ev.store);
        break;
      case TraceEventKind::Release:
        applyRelease(ev.store);
        break;
    }
}

void
DiffuseRuntime::traceBeginCapture()
{
    // Submission capture requires a drained stream (recorded hazard
    // edges must be intra-epoch). Pipelining can leave the previous
    // epoch in flight — fence it out first; with pipelining off the
    // stream is already drained and no fence is recorded.
    if (low_.streamPending() > 0)
        low_.fence();
    traceRec_ = std::make_unique<TraceEpoch>();
    traceLog_.clear();
    traceLogMark_ = 0;
    traceProbes_.clear();
    low_.beginSubmitCapture(&traceLog_);
    traceCaptureUnits_ = true;
}

void
DiffuseRuntime::traceSwitchToBypass()
{
    if (low_.capturing())
        low_.endSubmitCapture();
    traceCaptureUnits_ = false;
    traceRec_.reset();
    traceMode_ = TraceMode::Bypassed;
}

void
DiffuseRuntime::traceOnHostWrite(StoreId id)
{
    if (traceMode_ == TraceMode::Idle ||
        traceMode_ == TraceMode::Bypassed) {
        return;
    }
    if (traceEnc_.slotOf(id) < 0)
        return; // not part of this epoch: ordering is unaffected
    if (traceMode_ == TraceMode::Speculating) {
        // The accessor reads store state the moment this observer
        // returns, so the deferred prefix must reach the runtime NOW
        // — draining lazily would hand the host bytes that predate
        // tasks the analyzed path had already submitted. The write
        // makes this epoch untraceable either way.
        traceMode_ = TraceMode::Bypassed;
        traceCands_.clear();
        traceDrainPending();
    } else {
        traceSwitchToBypass();
    }
}

void
DiffuseRuntime::traceRecordUnit(int prefix_len, FusionBlock block,
                                const ExecutionGroup &group)
{
    diffuse_assert(traceRec_ != nullptr, "unit capture without epoch");
    TraceUnit u;
    u.prefixLen = prefix_len;
    u.endEvent = traceCurEvent_;
    u.block = block;
    u.fused = group.fused;
    u.temps = std::uint32_t(group.temps.size());
    u.probes = std::move(traceProbes_);
    traceProbes_.clear();
    u.subs.reserve(traceLog_.size() - traceLogMark_);
    for (std::size_t i = traceLogMark_; i < traceLog_.size(); i++) {
        rt::RecordedSubmission &sub = traceLog_[i];
        // Canonicalize store ids to epoch slots (every store of a
        // scheduled group appeared in this epoch's event stream).
        for (rt::LowArg &a : sub.task.args) {
            int slot = traceEnc_.slotOf(a.store);
            diffuse_assert(slot >= 0, "captured store %llu has no slot",
                           (unsigned long long)a.store);
            a.store = StoreId(slot);
        }
        if (sub.task.kind == rt::TaskKind::Copy) {
            int slot = traceEnc_.slotOf(sub.task.copy.store);
            diffuse_assert(slot >= 0, "captured copy has no slot");
            sub.task.copy.store = StoreId(slot);
        }
        u.subs.push_back(std::move(sub));
    }
    traceLogMark_ = traceLog_.size();
    traceRec_->units.push_back(std::move(u));
}

void
DiffuseRuntime::traceFinalizeCapture()
{
    if (low_.capturing())
        low_.endSubmitCapture();
    traceCaptureUnits_ = false;
    if (traceRec_ == nullptr)
        return;
    bool storable = traceEvent_ > 0 &&
                    traceEvent_ <= kTraceMaxEvents &&
                    traceLogMark_ == traceLog_.size();
    if (storable) {
        traceRec_->codes = std::move(epochCodes_);
        traceRec_->slotSigs = traceSigs_;
        traceRec_->windowSizeAfter = windowSize_;
        // Counted per-epoch, not by FusionStats delta: the app may
        // reset the stats mid-epoch (benches do, after warmup).
        traceRec_->growths = traceEpochGrowths_;
        if (ctx_->traceCache().store(std::move(traceRec_)))
            fusionStats_.traceEpochsCaptured++;
        fusionStats_.traceEntries = ctx_->traceCache().entries();
    }
    traceRec_.reset();
}

bool
DiffuseRuntime::traceTryReplay()
{
    TraceEpoch *match = nullptr;
    for (const std::shared_ptr<TraceEpoch> &c : traceCands_) {
        if (int(c->codes.size()) == traceEvent_) {
            match = c.get();
            break;
        }
    }
    if (match == nullptr)
        return false;
    if (!traceValidateProbes(*match)) {
        fusionStats_.traceValidationFailures++;
        return false;
    }
    // Injected trace faults model a corrupted/invalidated cached epoch:
    // degrade to the analyzed path (bitwise-identical by construction);
    // the caller recaptures, so steady state recovers on its own.
    if (low_.faults().enabled() &&
        low_.faults().shouldFault(rt::FaultKind::Trace)) {
        fusionStats_.traceValidationFailures++;
        return false;
    }
    traceReplay(*match);
    return true;
}

bool
DiffuseRuntime::traceValidateProbes(const TraceEpoch &epoch) const
{
    // Reconstruct each probed store's application refcount at its
    // unit's decision point: the current (epoch-entry) value plus the
    // deferred retain/release deltas of all earlier events.
    for (const TraceUnit &u : epoch.units) {
        for (const TraceProbe &p : u.probes) {
            StoreId sid = traceEnc_.slots()[std::size_t(p.slot)];
            int refs = stores_.get(sid).appRefs;
            int upto = std::min<int>(u.endEvent,
                                     int(tracePending_.size()) - 1);
            for (int e = 0; e <= upto; e++) {
                const TraceEvent &ev = tracePending_[std::size_t(e)];
                if (ev.store != sid)
                    continue;
                if (ev.kind == TraceEventKind::Retain)
                    refs++;
                else if (ev.kind == TraceEventKind::Release)
                    refs--;
            }
            if ((refs > 0) != p.appLive)
                return false;
        }
    }
    return true;
}

void
DiffuseRuntime::traceReplay(TraceEpoch &epoch)
{
    // Announce this replay to the batch coalescer before the first
    // submission: sibling sessions replaying the same epoch gather
    // their retirements; the announcement retracts itself once every
    // batchable retirement is accounted (runtime/runtime.cc).
    traceBatchEpoch_ = 0;
    traceBatchIndex_ = 0;
    if (low_.batchingEnabled() && epoch.epochId != 0 &&
        epoch.batchableSubs > 0) {
        traceBatchEpoch_ = epoch.epochId;
        low_.beginBatchEpoch(epoch.epochId,
                             int(epoch.batchableSubs));
    }
    std::vector<rt::EventId> events;
    std::deque<IndexTask> queue;
    std::size_t ui = 0;
    for (int i = 0; i <= traceEvent_; i++) {
        if (i < traceEvent_) {
            TraceEvent &ev = tracePending_[std::size_t(i)];
            switch (ev.kind) {
              case TraceEventKind::Submit:
                queue.push_back(std::move(ev.task));
                break;
              case TraceEventKind::Retain:
                stores_.retainApp(ev.store);
                break;
              case TraceEventKind::Release:
                applyRelease(ev.store);
                break;
            }
        }
        while (ui < epoch.units.size() &&
               epoch.units[ui].endEvent == i) {
            traceReplayUnit(epoch.units[ui++], queue, events);
        }
    }
    diffuse_assert(ui == epoch.units.size() && queue.empty(),
                   "trace replay consumed %zu of %zu units",
                   ui, epoch.units.size());
    tracePending_.clear();
    if (windowSize_ != epoch.windowSizeAfter) {
        windowSize_ = epoch.windowSizeAfter;
        fusionStats_.windowSize = windowSize_;
    }
    fusionStats_.windowGrowths += epoch.growths;
    fusionStats_.traceGroupsReplayed += epoch.units.size();
    epoch.replays.fetch_add(1, std::memory_order_relaxed);
    traceBatchEpoch_ = 0;
}

void
DiffuseRuntime::traceReplayUnit(const TraceUnit &unit,
                                std::deque<IndexTask> &queue,
                                std::vector<rt::EventId> &events)
{
    diffuse_assert(int(queue.size()) >= unit.prefixLen,
                   "replay unit needs %d tasks, window has %zu",
                   unit.prefixLen, queue.size());
    // A fused group's scalar block is the prefix's scalars in task
    // order (memo.h instantiates the same way) — the loop-variant
    // half of the rebinding; stores are the other.
    std::vector<double> scalars;
    for (int t = 0; t < unit.prefixLen; t++) {
        const IndexTask &task = queue[std::size_t(t)];
        scalars.insert(scalars.end(), task.scalars.begin(),
                       task.scalars.end());
    }
    for (const rt::RecordedSubmission &sub : unit.subs) {
        const std::vector<double> *sc =
            sub.task.kind == rt::TaskKind::Compute ? &scalars : nullptr;
        if (traceBatchEpoch_ != 0 &&
            sub.task.kind == rt::TaskKind::Compute) {
            low_.setNextBatchTag(traceBatchEpoch_,
                                 traceBatchIndex_++);
        }
        events.push_back(
            low_.submitRecorded(sub, traceEnc_.slots(), sc, events));
    }
    fusionStats_.groupsLaunched++;
    if (unit.fused)
        fusionStats_.fusedGroups++;
    else
        fusionStats_.singleTasks++;
    fusionStats_.tempsEliminated += unit.temps;
    fusionStats_.blocks[std::size_t(unit.block)]++;
    for (int t = 0; t < unit.prefixLen; t++) {
        releaseTaskRefs(queue.front());
        queue.pop_front();
    }
}

} // namespace diffuse
