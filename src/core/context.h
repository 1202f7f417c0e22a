/**
 * @file
 * SharedContext — the process-wide half of the runtime, split out of
 * DiffuseRuntime so many concurrent client sessions amortize one set
 * of caches (the serving scenario: heavy traffic of sessions running
 * the same solver shapes).
 *
 * A DiffuseRuntime ("session") owns everything whose identity is the
 * program being run: stores, the fusion window, the task stream,
 * shard placement, statistics. Everything whose identity is the
 * *program shape* — compiled kernels and executable plans (the
 * JitCompiler), canonicalized fused-group plans (the Memoizer),
 * captured window epochs (the TraceCache), the worker-thread pool,
 * and the buffer-recycling pool for store allocations — lives here,
 * behind sharded locks, so fusion analysis, kernel compilation and
 * trace capture are paid once per unique program point
 * *process-wide*, not once per session, and a buffer one session
 * frees serves the next session's store of its size class.
 *
 * Sessions created through createSession() share this context;
 * constructing a DiffuseRuntime directly gives it a private context
 * of its own (the historical single-client behavior, bit-for-bit).
 * Cached artifacts are keyed canonically (store ids alpha-renamed to
 * slots) plus a planning fingerprint covering every per-session knob
 * that shapes planner or runtime output (planner options, worker and
 * rank counts, execution mode, window bounds), so sessions with
 * different configurations never cross-contaminate. Results,
 * simulated schedules and the fusion-decision counters of
 * FusionStats (tasks/groups/fused/temps/blocks/window sizing) are
 * bitwise-identical whether a program runs serially in one session,
 * serially in N sessions, or concurrently from N threads; the
 * trace-reuse counters legitimately shift from "captured" toward
 * "replayed" in warm sessions (their sum is invariant) — that reuse
 * is the point. `DIFFUSE_SHARED_CACHE=0` (or
 * `DiffuseOptions::sharedCache = 0`) makes createSession() hand out
 * fully isolated sessions as the differential oracle.
 */

#ifndef DIFFUSE_CORE_CONTEXT_H
#define DIFFUSE_CORE_CONTEXT_H

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/memo.h"
#include "core/trace.h"
#include "kernel/codegen.h"
#include "kernel/compiler.h"
#include "kernel/exec.h"
#include "runtime/machine.h"
#include "runtime/runtime.h"

namespace diffuse {

struct DiffuseOptions;
class DiffuseRuntime;

/**
 * Process-wide shared state for a set of runtime sessions: one
 * compiler, one memoizer, one trace cache, one single-task kernel
 * cache, one lazily-started worker pool, one buffer-recycling pool.
 * Thread-safe throughout;
 * always held by shared_ptr (sessions keep their context alive).
 */
class SharedContext
    : public std::enable_shared_from_this<SharedContext>
{
    /** Passkey: createSession() needs shared_from_this(), so a
     * context must be shared_ptr-owned — the private token makes
     * stack/unique_ptr construction a compile error while keeping
     * the constructor public for make_shared. */
    struct Token
    {
        explicit Token() = default;
    };

  public:
    /**
     * Use create(). All sessions of one context run against one
     * machine model — cached trace timings and cost-model output are
     * functions of it, so it is fixed at context scope rather than
     * per session.
     */
    SharedContext(Token, const rt::MachineConfig &machine);

    static std::shared_ptr<SharedContext>
    create(const rt::MachineConfig &machine)
    {
        return std::make_shared<SharedContext>(Token{}, machine);
    }

    /**
     * Create a session. With shared caching enabled (the default;
     * opt out via DiffuseOptions::sharedCache = 0 or
     * DIFFUSE_SHARED_CACHE=0) the session shares this context's
     * caches and worker pool; opted out it is constructed fully
     * isolated, exactly like a directly-constructed DiffuseRuntime.
     * Thread-safe: concurrent serving threads create their own
     * sessions without external locking.
     */
    std::unique_ptr<DiffuseRuntime> createSession();
    std::unique_ptr<DiffuseRuntime>
    createSession(const DiffuseOptions &options);

    const rt::MachineConfig &machine() const { return machine_; }
    kir::JitCompiler &compiler() { return compiler_; }
    Memoizer &memo() { return memo_; }
    TraceCache &traceCache() { return traceCache_; }
    /**
     * Native JIT backend (src/kernel/codegen.h): compiles plans to
     * shared objects and persists artifacts across processes
     * (DIFFUSE_CACHE_DIR). Sessions consult it only when they enable
     * the JIT (DiffuseOptions::jit / DIFFUSE_JIT).
     */
    kir::JitBackend &jit() { return jit_; }
    /** The one worker pool every sharing session multiplexes onto. */
    const std::shared_ptr<kir::WorkerPool> &pool() const
    {
        return pool_;
    }

    /**
     * The buffer-recycling pool every sharing session allocates store
     * memory from (rt::BufferPool). A DIFFUSE_SHARED_CACHE=0 session
     * has a private context, so it shares no buffers either.
     */
    const std::shared_ptr<rt::BufferPool> &buffers() const
    {
        return buffers_;
    }

    /** Recycling counters: hits, misses, evictions, pooled, live and
     * high-water bytes (one consistent snapshot). */
    rt::BufferPoolStats bufferPoolStats() const
    {
        return buffers_->stats();
    }

    /**
     * Cross-session batch coalescer (DIFFUSE_BATCH): sessions of this
     * context concurrently replaying the same trace epoch gather
     * their identical point tasks into combined worker-pool jobs.
     * Always constructed (it is pure scheduling state); sessions only
     * route retirements through it when batching is enabled, and a
     * private context's coalescer never sees a second session, so it
     * never gathers.
     */
    const std::shared_ptr<kir::BatchCoalescer> &batcher() const
    {
        return batcher_;
    }

    /**
     * Single-task kernel cache (library task variants, keyed on type
     * and signature plus the session's planning fingerprint). On a
     * miss, `build` runs under the key's shard lock — exactly-once
     * compilation, like Memoizer::getOrBuild.
     */
    std::shared_ptr<kir::CompiledKernel> singleKernel(
        const std::string &key,
        const std::function<std::shared_ptr<kir::CompiledKernel>()>
            &build);

    /** Cached single-task kernels (tests). */
    std::size_t singleKernels() const
    {
        return singleCount_.load(std::memory_order_relaxed);
    }

    /** Sessions handed out by createSession(), shared or isolated. */
    std::uint64_t sessionsCreated() const
    {
        return sessions_.load(std::memory_order_relaxed);
    }

  private:
    static constexpr std::size_t kSingleShards = 8;

    struct SingleShard
    {
        std::mutex mutex;
        std::unordered_map<std::string,
                           std::shared_ptr<kir::CompiledKernel>>
            map;
    };

    rt::MachineConfig machine_;
    kir::JitCompiler compiler_;
    kir::JitBackend jit_;
    Memoizer memo_;
    TraceCache traceCache_;
    std::shared_ptr<kir::WorkerPool> pool_;
    std::shared_ptr<kir::BatchCoalescer> batcher_;
    std::shared_ptr<rt::BufferPool> buffers_;
    std::array<SingleShard, kSingleShards> singles_;
    std::atomic<std::size_t> singleCount_{0};
    std::atomic<std::uint64_t> sessions_{0};
};

} // namespace diffuse

#endif // DIFFUSE_CORE_CONTEXT_H
