/**
 * @file
 * The buffer-recycling pool (rt::BufferPool) that every session of a
 * SharedContext allocates Real-mode store memory from:
 *
 *  - allocations round up to geometric size classes, so a freed
 *    buffer serves a nearby size (98304 doubles -> 97000 doubles);
 *  - pooled bytes never exceed the high-water mark of live bytes,
 *    the oldest pooled buffers going first;
 *  - sessions of one context reuse each other's buffers, while
 *    `sharedCache = 0` sessions share nothing;
 *  - a recycled buffer never shows its previous contents to a read;
 *  - concurrent sessions allocate and free safely (the TSan job runs
 *    this suite).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "core/context.h"
#include "cunumeric/ndarray.h"

namespace diffuse {
namespace {

using num::Context;
using num::NDArray;

rt::MachineConfig
machine()
{
    return rt::MachineConfig::withGpus(4);
}

/** Real mode, one worker, one rank, sharing pinned either way so the
 * environment matrices cannot change what is under test. */
DiffuseOptions
realOpts(int shared = 1)
{
    DiffuseOptions o;
    o.mode = rt::ExecutionMode::Real;
    o.workers = 1;
    o.ranks = 1;
    o.sharedCache = shared;
    return o;
}

/** Materialize an `n`-double store filled with `init`, return its
 * allocation's address, and destroy it (its buffer goes back to the
 * session's pool). */
const double *
materializeAndFree(DiffuseRuntime &rt, Context &ctx, coord_t n,
                   double init = 0.0)
{
    const double *p;
    {
        NDArray a = ctx.zeros(n, init);
        (void)ctx.toHost(a);
        p = rt.low().dataF64(a.store());
    }
    rt.flushWindow();
    return p;
}

TEST(BufferPool, SizeClassesKeepSlackUnderAQuarter)
{
    using rt::BufferPool;
    EXPECT_EQ(BufferPool::classBytes(0), 0u);
    EXPECT_EQ(BufferPool::classBytes(1), 64u);
    EXPECT_EQ(BufferPool::classBytes(64), 64u);
    EXPECT_EQ(BufferPool::classBytes(65), 128u);
    EXPECT_EQ(BufferPool::classBytes(4096), 4096u);
    EXPECT_EQ(BufferPool::classBytes(4097), 5120u);
    EXPECT_EQ(BufferPool::classBytes(8192), 8192u);
    std::size_t prev = 0;
    for (std::size_t b = 1; b < (std::size_t(1) << 22); b += b / 7 + 1) {
        std::size_t c = BufferPool::classBytes(b);
        EXPECT_GE(c, b);
        EXPECT_GE(c, prev) << "classes must be monotonic";
        if (b > 4096)
            EXPECT_LT(double(c - b), 0.25 * double(b)) << b;
        EXPECT_EQ(BufferPool::classBytes(c), c) << "a class is a fixpoint";
        prev = c;
    }
    // The two stores of the next test share the 768 KiB class; 60000
    // doubles (Faults.MemBudgetEvictsPoolThenFailsStructurally) does
    // not.
    EXPECT_EQ(BufferPool::classBytes(97000 * 8), 786432u);
    EXPECT_EQ(BufferPool::classBytes(98304 * 8), 786432u);
    EXPECT_EQ(BufferPool::classBytes(60000 * 8), 524288u);
}

TEST(BufferPool, NearbySizeReusesFreedBuffer)
{
    DiffuseRuntime rt(machine(), realOpts());
    Context ctx(rt);
    const double *freed = materializeAndFree(rt, ctx, 98304);
    rt::BufferPoolStats before = rt.context()->bufferPoolStats();
    EXPECT_EQ(before.pooledBytes, 786432u);

    NDArray b = ctx.zeros(97000, 2.0);
    EXPECT_EQ(ctx.toHost(b), std::vector<double>(97000, 2.0));
    EXPECT_EQ(rt.low().dataF64(b.store()), freed);
    rt::BufferPoolStats after = rt.context()->bufferPoolStats();
    EXPECT_EQ(after.hits, before.hits + 1);
    EXPECT_EQ(after.misses, before.misses);
    EXPECT_EQ(after.pooledBytes, 0u);
    // Materialization statistics count logical bytes, not the class.
    EXPECT_EQ(rt.runtimeStats().bytesMaterialized,
              double(98304 * 8 + 97000 * 8));
}

TEST(BufferPool, PooledBytesStayUnderLiveHighWater)
{
    DiffuseRuntime rt(machine(), realOpts());
    Context ctx(rt);
    NDArray keep = ctx.zeros(4096, 1.0); // stays live throughout
    (void)ctx.toHost(keep);
    for (int i = 0; i < 200; i++) {
        (void)materializeAndFree(rt, ctx, 1000 + 257 * coord_t(i));
        rt::BufferPoolStats s = rt.context()->bufferPoolStats();
        ASSERT_LE(s.pooledBytes, s.highWaterBytes) << "size " << i;
        ASSERT_EQ(s.liveBytes, rt::BufferPool::classBytes(4096 * 8));
    }
    rt::BufferPoolStats s = rt.context()->bufferPoolStats();
    // Sizes that round into an already-pooled class hit; each new,
    // larger class evicted the older, smaller buffers instead of
    // hoarding them.
    EXPECT_EQ(s.hits + s.misses, 201u);
    EXPECT_GT(s.hits, 0u);
    EXPECT_GT(s.evictions, 0u);
    EXPECT_EQ(s.highWaterBytes,
              rt::BufferPool::classBytes(4096 * 8) +
                  rt::BufferPool::classBytes((1000 + 257 * 199) * 8));
}

TEST(BufferPool, EvictsOldestPooledBuffersFirst)
{
    rt::BufferPool pool;
    rt::BufferPool::Bytes a = pool.allocate(64);
    rt::BufferPool::Bytes b = pool.allocate(128);
    pool.release(std::move(a), 64);
    pool.release(std::move(b), 128);
    EXPECT_EQ(pool.stats().pooledBytes, 192u); // == high water: all kept
    rt::BufferPool::Bytes c = pool.allocate(192);
    pool.release(std::move(c), 192);
    // 384 pooled > 192 high water: the oldest (64) goes, then 128.
    rt::BufferPoolStats s = pool.stats();
    EXPECT_EQ(s.evictions, 2u);
    EXPECT_EQ(s.pooledBytes, 192u);
    EXPECT_EQ(pool.take(64), nullptr);
    EXPECT_EQ(pool.take(128), nullptr);
    EXPECT_NE(pool.take(192), nullptr);
    EXPECT_EQ(pool.evictAll(), 0u);
    s = pool.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 2u);
    EXPECT_EQ(s.liveBytes, 192u);
}

TEST(BufferPool, HitsRaiseTheHighWaterMark)
{
    rt::BufferPool pool;
    pool.release(pool.allocate(64), 64);
    rt::BufferPool::Bytes b = pool.allocate(128);
    EXPECT_EQ(pool.stats().highWaterBytes, 128u);
    // A pooled buffer going live counts toward the peak like a fresh
    // one: 64 + 128 bytes are live at once.
    rt::BufferPool::Bytes a = pool.take(64);
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(pool.stats().highWaterBytes, 192u);
}

TEST(BufferPool, SessionsOfOneContextShareBuffersIsolatedOnesDoNot)
{
    auto shared = SharedContext::create(machine());
    const double *freed = nullptr;
    {
        auto first = shared->createSession(realOpts());
        Context ctx(*first);
        // A store still live when its session ends returns to the
        // pool too.
        NDArray held = ctx.zeros(5000, 1.0);
        (void)ctx.toHost(held);
        freed = materializeAndFree(*first, ctx, 20000);
    }
    rt::BufferPoolStats s = shared->bufferPoolStats();
    EXPECT_EQ(s.liveBytes, 0u);
    EXPECT_EQ(s.pooledBytes, rt::BufferPool::classBytes(20000 * 8) +
                                 rt::BufferPool::classBytes(5000 * 8));
    EXPECT_EQ(s.pooledBytes, s.highWaterBytes);

    auto second = shared->createSession(realOpts());
    Context ctx2(*second);
    const double *reused = materializeAndFree(*second, ctx2, 19000);
    EXPECT_EQ(reused, freed);
    EXPECT_EQ(shared->bufferPoolStats().hits, s.hits + 1);

    // Isolated sessions: private contexts, private pools. Nothing
    // they allocate touches the shared pool, and one never sees the
    // other's freed buffers.
    s = shared->bufferPoolStats();
    auto iso1 = shared->createSession(realOpts(0));
    auto iso2 = shared->createSession(realOpts(0));
    Context ictx1(*iso1);
    Context ictx2(*iso2);
    (void)materializeAndFree(*iso1, ictx1, 20000);
    (void)materializeAndFree(*iso2, ictx2, 20000);
    EXPECT_EQ(iso2->context()->bufferPoolStats().hits, 0u);
    EXPECT_EQ(iso2->context()->bufferPoolStats().misses, 1u);
    EXPECT_EQ(iso2->context()->bufferPoolStats().pooledBytes,
              rt::BufferPool::classBytes(20000 * 8));
    rt::BufferPoolStats after = shared->bufferPoolStats();
    EXPECT_EQ(after.hits, s.hits);
    EXPECT_EQ(after.misses, s.misses);
    EXPECT_EQ(after.pooledBytes, s.pooledBytes);
}

TEST(BufferPool, RecycledBufferNeverExposesStaleContents)
{
    DiffuseRuntime rt(machine(), realOpts());
    Context ctx(rt);
    const coord_t n = 3000;
    const double *freed;
    {
        NDArray a = ctx.random(n, 0x5EED, -1.0, 1.0);
        (void)ctx.toHost(a);
        freed = rt.low().dataF64(a.store());
    }
    rt.flushWindow();

    // Read of a fresh store: the `init` fill runs on the recycled
    // buffer.
    NDArray b = ctx.zeros(n, 3.0);
    EXPECT_EQ(ctx.toHost(b), std::vector<double>(std::size_t(n), 3.0));
    EXPECT_EQ(rt.low().dataF64(b.store()), freed);
    // A fully-covering first write may skip the fill: the kernel
    // overwrites every element, stale or not.
    NDArray c = ctx.addScalar(b, 1.0);
    EXPECT_EQ(ctx.toHost(c), std::vector<double>(std::size_t(n), 4.0));
    // The same store with a partial first write keeps its init
    // everywhere else.
    NDArray d = ctx.zeros(n, 0.5);
    ctx.assign(d.slice(0, 10), ctx.zeros(10, 9.0));
    std::vector<double> want(std::size_t(n), 0.5);
    std::fill(want.begin(), want.begin() + 10, 9.0);
    EXPECT_EQ(ctx.toHost(d), want);
}

TEST(BufferPool, ConcurrentSessionsAllocateAndFree)
{
    auto shared = SharedContext::create(machine());
    constexpr int kThreads = 4;
    constexpr int kRounds = 60;
    std::vector<int> mismatches(kThreads, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
        threads.emplace_back([&, t] {
            auto session = shared->createSession(realOpts());
            Context ctx(*session);
            for (int r = 0; r < kRounds; r++) {
                // Sizes overlap across threads, so buffers migrate.
                coord_t n = 512 + 97 * coord_t((r * 7 + t * 3) % 40);
                double v = double(t * 1000 + r);
                NDArray a = ctx.zeros(n, v);
                NDArray b = ctx.addScalar(a, 1.0);
                if (ctx.toHost(b) !=
                    std::vector<double>(std::size_t(n), v + 1.0))
                    mismatches[std::size_t(t)]++;
                session->flushWindow();
            }
        });
    }
    for (std::thread &th : threads)
        th.join();
    for (int t = 0; t < kThreads; t++)
        EXPECT_EQ(mismatches[std::size_t(t)], 0) << "thread " << t;
    rt::BufferPoolStats s = shared->bufferPoolStats();
    EXPECT_EQ(s.liveBytes, 0u);
    EXPECT_LE(s.pooledBytes, s.highWaterBytes);
    EXPECT_GT(s.hits, 0u);
}

} // namespace
} // namespace diffuse
