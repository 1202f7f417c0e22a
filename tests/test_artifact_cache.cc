/**
 * @file
 * Persistence tests for the JIT artifact cache
 * (kernel/artifact_cache.h + the JitBackend's use of it):
 *
 *  - warm start: a second backend (and a second SharedContext) over
 *    the same DIFFUSE_CACHE_DIR compiles ZERO kernels and loads every
 *    module from disk;
 *  - truncated, corrupted and wrong-key artifacts are rejected by
 *    post-dlopen verification and recompiled — never trusted, never a
 *    crash;
 *  - build-fingerprint changes re-key artifacts (stale entries are
 *    simply never looked up);
 *  - the LRU size cap evicts oldest-first on publish;
 *  - two threads racing the same key serialize on the advisory file
 *    lock and compile exactly once;
 *  - an unwritable cache path degrades to in-memory scratch compiles.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/time.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/context.h"
#include "cunumeric/ndarray.h"
#include "kernel/codegen.h"
#include "kernel/compiler.h"
#include "kernel/exec.h"
#include "kernel/ir.h"
#include "kernel/plan.h"

namespace diffuse {
namespace kir {
namespace {

namespace fs = std::filesystem;

/** A self-deleting cache directory. */
struct TempDir
{
    std::string path;

    TempDir()
    {
        char tmpl[] = "/tmp/diffuse-cache-test-XXXXXX";
        char *p = mkdtemp(tmpl);
        EXPECT_NE(p, nullptr);
        path = p != nullptr ? p : "";
    }
    ~TempDir()
    {
        if (!path.empty())
            fs::remove_all(path);
    }
};

std::vector<std::string>
artifactsIn(const std::string &dir)
{
    std::vector<std::string> out;
    for (const auto &e : fs::directory_iterator(dir)) {
        if (e.path().extension() == ".so")
            out.push_back(e.path().string());
    }
    std::sort(out.begin(), out.end());
    return out;
}

JitBackend::Config
diskConfig(const std::string &dir)
{
    JitBackend::Config cfg;
    cfg.cacheDir = dir;
    cfg.shareProcessModules = false;
    return cfg;
}

/** A tiny two-input kernel: out = (a + b) * scale. */
KernelFunction
makeAxpyKernel(double scale)
{
    KernelFunction fn;
    fn.name = "axpy";
    fn.numArgs = 3;
    fn.buffers.resize(3);
    for (auto &b : fn.buffers) {
        b.dims = 1;
        b.shapeClass = 0;
    }
    LoopNest nest;
    nest.domainBuf = 2;
    BodyBuilder b(nest.body);
    b.store(2, b.binary(Op::Mul, b.binary(Op::Add, b.load(0), b.load(1)),
                        b.constant(scale)));
    fn.nests.push_back(std::move(nest));
    return fn;
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

/** Attach + run the kernel, asserting the JIT engaged and the result
 * matches the scalar oracle bitwise. */
void
attachAndCheck(JitBackend &be, const KernelFunction &fn,
               const std::string &key, bool expect_jit = true)
{
    CompiledKernel k;
    k.fn = fn;
    k.plan = std::make_shared<const ExecutablePlan>(lowerPlan(fn, 256));
    be.attach(key, k);
    if (expect_jit) {
        ASSERT_NE(k.jit, nullptr);
        ASSERT_NE(k.jit->nest(0), nullptr);
    }

    const coord_t n = 301;
    std::vector<double> a(n), b(n), ref(n, 0.0), vec(n, 0.0);
    for (coord_t i = 0; i < n; i++) {
        a[std::size_t(i)] = std::sin(double(i) * 0.7);
        b[std::size_t(i)] = std::cos(double(i) * 1.3);
    }
    Executor ex;
    {
        std::vector<BufferBinding> binds{bindVec(a), bindVec(b),
                                         bindVec(ref)};
        ex.runScalar(fn, binds, {});
    }
    std::vector<BufferBinding> binds{bindVec(a), bindVec(b),
                                     bindVec(vec)};
    ex.run(fn, *k.plan, binds, {}, k.jit.get());
    EXPECT_EQ(std::memcmp(vec.data(), ref.data(),
                          std::size_t(n) * sizeof(double)),
              0);
}

TEST(ArtifactCache, WarmBackendCompilesZeroKernels)
{
    TempDir dir;
    {
        JitBackend be{diskConfig(dir.path)};
        ASSERT_TRUE(be.cache().persistent());
        attachAndCheck(be, makeAxpyKernel(1.5), "warm_key");
        EXPECT_EQ(be.stats().kernelsCompiled, 1u);
        EXPECT_EQ(be.stats().artifactMisses, 1u);
    }
    ASSERT_EQ(artifactsIn(dir.path).size(), 1u);

    // A brand-new backend (modelling a cold process: the in-process
    // registry is not consulted in persistent mode) loads from disk.
    JitBackend warm{diskConfig(dir.path)};
    attachAndCheck(warm, makeAxpyKernel(1.5), "warm_key");
    EXPECT_EQ(warm.stats().kernelsCompiled, 0u);
    EXPECT_EQ(warm.stats().artifactHits, 1u);
    EXPECT_EQ(warm.stats().artifactMisses, 0u);
}

TEST(ArtifactCache, TruncatedAndCorruptedArtifactsAreRecompiled)
{
    TempDir dir;
    {
        JitBackend be{diskConfig(dir.path)};
        attachAndCheck(be, makeAxpyKernel(2.0), "corrupt_key");
    }
    std::vector<std::string> files = artifactsIn(dir.path);
    ASSERT_EQ(files.size(), 1u);

    // Truncate to half: dlopen fails; reject and recompile.
    {
        auto sz = fs::file_size(files[0]);
        fs::resize_file(files[0], sz / 2);
        JitBackend be{diskConfig(dir.path)};
        attachAndCheck(be, makeAxpyKernel(2.0), "corrupt_key");
        EXPECT_EQ(be.stats().artifactsRejected, 1u);
        EXPECT_EQ(be.stats().kernelsCompiled, 1u);
        EXPECT_EQ(be.stats().artifactHits, 0u);
    }

    // Overwrite with garbage bytes of the same length.
    {
        auto sz = fs::file_size(files[0]);
        std::ofstream f(files[0], std::ios::binary | std::ios::trunc);
        for (std::uintmax_t i = 0; i < sz; i++)
            f.put(char(i * 131 + 7));
        f.close();
        JitBackend be{diskConfig(dir.path)};
        attachAndCheck(be, makeAxpyKernel(2.0), "corrupt_key");
        EXPECT_EQ(be.stats().artifactsRejected, 1u);
        EXPECT_EQ(be.stats().kernelsCompiled, 1u);
    }
}

TEST(ArtifactCache, WrongKeyArtifactRejectedByEmbeddedKeyCheck)
{
    // A VALID shared object copied over another key's filename (a
    // collision / stale-copy stand-in): dlopen succeeds but the
    // embedded diffuse_jit_key differs, so verification rejects it.
    TempDir dir;
    {
        JitBackend be{diskConfig(dir.path)};
        attachAndCheck(be, makeAxpyKernel(3.0), "key_a");
    }
    std::vector<std::string> one = artifactsIn(dir.path);
    ASSERT_EQ(one.size(), 1u);
    {
        JitBackend be{diskConfig(dir.path)};
        attachAndCheck(be, makeAxpyKernel(4.0), "key_b");
    }
    std::vector<std::string> two = artifactsIn(dir.path);
    ASSERT_EQ(two.size(), 2u);
    std::string other =
        two[0] == one[0] ? two[1] : two[0];
    fs::copy_file(one[0], other,
                  fs::copy_options::overwrite_existing);

    JitBackend be{diskConfig(dir.path)};
    attachAndCheck(be, makeAxpyKernel(4.0), "key_b");
    EXPECT_EQ(be.stats().artifactsRejected, 1u);
    EXPECT_EQ(be.stats().kernelsCompiled, 1u);
}

TEST(ArtifactCache, FingerprintChangeRekeysArtifacts)
{
    TempDir dir;
    JitBackend::Config v1 = diskConfig(dir.path);
    v1.fingerprintExtra = "build-v1";
    {
        JitBackend be{v1};
        attachAndCheck(be, makeAxpyKernel(5.0), "fp_key");
        EXPECT_EQ(be.stats().kernelsCompiled, 1u);
    }
    // Same kernel, same canonical key, different build fingerprint:
    // the stale artifact is never looked up; a fresh one is compiled
    // alongside it (no crash, no false hit).
    JitBackend::Config v2 = diskConfig(dir.path);
    v2.fingerprintExtra = "build-v2";
    {
        JitBackend be{v2};
        attachAndCheck(be, makeAxpyKernel(5.0), "fp_key");
        EXPECT_EQ(be.stats().kernelsCompiled, 1u);
        EXPECT_EQ(be.stats().artifactHits, 0u);
    }
    EXPECT_EQ(artifactsIn(dir.path).size(), 2u);

    // The original fingerprint still warm-starts from its artifact.
    JitBackend be{v1};
    attachAndCheck(be, makeAxpyKernel(5.0), "fp_key");
    EXPECT_EQ(be.stats().kernelsCompiled, 0u);
    EXPECT_EQ(be.stats().artifactHits, 1u);
}

TEST(ArtifactCache, LruCapEvictsOldestOnPublish)
{
    TempDir dir;
    // Pre-populate with two ~700 KiB decoys, mtimes staggered into
    // the past, so one publish pushes the directory over a 1 MiB cap.
    auto plantDecoy = [&](const char *name, int age_s) {
        std::string p = dir.path + "/" + name;
        std::ofstream f(p, std::ios::binary);
        std::vector<char> block(700 * 1024, 'x');
        f.write(block.data(), std::streamsize(block.size()));
        f.close();
        struct timeval tv[2];
        gettimeofday(&tv[0], nullptr);
        tv[0].tv_sec -= age_s;
        tv[1] = tv[0];
        ASSERT_EQ(utimes(p.c_str(), tv), 0);
    };
    plantDecoy("00old.so", 2000);
    plantDecoy("11newer.so", 1000);

    JitBackend::Config cfg = diskConfig(dir.path);
    cfg.cacheMaxMB = 1;
    JitBackend be{cfg};
    attachAndCheck(be, makeAxpyKernel(6.0), "lru_key");

    EXPECT_GE(be.stats().evictions, 1u);
    EXPECT_FALSE(fs::exists(dir.path + "/00old.so"));
    // The just-published artifact survives its own eviction pass.
    std::vector<std::string> left = artifactsIn(dir.path);
    std::uintmax_t total = 0;
    bool real_present = false; // the hash-named compiled artifact
    for (const std::string &p : left) {
        total += fs::file_size(p);
        real_present = real_present ||
                       (p.find("00old") == std::string::npos &&
                        p.find("11newer") == std::string::npos);
    }
    EXPECT_TRUE(real_present);
    EXPECT_LE(total, std::uintmax_t(1) << 20);
}

TEST(ArtifactCache, ConcurrentWritersCompileExactlyOnce)
{
    TempDir dir;
    KernelFunction fn = makeAxpyKernel(7.0);
    JitBackend b1{diskConfig(dir.path)};
    JitBackend b2{diskConfig(dir.path)};

    auto race = [&](JitBackend &be) {
        CompiledKernel k;
        k.fn = fn;
        k.plan =
            std::make_shared<const ExecutablePlan>(lowerPlan(fn, 256));
        be.attach("race_key", k);
        EXPECT_NE(k.jit, nullptr);
    };
    std::thread t1([&] { race(b1); });
    std::thread t2([&] { race(b2); });
    t1.join();
    t2.join();

    // The flock serializes the compile: one backend built the
    // artifact, the other loaded it after waiting on the lock.
    std::uint64_t compiled =
        b1.stats().kernelsCompiled + b2.stats().kernelsCompiled;
    std::uint64_t hits =
        b1.stats().artifactHits + b2.stats().artifactHits;
    EXPECT_EQ(compiled, 1u);
    EXPECT_EQ(hits, 1u);
    EXPECT_EQ(artifactsIn(dir.path).size(), 1u);
}

TEST(ArtifactCache, UnwritableCacheDirDegradesToMemory)
{
    // A path whose parent is a regular file can never be created: the
    // cache must degrade to scratch compiles, not fail the attach.
    TempDir dir;
    std::string file = dir.path + "/plain_file";
    std::ofstream(file).put('x');
    JitBackend::Config cfg = diskConfig(file + "/sub");
    JitBackend be{cfg};
    EXPECT_FALSE(be.cache().persistent());
    attachAndCheck(be, makeAxpyKernel(8.0), "degrade_key");
    EXPECT_EQ(be.stats().kernelsCompiled, 1u);
    EXPECT_EQ(be.stats().artifactHits, 0u);
}

/** End to end: two SharedContexts over one DIFFUSE_CACHE_DIR. */
TEST(ArtifactCache, SecondSharedContextWarmStartsFromDisk)
{
    using num::Context;
    using num::NDArray;

    auto body = [](DiffuseRuntime &rt) {
        Context ctx(rt);
        const coord_t n = 64;
        NDArray a = ctx.random(n, 0xA11CE, -1.0, 1.0);
        NDArray b = ctx.random(n, 0xB0B, -1.0, 1.0);
        for (int rep = 0; rep < 2; rep++) {
            NDArray t = ctx.add(a, b);
            ctx.assign(a, t);
            NDArray v = ctx.mulScalar(0.5, ctx.erf(a));
            ctx.assign(b, v);
            rt.flushWindow();
        }
        std::vector<double> ha = ctx.toHost(a), hb = ctx.toHost(b);
        ha.insert(ha.end(), hb.begin(), hb.end());
        return ha;
    };

    DiffuseOptions opts;
    opts.mode = rt::ExecutionMode::Real;
    // The stats read below are the context's: pin sharing on so the
    // DIFFUSE_SHARED_CACHE=0 matrix row cannot hand out sessions with
    // private contexts.
    opts.sharedCache = 1;

    // Oracle: the identical program with the JIT off.
    opts.jit = 0;
    std::vector<double> want;
    {
        auto ctx = SharedContext::create(rt::MachineConfig::withGpus(4));
        want = body(*ctx->createSession(opts));
    }

    TempDir dir;
    ASSERT_EQ(setenv("DIFFUSE_CACHE_DIR", dir.path.c_str(), 1), 0);
    opts.jit = 1;

    std::uint64_t cold_compiles = 0;
    std::vector<double> got_cold, got_warm;
    {
        auto ctx = SharedContext::create(rt::MachineConfig::withGpus(4));
        got_cold = body(*ctx->createSession(opts));
        cold_compiles = ctx->jit().stats().kernelsCompiled;
    }
    {
        auto ctx = SharedContext::create(rt::MachineConfig::withGpus(4));
        got_warm = body(*ctx->createSession(opts));
        JitBackend::Stats st = ctx->jit().stats();
        EXPECT_EQ(st.kernelsCompiled, 0u);
        EXPECT_GT(st.artifactHits, 0u);
    }
    ASSERT_EQ(unsetenv("DIFFUSE_CACHE_DIR"), 0);

    EXPECT_GT(cold_compiles, 0u);
    ASSERT_EQ(got_cold.size(), want.size());
    EXPECT_EQ(std::memcmp(got_cold.data(), want.data(),
                          want.size() * sizeof(double)),
              0);
    EXPECT_EQ(std::memcmp(got_warm.data(), want.data(),
                          want.size() * sizeof(double)),
              0);
}

} // namespace
} // namespace kir
} // namespace diffuse
