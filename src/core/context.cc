#include "context.h"

#include "common/env.h"
#include "core/diffuse.h"

namespace diffuse {

SharedContext::SharedContext(Token, const rt::MachineConfig &machine)
    : machine_(machine),
      // Lazily started: the pool spawns no threads until a session
      // actually runs parallel work, and sessions requesting more
      // workers reserve() it upward instead of spawning a pool each.
      pool_(std::make_shared<kir::WorkerPool>(1)),
      batcher_(std::make_shared<kir::BatchCoalescer>(pool_)),
      buffers_(std::make_shared<rt::BufferPool>())
{
}

std::unique_ptr<DiffuseRuntime>
SharedContext::createSession()
{
    return createSession(DiffuseOptions());
}

std::unique_ptr<DiffuseRuntime>
SharedContext::createSession(const DiffuseOptions &options)
{
    sessions_.fetch_add(1, std::memory_order_relaxed);
    bool shared = options.sharedCache >= 0
                      ? options.sharedCache != 0
                      : envInt("DIFFUSE_SHARED_CACHE", 1, 0, 1) != 0;
    if (!shared) {
        // Opt-out: a fully isolated runtime, today's single-client
        // behavior bit-for-bit (private caches and pools).
        return std::make_unique<DiffuseRuntime>(machine_, options);
    }
    return std::unique_ptr<DiffuseRuntime>(
        new DiffuseRuntime(shared_from_this(), options));
}

std::shared_ptr<kir::CompiledKernel>
SharedContext::singleKernel(
    const std::string &key,
    const std::function<std::shared_ptr<kir::CompiledKernel>()> &build)
{
    SingleShard &shard =
        singles_[std::hash<std::string>{}(key) % kSingleShards];
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.map.find(key);
    if (it != shard.map.end())
        return it->second;
    // Build under the shard lock: concurrent sessions racing on the
    // same cold signature compile it exactly once process-wide.
    std::shared_ptr<kir::CompiledKernel> kernel = build();
    shard.map.emplace(key, kernel);
    singleCount_.fetch_add(1, std::memory_order_relaxed);
    return kernel;
}

} // namespace diffuse
