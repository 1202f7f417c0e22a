/**
 * @file
 * Memoization of fusion analysis and code generation (paper §5.2).
 *
 * Task groups are canonicalized by renaming store ids to their
 * first-use order — the De-Bruijn-style representation of Fig 7 that
 * makes memoization robust to store renaming (alpha-equivalence).
 * The cached plan records the fused argument template over canonical
 * slots, the eliminated temporaries, and the compiled kernel; on a hit
 * the plan is re-instantiated against the current window's stores and
 * no analysis or compilation runs.
 *
 * The key also encodes each store's liveness-beyond-the-group bit,
 * because temporary elimination (Definition 4) depends on it: two
 * textually isomorphic groups with different liveness must not share
 * a plan.
 *
 * The canonical, store-id-parameterized form this cache introduces
 * (slots + re-instantiation) is also the representation the trace
 * layer (core/trace.h) builds on: trace replay extends the same
 * alpha-equivalence from one group to a whole flushed window, and
 * from the planner's output to the runtime's (pieces, exchange
 * plans, hazard edges, timings). A trace hit therefore sits *above*
 * this cache — replayed windows do not consult it, and its hit
 * counters intentionally stop moving in traced steady state.
 */

#ifndef DIFFUSE_CORE_MEMO_H
#define DIFFUSE_CORE_MEMO_H

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/fusion.h"
#include "core/index_task.h"
#include "core/store.h"

namespace diffuse {

/** A cached, canonical execution plan for a task group. */
struct CachedGroup
{
    int length = 0;
    bool fused = false;
    int sourceTasks = 1;
    std::string name;

    struct CArg
    {
        int slot = 0; ///< canonical store index (first-use order)
        PartitionDesc part;
        Privilege priv = Privilege::Read;
        ReductionOp redop = ReductionOp::Sum;
    };
    std::vector<CArg> args;
    std::vector<int> tempSlots;
    Rect launchDomain;
    std::shared_ptr<kir::CompiledKernel> kernel;
};

/**
 * Group-level memoization cache.
 *
 * Thread-safe under sharded locks, so one memoizer may be shared by
 * every session of a process (core/context.h): entries hash to one of
 * `kShards` independently locked maps, lookups and inserts touch only
 * their shard, and entries are never erased — a returned plan pointer
 * stays valid for the cache's lifetime. `getOrBuild()` holds the
 * key's shard lock across the build, so each unique group is planned
 * and compiled exactly once process-wide even when many sessions race
 * on the same cold key (losers block briefly, then hit).
 */
class Memoizer
{
  public:
    struct Stats
    {
        std::atomic<std::uint64_t> hits{0};
        std::atomic<std::uint64_t> misses{0};
        std::atomic<std::uint64_t> entries{0};
        /**
         * Executable plans lowered on behalf of this cache: one per
         * inserted group carrying a compiled kernel. A hit reuses the
         * cached kernel's plan pointer, so this stays constant in
         * steady state (no re-lowering) — and with a shared cache it
         * counts unique plans process-wide, not per session.
         */
        std::atomic<std::uint64_t> plansLowered{0};
    };

    /**
     * Canonical encoding of `prefix` under the given liveness.
     * @param slots_out Receives the store id of each canonical slot
     *        in first-use order (for plan re-instantiation).
     */
    std::string encode(std::span<const IndexTask> prefix,
                       const StoreTable &stores,
                       const std::function<bool(StoreId)> &live_after,
                       std::vector<StoreId> *slots_out) const;

    /** Find a cached plan; counts a hit or miss. */
    const CachedGroup *lookup(const std::string &key);

    void insert(const std::string &key, CachedGroup group);

    /**
     * Atomic lookup-or-insert: on a miss, `build` runs under the
     * key's shard lock and its result is cached — the exactly-once
     * compile path concurrent sessions use. Counts one hit or one
     * miss, exactly like lookup()+insert().
     */
    const CachedGroup *
    getOrBuild(const std::string &key,
               const std::function<CachedGroup()> &build);

    /** Every cached group's compiled kernel, in no particular order
     * (tests and diagnostics inspect the plans the planner built). */
    std::vector<std::shared_ptr<kir::CompiledKernel>> kernels();

    /** Convert an ExecutionGroup into its canonical cached form. */
    static CachedGroup canonicalize(const ExecutionGroup &group,
                                    std::span<const StoreId> slots);

    /** Instantiate a cached plan against concrete stores. */
    static ExecutionGroup instantiate(const CachedGroup &plan,
                                      std::span<const IndexTask> prefix,
                                      std::span<const StoreId> slots);

    const Stats &stats() const { return stats_; }
    void resetStats() { stats_.hits = 0; stats_.misses = 0; }

  private:
    static constexpr std::size_t kShards = 16;

    struct Shard
    {
        std::mutex mutex;
        std::unordered_map<std::string, CachedGroup> map;
    };

    Shard &shardFor(const std::string &key);
    /** Record an insertion's stats (shard lock held). */
    void countInsert(const CachedGroup &group);

    std::array<Shard, kShards> shards_;
    Stats stats_;
};

} // namespace diffuse

#endif // DIFFUSE_CORE_MEMO_H
