#pragma once

/// @file arena.hpp
/// Per-worker simulation arenas: long-lived Worlds reused across a
/// campaign's items.
///
/// The original runners constructed one World per simulation — ~50 heap
/// allocations each, a million-plus across a paper-scale campaign. An
/// arena instead keeps up to kBatchWorlds resident Worlds, reset() between
/// items (bit-identical to fresh construction, see World::reset) and
/// stepped in lockstep through a WorldBatch so every tick issues one fused
/// projection sweep for the whole group. After each worker's first batch
/// warms its arena up, the steady state performs zero heap allocations per
/// simulation — see tests/test_world_reset.cpp, which pins that down with
/// the counting operator new.

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "exp/campaign.hpp"
#include "sim/world_batch.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace scaa::exp {

/// Worlds stepped in lockstep per arena batch: enough to amortize the
/// project_many sweep without inflating per-worker memory. Also the
/// campaign engine's task size: each of its pool tasks is one batch.
inline constexpr std::size_t kBatchWorlds = 8;

/// A reusable set of resident Worlds. Not thread-safe; each pool worker
/// drives its own arena (via ArenaPool).
class WorldArena {
 public:
  /// Simulate every item of @p items and write its summary to the matching
  /// slot of @p out (out.size() >= items.size()), in item order. Items run
  /// in groups of up to kBatchWorlds; each group resets the resident
  /// Worlds (constructing them only on first use) and runs them to
  /// completion in lockstep. Results are bit-identical to constructing and
  /// running each World alone.
  void run_items(std::span<const CampaignItem> items,
                 const WorldAssets& assets,
                 std::span<sim::SimulationSummary> out);

  /// Resident worlds (grows up to kBatchWorlds, then stable).
  std::size_t world_count() const noexcept { return worlds_.size(); }

 private:
  std::vector<std::unique_ptr<sim::World>> worlds_;
  sim::WorldBatch batch_;
};

/// A free list of arenas shared by the thread-pool workers. The pool has
/// no worker-identity API, so every task checks an arena out for as long
/// as it simulates (one kBatchWorlds batch per campaign-engine task): with
/// at most `threads` tasks in flight, at most `threads` arenas ever exist,
/// and each is reused across the whole campaign — across every grid of a
/// multi-grid run too.
class ArenaPool {
 public:
  /// RAII checkout: acquires an arena (creating one only when the free
  /// list is empty) and returns it on destruction.
  class Lease {
   public:
    explicit Lease(ArenaPool& pool) : pool_(&pool), arena_(pool.acquire()) {}
    ~Lease() { pool_->release(std::move(arena_)); }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    WorldArena& operator*() noexcept { return *arena_; }
    WorldArena* operator->() noexcept { return arena_.get(); }

   private:
    ArenaPool* pool_;
    std::unique_ptr<WorldArena> arena_;
  };

 private:
  friend class Lease;
  std::unique_ptr<WorldArena> acquire() SCAA_EXCLUDES(mutex_);
  void release(std::unique_ptr<WorldArena> arena) SCAA_EXCLUDES(mutex_);

  util::Mutex mutex_;
  std::vector<std::unique_ptr<WorldArena>> free_ SCAA_GUARDED_BY(mutex_);
};

}  // namespace scaa::exp
