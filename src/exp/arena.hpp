#pragma once

/// @file arena.hpp
/// Per-worker simulation arenas: one long-lived World reused across a
/// campaign's items.
///
/// Constructing a World costs ~50 heap allocations, a million-plus across
/// a paper-scale campaign. An arena instead keeps one resident World and
/// reset()s it between items (bit-identical to fresh construction, see
/// World::reset). After a worker's first item warms its arena up, the
/// steady state performs zero heap allocations per simulation — see
/// tests/test_world_reset.cpp, which pins that down with the counting
/// operator new.

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "exp/campaign.hpp"
#include "sim/world.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace scaa::exp {

/// One resident World. Not thread-safe; each pool worker drives its own
/// arena (via ArenaPool).
class WorldArena {
 public:
  /// Simulate every item of @p items and write its summary to the matching
  /// slot of @p out (out.size() >= items.size()), in item order: reset the
  /// resident World (constructing it only on first use) and run it to
  /// completion, item by item. Results are bit-identical to constructing
  /// and running each World alone.
  void run_items(std::span<const CampaignItem> items,
                 const WorldAssets& assets,
                 std::span<sim::SimulationSummary> out);

  /// Resident worlds: 0 before the first item, 1 after.
  std::size_t world_count() const noexcept { return world_ ? 1 : 0; }

 private:
  std::unique_ptr<sim::World> world_;
};

/// A free list of arenas shared by the thread-pool workers. The pool has
/// no worker-identity API, so every task checks an arena out for as long
/// as it simulates (the kTaskItems items of one campaign-engine task): with
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
