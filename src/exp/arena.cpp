#include "exp/arena.hpp"

namespace scaa::exp {

void WorldArena::run_items(std::span<const CampaignItem> items,
                           const WorldAssets& assets,
                           std::span<sim::SimulationSummary> out) {
  for (std::size_t i = 0; i < items.size(); ++i) {
    sim::WorldConfig cfg = world_config_for(items[i], assets);
    if (world_) {
      world_->reset(cfg);
    } else {
      world_ = std::make_unique<sim::World>(std::move(cfg));
    }
    out[i] = world_->run();
  }
}

std::unique_ptr<WorldArena> ArenaPool::acquire() {
  {
    const util::MutexLock lock(mutex_);
    if (!free_.empty()) {
      std::unique_ptr<WorldArena> arena = std::move(free_.back());
      free_.pop_back();
      return arena;
    }
  }
  return std::make_unique<WorldArena>();
}

void ArenaPool::release(std::unique_ptr<WorldArena> arena) {
  const util::MutexLock lock(mutex_);
  free_.push_back(std::move(arena));
}

}  // namespace scaa::exp
