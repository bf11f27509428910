#pragma once

/// @file campaign.hpp
/// Batch experiment execution over the scenario x attack grid.
///
/// The paper's grid: 6 attack types x 4 scenarios x 3 initial gaps x 20
/// repetitions = 1,440 simulations per strategy (14,400 for Random-ST+DUR,
/// which uses 200 repetitions for parameter-space coverage). Each simulation
/// is a pure function of its CampaignItem, so the runner parallelizes over
/// a thread pool with bit-identical results at any thread count.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "exp/thread_pool.hpp"
#include "sim/world.hpp"
#include "util/stats.hpp"

namespace scaa::exp {

/// One cell of the campaign grid.
struct CampaignItem {
  attack::StrategyKind strategy = attack::StrategyKind::kNone;
  attack::AttackType type = attack::AttackType::kAcceleration;
  bool strategic_values = true;
  bool driver_enabled = true;
  int scenario_id = 1;       ///< 1..4
  double initial_gap = 100;  ///< [m]
  std::uint64_t seed = 1;    ///< unique per simulation
  /// Benign-fault plan (shared, immutable; null = none — the historical
  /// grids). Part of the grid identity: folded into grid_fingerprint so
  /// resume/merge reject a checkpoint written under a different plan.
  std::shared_ptr<const fault::FaultPlan> fault_plan;
  /// Forced attack window (Fig. 8's fixed-window sweep); negative = the
  /// strategy picks its own. Part of the grid identity only when set.
  double forced_start = -1.0;     ///< [s]
  double forced_duration = -1.0;  ///< [s]
};

/// Item + outcome.
struct CampaignResult {
  CampaignItem item;
  sim::SimulationSummary summary;
};

/// Campaign-wide knobs. base_seed and repetitions feed make_grid (the grid
/// builder is the only consumer of either); threads feeds the runners.
struct CampaignConfig {
  std::uint64_t base_seed = 2022;  ///< mixed into every item's seed
  int repetitions = 20;            ///< paper: 20 per (type, scenario, gap)
  std::size_t threads = 0;         ///< 0 = hardware concurrency
};

/// Build the full item grid for one strategy (paper Table III row), seeded
/// from @p config.base_seed. @p repetitions overrides config-level
/// repetitions when > 0 (e.g. Table IV's Random-ST+DUR 10x multiplier);
/// otherwise @p config.repetitions applies. An effective repetition count
/// <= 0 would silently yield an empty grid and empty-looking tables, so it
/// throws std::invalid_argument instead.
std::vector<CampaignItem> make_grid(attack::StrategyKind strategy,
                                    bool strategic_values, bool driver_enabled,
                                    const CampaignConfig& config,
                                    int repetitions = 0);

/// Immutable per-campaign assets: the road and DBC database are identical
/// for every simulation, so campaigns build them once and share them
/// (const) across all Worlds instead of rebuilding per simulation.
struct WorldAssets {
  std::shared_ptr<const road::Road> road;
  std::shared_ptr<const can::Database> db;

  /// Build the paper's default assets (RoadBuilder::paper_road +
  /// Database::simulated_car).
  static WorldAssets make_default();
};

/// Construct the WorldConfig for one item (the single place where
/// calibration defaults live — tests and benches share it). The World
/// builds private road/DBC copies; campaigns use the sharing overload.
sim::WorldConfig world_config_for(const CampaignItem& item);

/// As above, but referencing @p assets instead of rebuilding them.
sim::WorldConfig world_config_for(const CampaignItem& item,
                                  const WorldAssets& assets);

/// Items per chunk: the reduction granularity of the campaign engine, the
/// commit granularity of the checkpoint layer, and the unit sharding splits
/// grids on. Fixed, so the engine's aggregates are bit-identical to
/// aggregate() over the same outcomes at any thread count, and a resumed
/// campaign restores whole chunks. Pool tasks are smaller (kTaskItems
/// items, see run_campaigns_streaming); a chunk is folded once all of its
/// tasks are done.
inline constexpr std::size_t kCampaignChunk = 64;

/// Items per campaign-engine pool task, run one after another on the
/// worker's resident World (exp::WorldArena): small enough that a 144-sim
/// grid spreads over every worker, large enough to amortize the task and
/// arena lease.
inline constexpr std::size_t kTaskItems = 8;

class CampaignCheckpoint;  // exp/checkpoint.hpp

/// Half-open range of kCampaignChunk-sized chunks [begin_chunk, end_chunk)
/// in a grid's global chunk index space. The unit the sharded coordinator
/// partitions campaigns by (exp::ShardPlan): because shard boundaries fall
/// on chunk boundaries — the reduction and checkpoint-commit granularity —
/// per-slice partials merged back in global chunk order are bit-identical
/// to a single-process run.
struct ChunkRange {
  std::size_t begin_chunk = 0;
  std::size_t end_chunk = 0;

  std::size_t chunk_count() const noexcept { return end_chunk - begin_chunk; }
  bool contains(std::size_t chunk) const noexcept {
    return chunk >= begin_chunk && chunk < end_chunk;
  }
};

/// Aggregate counters over a set of results (one Table IV row).
struct Aggregate {
  std::size_t simulations = 0;
  std::size_t sims_with_alerts = 0;
  std::size_t sims_with_hazards = 0;
  std::size_t sims_with_accidents = 0;
  std::size_t hazards_without_alerts = 0;  ///< hazard and no alert at all
  std::size_t fcw_activations = 0;
  double lane_invasion_rate_mean = 0.0;
  double tth_mean = 0.0;
  double tth_std = 0.0;

  /// Fraction helpers.
  double hazard_fraction() const noexcept;
  double accident_fraction() const noexcept;
  double alert_fraction() const noexcept;
};

/// Bit-exact snapshot of an AggregateAccumulator: the integer counters plus
/// the two Welford accumulators as raw bit patterns. This is what the
/// checkpoint layer persists per chunk; restoring it and merging in chunk
/// order reproduces an uninterrupted run exactly.
struct AggregateAccumulatorRecord {
  std::uint64_t simulations = 0;
  std::uint64_t sims_with_alerts = 0;
  std::uint64_t sims_with_hazards = 0;
  std::uint64_t sims_with_accidents = 0;
  std::uint64_t hazards_without_alerts = 0;
  std::uint64_t fcw_activations = 0;
  util::RunningStatsRecord invasion_rate;
  util::RunningStatsRecord tth;
};

/// Mergeable aggregate state: exact integer counters plus Welford moment
/// accumulators. The single reduction implementation behind both
/// aggregate() and run_campaign_streaming(), so the two can never drift.
class AggregateAccumulator {
 public:
  /// Fold one simulation outcome in.
  void add(const sim::SimulationSummary& summary);

  /// Fold another accumulator in (parallel/chunked reduction).
  void merge(const AggregateAccumulator& other);

  /// Finalize into the row the tables render.
  Aggregate finish() const;

  /// Exact snapshot; from_record(to_record()) is the identity.
  AggregateAccumulatorRecord to_record() const noexcept;

  /// Reconstitute an accumulator from a snapshot, bit-for-bit.
  static AggregateAccumulator from_record(
      const AggregateAccumulatorRecord& record) noexcept;

 private:
  Aggregate agg_;  ///< counter fields only; means/stds filled by finish()
  util::RunningStats invasion_rate_;
  util::RunningStats tth_;
};

/// Reduce results into an Aggregate (chunked exactly like the streaming
/// runner, so both produce bit-identical statistics).
Aggregate aggregate(const std::vector<CampaignResult>& results);

/// Streaming progress snapshot, delivered after every finished chunk.
struct CampaignProgress {
  std::size_t completed = 0;  ///< simulations finished so far
  std::size_t total = 0;      ///< grid size
};
using CampaignProgressFn = std::function<void(const CampaignProgress&)>;

/// One grid of a streaming run: the unit run_campaigns_streaming takes a
/// list of.
struct CampaignJob {
  /// The FULL grid, even when @p chunks selects a slice of it, so the
  /// checkpoint fingerprint matches every other slice of the same campaign.
  std::span<const CampaignItem> items;
  /// Called after every finished chunk (may be empty). Calls for one job
  /// are serialized and see non-decreasing counts; calls for different
  /// jobs may run concurrently on different workers.
  CampaignProgressFn progress;
  /// Restores and commits this grid's chunks (may be null).
  CampaignCheckpoint* checkpoint = nullptr;
  /// The chunks this job owns (nullopt = the whole grid).
  std::optional<ChunkRange> chunks;
  /// Per-item outcomes (empty = aggregate only): grid-sized, and slot i
  /// receives item i's summary once its chunk is folded or restored. A
  /// checkpoint must then keep summaries (CheckpointMode::kSummaries).
  std::span<sim::SimulationSummary> outcomes;
};

/// Run every job's items through one ThreadPool, one ArenaPool and one
/// WorldAssets, and return one Aggregate per job, in job order. This is the
/// campaign engine: the two one-grid wrappers below and every paper
/// artifact run through it.
///
/// Scheduling: tasks of kTaskItems items are queued in job order, then
/// chunk order, so no grid ends in a barrier that idles workers and small
/// grids spread over every thread. Each kCampaignChunk chunk counts its
/// tasks down; the worker that finishes a chunk's last task folds the
/// chunk's summaries in item order into the chunk's accumulator, commits
/// it, and only then reports progress. Each job's chunk accumulators are
/// merged in chunk order at the end. Both orders are the ones
/// aggregate() uses, so every returned Aggregate is bit-identical to
/// aggregate() over the job's outcomes, at any thread count.
///
/// Memory: per-item summaries live only while their chunk is in flight
/// (unless the job keeps outcomes). The queue is FIFO, so at most
/// threads + 1 chunks are in flight at once; besides those, the run holds
/// one cache-line-padded accumulator per chunk.
///
/// With a job's checkpoint, its chunks already in the file are restored
/// (never recomputed) and counted into the job's first progress call, and
/// each freshly finished chunk is committed (an fsync'd atomic append)
/// before it reports progress. Restored and recomputed partials merge in
/// the same chunk order, so a run that is killed and resumed any number of
/// times returns bit-identical aggregates. A commit failure (e.g. disk
/// full) in any job aborts the outstanding work of every job and is
/// rethrown as CheckpointError after the pool drains. A job that keeps
/// outcomes under a checkpoint that does not keep summaries is rejected
/// with CheckpointError before anything runs.
///
/// With a job's chunk range, only the chunks in [begin_chunk, end_chunk)
/// are restored, run, folded and counted (an oversized range is clamped):
/// this is the shard-worker entry point. Progress totals cover the slice,
/// and the job's Aggregate is the slice's alone — the merge step
/// (exp/shard.hpp) folds the per-chunk checkpoint records of all slices
/// in global chunk order to reconstruct the campaign total bit-identically.
std::vector<Aggregate> run_campaigns_streaming(
    std::span<const CampaignJob> jobs, const CampaignConfig& config);

/// One grid through run_campaigns_streaming: a single job with the given
/// progress callback, checkpoint (may be null) and chunk range (may be
/// null = the whole grid).
Aggregate run_campaign_streaming(const std::vector<CampaignItem>& items,
                                 const CampaignConfig& config,
                                 const CampaignProgressFn& progress = {},
                                 CampaignCheckpoint* checkpoint = nullptr,
                                 const ChunkRange* chunks = nullptr);

/// One grid through run_campaigns_streaming, keeping every item's outcome:
/// results come back in item order. @p checkpoint (may be null) must keep
/// summaries; its chunks are restored, never recomputed.
std::vector<CampaignResult> run_campaign(const std::vector<CampaignItem>& items,
                                         const CampaignConfig& config,
                                         CampaignCheckpoint* checkpoint = nullptr);

}  // namespace scaa::exp
