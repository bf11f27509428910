#include "exp/campaign.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>

#include "exp/arena.hpp"
#include "exp/checkpoint.hpp"
#include "road/builder.hpp"
#include "util/mutex.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_annotations.hpp"

namespace scaa::exp {

std::vector<CampaignItem> make_grid(attack::StrategyKind strategy,
                                    bool strategic_values, bool driver_enabled,
                                    const CampaignConfig& config,
                                    int repetitions) {
  // The documented fallback: an explicit positive override wins, otherwise
  // the config-level repetition count applies. Anything non-positive after
  // that would silently produce an empty grid (and empty-looking tables
  // downstream), so it is a hard error.
  if (repetitions <= 0) repetitions = config.repetitions;
  if (repetitions <= 0)
    throw std::invalid_argument(
        "make_grid: effective repetitions must be > 0, got " +
        std::to_string(repetitions) +
        " (override and CampaignConfig.repetitions are both non-positive)");
  const std::uint64_t base_seed = config.base_seed;
  std::vector<CampaignItem> items;
  std::uint64_t counter = 0;
  for (const attack::AttackType type : attack::kAllAttackTypes) {
    for (int sid = 1; sid <= 4; ++sid) {
      for (const double gap : sim::Scenario::kGaps) {
        for (int rep = 0; rep < repetitions; ++rep) {
          CampaignItem item;
          item.strategy = strategy;
          item.type = type;
          item.strategic_values = strategic_values;
          item.driver_enabled = driver_enabled;
          item.scenario_id = sid;
          item.initial_gap = gap;
          // Seed derivation: stable across grid orderings.
          std::uint64_t mix = base_seed ^ (counter * 0x9E3779B97F4A7C15ull);
          item.seed = util::splitmix64(mix);
          ++counter;
          items.push_back(item);
        }
      }
    }
  }
  return items;
}

WorldAssets WorldAssets::make_default() {
  WorldAssets assets;
  assets.road =
      std::make_shared<const road::Road>(road::RoadBuilder::paper_road());
  assets.db =
      std::make_shared<const can::Database>(can::Database::simulated_car());
  return assets;
}

sim::WorldConfig world_config_for(const CampaignItem& item) {
  sim::WorldConfig cfg;
  cfg.scenario = sim::Scenario::make(item.scenario_id, item.initial_gap);
  cfg.seed = item.seed;
  cfg.driver_enabled = item.driver_enabled;
  cfg.attack_enabled = item.strategy != attack::StrategyKind::kNone;
  cfg.attack.strategy = item.strategy;
  cfg.attack.type = item.type;
  cfg.attack.strategic_values = item.strategic_values;
  cfg.fault_plan = item.fault_plan;
  cfg.attack.strategy_params.forced_start = item.forced_start;
  cfg.attack.strategy_params.forced_duration = item.forced_duration;
  return cfg;
}

sim::WorldConfig world_config_for(const CampaignItem& item,
                                  const WorldAssets& assets) {
  sim::WorldConfig cfg = world_config_for(item);
  cfg.road = assets.road;
  cfg.db = assets.db;
  return cfg;
}

double Aggregate::hazard_fraction() const noexcept {
  return simulations
             ? static_cast<double>(sims_with_hazards) / static_cast<double>(simulations)
             : 0.0;
}

double Aggregate::accident_fraction() const noexcept {
  return simulations
             ? static_cast<double>(sims_with_accidents) / static_cast<double>(simulations)
             : 0.0;
}

double Aggregate::alert_fraction() const noexcept {
  return simulations
             ? static_cast<double>(sims_with_alerts) / static_cast<double>(simulations)
             : 0.0;
}

void AggregateAccumulator::add(const sim::SimulationSummary& s) {
  ++agg_.simulations;
  if (s.alert_events > 0) ++agg_.sims_with_alerts;
  if (s.any_hazard) ++agg_.sims_with_hazards;
  if (s.any_accident) ++agg_.sims_with_accidents;
  if (s.any_hazard && s.alert_events == 0) ++agg_.hazards_without_alerts;
  agg_.fcw_activations += s.fcw_events;
  invasion_rate_.add(s.lane_invasion_rate);
  if (s.tth >= 0.0) tth_.add(s.tth);
}

void AggregateAccumulator::merge(const AggregateAccumulator& other) {
  agg_.simulations += other.agg_.simulations;
  agg_.sims_with_alerts += other.agg_.sims_with_alerts;
  agg_.sims_with_hazards += other.agg_.sims_with_hazards;
  agg_.sims_with_accidents += other.agg_.sims_with_accidents;
  agg_.hazards_without_alerts += other.agg_.hazards_without_alerts;
  agg_.fcw_activations += other.agg_.fcw_activations;
  invasion_rate_.merge(other.invasion_rate_);
  tth_.merge(other.tth_);
}

Aggregate AggregateAccumulator::finish() const {
  Aggregate agg = agg_;
  agg.lane_invasion_rate_mean = invasion_rate_.mean();
  agg.tth_mean = tth_.mean();
  agg.tth_std = tth_.stddev();
  return agg;
}

AggregateAccumulatorRecord AggregateAccumulator::to_record() const noexcept {
  AggregateAccumulatorRecord record;
  record.simulations = agg_.simulations;
  record.sims_with_alerts = agg_.sims_with_alerts;
  record.sims_with_hazards = agg_.sims_with_hazards;
  record.sims_with_accidents = agg_.sims_with_accidents;
  record.hazards_without_alerts = agg_.hazards_without_alerts;
  record.fcw_activations = agg_.fcw_activations;
  record.invasion_rate = invasion_rate_.to_record();
  record.tth = tth_.to_record();
  return record;
}

AggregateAccumulator AggregateAccumulator::from_record(
    const AggregateAccumulatorRecord& record) noexcept {
  AggregateAccumulator acc;
  acc.agg_.simulations = static_cast<std::size_t>(record.simulations);
  acc.agg_.sims_with_alerts =
      static_cast<std::size_t>(record.sims_with_alerts);
  acc.agg_.sims_with_hazards =
      static_cast<std::size_t>(record.sims_with_hazards);
  acc.agg_.sims_with_accidents =
      static_cast<std::size_t>(record.sims_with_accidents);
  acc.agg_.hazards_without_alerts =
      static_cast<std::size_t>(record.hazards_without_alerts);
  acc.agg_.fcw_activations = static_cast<std::size_t>(record.fcw_activations);
  acc.invasion_rate_ = util::RunningStats::from_record(record.invasion_rate);
  acc.tth_ = util::RunningStats::from_record(record.tth);
  return acc;
}

Aggregate aggregate(const std::vector<CampaignResult>& results) {
  // Chunked exactly like run_campaign_streaming (same chunk size, same
  // within-chunk order, same chunk-order merge) so the two reductions are
  // bit-identical — including the floating-point moments.
  AggregateAccumulator total;
  for (std::size_t begin = 0; begin < results.size(); begin += kCampaignChunk) {
    const std::size_t end = std::min(results.size(), begin + kCampaignChunk);
    AggregateAccumulator chunk;
    for (std::size_t i = begin; i < end; ++i) chunk.add(results[i].summary);
    total.merge(chunk);
  }
  return total.finish();
}

namespace {

/// Captures the first checkpoint-commit failure from a worker thread so the
/// runner can abort outstanding work and rethrow once the pool drains
/// (letting an exception escape a pool task would terminate the process).
struct CommitErrors {
  util::Mutex mutex;
  std::string first SCAA_GUARDED_BY(mutex);
  std::atomic<bool> failed{false};

  void capture(const std::exception& e) SCAA_EXCLUDES(mutex) {
    const util::MutexLock lock(mutex);
    if (first.empty()) first = e.what();
    failed.store(true, std::memory_order_release);
  }
  void rethrow_if_failed() SCAA_EXCLUDES(mutex) {
    if (!failed.load(std::memory_order_acquire)) return;
    // The pool has drained by the time this runs, but take the lock anyway:
    // `first` is guarded, and an uncontended lock costs nothing here.
    const util::MutexLock lock(mutex);
    throw CheckpointError(first);
  }
};

/// One streaming job's progress bookkeeping, shared by the workers that
/// finish its chunks: the cumulative completed-simulation count and the
/// user callback invocation are both serialized by one mutex, so the job's
/// callbacks observe monotonically non-decreasing counts.
struct ProgressCounter {
  util::Mutex mutex;
  std::size_t completed SCAA_GUARDED_BY(mutex) = 0;

  void start_at(std::size_t restored) SCAA_EXCLUDES(mutex) {
    const util::MutexLock lock(mutex);
    completed = restored;
  }
  void advance(std::size_t delta, std::size_t total,
               const CampaignProgressFn& progress) SCAA_EXCLUDES(mutex) {
    const util::MutexLock lock(mutex);
    completed += delta;
    progress(CampaignProgress{completed, total});
  }
};

/// Items in chunk @p chunk of an @p n_items grid (the last may be short).
std::size_t chunk_size(std::size_t n_items, std::size_t chunk) {
  return std::min(n_items, (chunk + 1) * kCampaignChunk) -
         chunk * kCampaignChunk;
}

/// A chunk accumulator padded to a cache line: each is written by exactly
/// one worker (the one that folds the chunk), and the padding keeps
/// neighbouring chunks from false-sharing while workers fold concurrently.
struct alignas(64) PaddedAccumulator {
  AggregateAccumulator acc;
};

/// One job's bookkeeping: the chunk range it owns, one accumulator per
/// chunk of that range, and its progress count.
struct JobRun {
  std::size_t range_begin = 0;
  std::size_t range_items = 0;
  std::vector<PaddedAccumulator> partials;  ///< from range_begin on
  ProgressCounter counter;
};

/// A chunk that has to be computed: job index and chunk index.
struct ChunkWork {
  std::size_t job = 0;
  std::size_t chunk = 0;
};

/// Summary slots of the chunks in flight, keyed by their index in the
/// run's work list. Every task deposits its summaries when it finishes;
/// the deposit that completes a chunk takes the chunk's slots out for the
/// caller to fold, and they are freed with it. A chunk holds slots only
/// from its first deposit to its last, so only the chunks in flight at
/// once hold slots.
class InFlightChunks {
 public:
  using Slots = std::array<sim::SimulationSummary, kCampaignChunk>;

  /// @p tasks_left[w]: the number of tasks chunk w is split into.
  explicit InFlightChunks(std::vector<std::size_t> tasks_left)
      : tasks_left_(std::move(tasks_left)), open_(tasks_left_.size()) {}

  /// Copy @p summaries into chunk @p work's slots from @p offset on.
  /// Returns the chunk's filled slots when this was its last task, else
  /// null.
  std::unique_ptr<Slots> deposit(
      std::size_t work, std::size_t offset,
      std::span<const sim::SimulationSummary> summaries) SCAA_EXCLUDES(mutex_) {
    const util::MutexLock lock(mutex_);
    std::unique_ptr<Slots>& slots = open_[work];
    if (!slots) slots = std::make_unique<Slots>();
    std::copy(summaries.begin(), summaries.end(),
              slots->begin() + static_cast<std::ptrdiff_t>(offset));
    if (--tasks_left_[work] > 0) return nullptr;
    return std::move(slots);
  }

 private:
  util::Mutex mutex_;
  std::vector<std::size_t> tasks_left_ SCAA_GUARDED_BY(mutex_);
  std::vector<std::unique_ptr<Slots>> open_ SCAA_GUARDED_BY(mutex_);
};

}  // namespace

std::vector<Aggregate> run_campaigns_streaming(
    std::span<const CampaignJob> jobs, const CampaignConfig& config) {
  const WorldAssets assets = WorldAssets::make_default();

  // Per job: clamp its chunk range, restore the chunks its checkpoint
  // already holds (they are never recomputed, and the job's first progress
  // call accounts for them), and list the rest as work, in chunk order.
  std::vector<JobRun> runs(jobs.size());
  std::vector<ChunkWork> work;
  std::vector<std::size_t> tasks_per_chunk;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const CampaignJob& job = jobs[j];
    if (!job.outcomes.empty()) {
      if (job.outcomes.size() != job.items.size())
        throw std::invalid_argument(
            "run_campaigns_streaming: outcomes span is not grid-sized");
      if (job.checkpoint != nullptr && !job.checkpoint->keeps_summaries())
        throw CheckpointError(
            "run_campaigns_streaming: a job that keeps outcomes needs a "
            "checkpoint that keeps summaries");
    }
    JobRun& run = runs[j];
    const std::size_t n_chunks =
        (job.items.size() + kCampaignChunk - 1) / kCampaignChunk;
    run.range_begin =
        job.chunks ? std::min(job.chunks->begin_chunk, n_chunks) : 0;
    const std::size_t range_end =
        job.chunks ? std::max(run.range_begin,
                              std::min(job.chunks->end_chunk, n_chunks))
                   : n_chunks;
    run.partials.resize(range_end - run.range_begin);
    std::size_t restored = 0;
    for (std::size_t c = run.range_begin; c < range_end; ++c) {
      const std::size_t n = chunk_size(job.items.size(), c);
      run.range_items += n;
      if (job.checkpoint != nullptr && job.checkpoint->chunk_complete(c)) {
        run.partials[c - run.range_begin].acc = job.checkpoint->restored(c);
        if (!job.outcomes.empty())
          std::ranges::copy(job.checkpoint->restored_summaries(c),
                            job.outcomes.subspan(c * kCampaignChunk).begin());
        restored += n;
      } else {
        work.push_back({j, c});
        tasks_per_chunk.push_back((n + kTaskItems - 1) / kTaskItems);
      }
    }
    if (job.progress && restored > 0)
      job.progress(CampaignProgress{restored, run.range_items});
    run.counter.start_at(restored);
  }

  InFlightChunks in_flight(std::move(tasks_per_chunk));
  ArenaPool arenas;
  CommitErrors errors;
  // One pool task: simulate items [begin, end) of work[w]'s chunk. The task
  // that completes the chunk folds, commits and reports it.
  const auto run_task = [&](std::size_t w, std::size_t begin,
                            std::size_t end) {
    if (errors.failed.load(std::memory_order_acquire)) return;
    const ChunkWork& cw = work[w];
    const CampaignJob& job = jobs[cw.job];
    std::array<sim::SimulationSummary, kTaskItems> summaries;
    {
      ArenaPool::Lease lease(arenas);
      lease->run_items(job.items.subspan(begin, end - begin), assets,
                       {summaries.data(), end - begin});
    }
    std::unique_ptr<InFlightChunks::Slots> slots =
        in_flight.deposit(w, begin - cw.chunk * kCampaignChunk,
                          {summaries.data(), end - begin});
    if (!slots) return;

    // Fold in item order within the chunk — the same order the sequential
    // reduction uses.
    JobRun& run = runs[cw.job];
    AggregateAccumulator& acc = run.partials[cw.chunk - run.range_begin].acc;
    const std::size_t n = chunk_size(job.items.size(), cw.chunk);
    const std::span<const sim::SimulationSummary> folded(slots->data(), n);
    for (const sim::SimulationSummary& s : folded) acc.add(s);
    if (!job.outcomes.empty())
      std::ranges::copy(folded,
                        job.outcomes.subspan(cw.chunk * kCampaignChunk).begin());
    // Commit before reporting progress: a chunk only ever counts as done
    // once it is durable.
    if (job.checkpoint != nullptr) {
      try {
        job.checkpoint->commit(cw.chunk, acc, folded);
      } catch (const std::exception& e) {
        errors.capture(e);
        return;
      }
    }
    slots.reset();
    if (job.progress) run.counter.advance(n, run.range_items, job.progress);
  };
  {
    ThreadPool pool(config.threads);
    for (std::size_t w = 0; w < work.size(); ++w) {
      const ChunkWork& cw = work[w];
      const std::size_t chunk_begin = cw.chunk * kCampaignChunk;
      const std::size_t chunk_end =
          chunk_begin + chunk_size(jobs[cw.job].items.size(), cw.chunk);
      for (std::size_t begin = chunk_begin; begin < chunk_end;
           begin += kTaskItems) {
        const std::size_t end = std::min(chunk_end, begin + kTaskItems);
        pool.submit([&run_task, w, begin, end] { run_task(w, begin, end); });
      }
    }
    pool.wait_idle();
  }
  errors.rethrow_if_failed();

  // Merge each job in chunk order: the fixed order is what makes the
  // result independent of which worker ran which task — and, with a
  // checkpoint, of which chunks were restored vs. freshly computed. A
  // sliced job folds only its own range, so its Aggregate covers exactly
  // the slice's items.
  std::vector<Aggregate> aggregates;
  aggregates.reserve(runs.size());
  for (const JobRun& run : runs) {
    AggregateAccumulator total;
    for (const PaddedAccumulator& partial : run.partials)
      total.merge(partial.acc);
    aggregates.push_back(total.finish());
  }
  return aggregates;
}

Aggregate run_campaign_streaming(const std::vector<CampaignItem>& items,
                                 const CampaignConfig& config,
                                 const CampaignProgressFn& progress,
                                 CampaignCheckpoint* checkpoint,
                                 const ChunkRange* chunks) {
  CampaignJob job;
  job.items = items;
  job.progress = progress;
  job.checkpoint = checkpoint;
  if (chunks != nullptr) job.chunks = *chunks;
  return run_campaigns_streaming({&job, 1}, config).front();
}

std::vector<CampaignResult> run_campaign(const std::vector<CampaignItem>& items,
                                         const CampaignConfig& config,
                                         CampaignCheckpoint* checkpoint) {
  std::vector<sim::SimulationSummary> outcomes(items.size());
  CampaignJob job;
  job.items = items;
  job.checkpoint = checkpoint;
  job.outcomes = outcomes;
  run_campaigns_streaming({&job, 1}, config);
  std::vector<CampaignResult> results;
  results.reserve(items.size());
  for (std::size_t i = 0; i < items.size(); ++i)
    results.push_back({items[i], outcomes[i]});
  return results;
}

}  // namespace scaa::exp
