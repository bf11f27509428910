// Tests for the experiment layer: thread pool, campaign grid/runner,
// aggregation, table emitters, parameter-space sweep.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "exp/campaign.hpp"
#include "exp/checkpoint.hpp"
#include "exp/param_space.hpp"
#include "exp/tables.hpp"
#include "util/rng.hpp"
#include "util/serial.hpp"

namespace {

using namespace scaa;

/// Grid-construction shorthand: most tests only vary reps and seed.
exp::CampaignConfig grid_config(int reps, std::uint64_t seed) {
  exp::CampaignConfig config;
  config.repetitions = reps;
  config.base_seed = seed;
  return config;
}

TEST(ThreadPool, RunsAllTasks) {
  exp::ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) pool.submit([&] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  exp::ThreadPool pool(2);
  pool.wait_idle();  // must not deadlock
  SUCCEED();
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  exp::ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(Campaign, GridShapeMatchesPaper) {
  const auto grid = exp::make_grid(attack::StrategyKind::kContextAware, true,
                                   true, grid_config(20, 2022));
  // 6 types x 4 scenarios x 3 gaps x 20 reps = 1,440 (paper Table III).
  EXPECT_EQ(grid.size(), 1440u);
  std::set<std::uint64_t> seeds;
  for (const auto& item : grid) seeds.insert(item.seed);
  EXPECT_EQ(seeds.size(), grid.size());  // all seeds unique
}

TEST(Campaign, GridCoversAllCells) {
  const auto grid = exp::make_grid(attack::StrategyKind::kRandomSt, false,
                                   true, grid_config(1, 1));
  EXPECT_EQ(grid.size(), 72u);
  std::set<std::tuple<int, int, int>> cells;
  for (const auto& item : grid)
    cells.insert({static_cast<int>(item.type), item.scenario_id,
                  static_cast<int>(item.initial_gap)});
  EXPECT_EQ(cells.size(), 72u);
}

TEST(Campaign, SameSeedsForDriverOnOff) {
  // The Table V pairing requires identical seeds across the two campaigns.
  const auto on = exp::make_grid(attack::StrategyKind::kContextAware, true,
                                 true, grid_config(2, 99));
  const auto off = exp::make_grid(attack::StrategyKind::kContextAware, true,
                                  false, grid_config(2, 99));
  ASSERT_EQ(on.size(), off.size());
  for (std::size_t i = 0; i < on.size(); ++i) {
    EXPECT_EQ(on[i].seed, off[i].seed);
    EXPECT_EQ(on[i].type, off[i].type);
  }
}

TEST(Campaign, RejectsNonPositiveRepetitions) {
  // A repetitions value that is <= 0 after the documented fallback used to
  // silently yield an empty grid (and empty-looking tables); it must fail
  // loudly instead.
  exp::CampaignConfig config = grid_config(0, 1);
  EXPECT_THROW(exp::make_grid(attack::StrategyKind::kNone, false, true,
                              config),
               std::invalid_argument);
  config.repetitions = -3;
  EXPECT_THROW(exp::make_grid(attack::StrategyKind::kNone, false, true,
                              config, -1),
               std::invalid_argument);
}

TEST(Campaign, RepetitionOverrideFallsBackToConfig) {
  // Override > 0 wins; override <= 0 falls back to config.repetitions —
  // the behaviour the header documents (and CampaignConfig.repetitions is
  // genuinely consumed, not a dead field).
  const auto config = grid_config(2, 7);
  const auto fallback = exp::make_grid(attack::StrategyKind::kRandomSt, false,
                                       true, config);
  EXPECT_EQ(fallback.size(), 144u);  // 6 types x 4 scenarios x 3 gaps x 2
  const auto overridden = exp::make_grid(attack::StrategyKind::kRandomSt,
                                         false, true, config, 1);
  EXPECT_EQ(overridden.size(), 72u);
}

TEST(Campaign, GridSeedsComeFromConfigBaseSeed) {
  const auto a = exp::make_grid(attack::StrategyKind::kRandomSt, false, true,
                                grid_config(1, 1));
  const auto b = exp::make_grid(attack::StrategyKind::kRandomSt, false, true,
                                grid_config(1, 2));
  ASSERT_EQ(a.size(), b.size());
  EXPECT_NE(a[0].seed, b[0].seed);
}

TEST(Campaign, RunnerDeterministicAcrossThreadCounts) {
  auto grid = exp::make_grid(attack::StrategyKind::kContextAware, true, true,
                             grid_config(1, 5));
  grid.resize(12);  // keep the test fast
  exp::CampaignConfig one;
  one.threads = 1;
  exp::CampaignConfig many;
  many.threads = 8;
  const auto a = exp::run_campaign(grid, one);
  const auto b = exp::run_campaign(grid, many);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].summary.any_hazard, b[i].summary.any_hazard) << i;
    EXPECT_DOUBLE_EQ(a[i].summary.first_hazard_time,
                     b[i].summary.first_hazard_time);
    EXPECT_EQ(a[i].summary.lane_invasions, b[i].summary.lane_invasions);
  }
}

TEST(Campaign, StreamingMatchesVectorPathBitExactly) {
  // The streaming runner must produce the same Aggregate as materializing
  // every result and reducing it — including the floating-point moments —
  // at any thread count (the chunked reduction order is fixed). The grid
  // must span several chunks (kCampaignChunk = 64) so the cross-chunk
  // merge order is actually exercised, not just a single accumulator.
  auto grid = exp::make_grid(attack::StrategyKind::kContextAware, true, true,
                             grid_config(2, 11));
  grid.resize(2 * exp::kCampaignChunk + 2);
  exp::CampaignConfig cc;
  cc.threads = 4;
  const auto vector_agg = exp::aggregate(exp::run_campaign(grid, cc));

  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    exp::CampaignConfig scc;
    scc.threads = threads;
    const auto streamed = exp::run_campaign_streaming(grid, scc);
    EXPECT_EQ(streamed.simulations, vector_agg.simulations);
    EXPECT_EQ(streamed.sims_with_alerts, vector_agg.sims_with_alerts);
    EXPECT_EQ(streamed.sims_with_hazards, vector_agg.sims_with_hazards);
    EXPECT_EQ(streamed.sims_with_accidents, vector_agg.sims_with_accidents);
    EXPECT_EQ(streamed.hazards_without_alerts,
              vector_agg.hazards_without_alerts);
    EXPECT_EQ(streamed.fcw_activations, vector_agg.fcw_activations);
    EXPECT_DOUBLE_EQ(streamed.lane_invasion_rate_mean,
                     vector_agg.lane_invasion_rate_mean);
    EXPECT_DOUBLE_EQ(streamed.tth_mean, vector_agg.tth_mean);
    EXPECT_DOUBLE_EQ(streamed.tth_std, vector_agg.tth_std);
  }
}

TEST(Campaign, StreamingReportsMonotonicProgress) {
  auto grid = exp::make_grid(attack::StrategyKind::kNone, false, true,
                             grid_config(1, 3));
  grid.resize(6);
  exp::CampaignConfig cc;
  cc.threads = 2;
  std::vector<exp::CampaignProgress> seen;
  exp::run_campaign_streaming(grid, cc,
                              [&seen](const exp::CampaignProgress& p) {
                                seen.push_back(p);
                              });
  ASSERT_FALSE(seen.empty());
  for (std::size_t i = 1; i < seen.size(); ++i)
    EXPECT_GT(seen[i].completed, seen[i - 1].completed);
  EXPECT_EQ(seen.back().completed, grid.size());
  EXPECT_EQ(seen.back().total, grid.size());
}

/// Bit-exact Aggregate equality (doubles compared as bit patterns).
void expect_bit_identical(const exp::Aggregate& a, const exp::Aggregate& b) {
  EXPECT_EQ(a.simulations, b.simulations);
  EXPECT_EQ(a.sims_with_alerts, b.sims_with_alerts);
  EXPECT_EQ(a.sims_with_hazards, b.sims_with_hazards);
  EXPECT_EQ(a.sims_with_accidents, b.sims_with_accidents);
  EXPECT_EQ(a.hazards_without_alerts, b.hazards_without_alerts);
  EXPECT_EQ(a.fcw_activations, b.fcw_activations);
  EXPECT_EQ(util::double_bits(a.lane_invasion_rate_mean),
            util::double_bits(b.lane_invasion_rate_mean));
  EXPECT_EQ(util::double_bits(a.tth_mean), util::double_bits(b.tth_mean));
  EXPECT_EQ(util::double_bits(a.tth_std), util::double_bits(b.tth_std));
}

/// Grids for the multi-grid runner: 1 item, 65 (a chunk plus a one-item
/// tail), 144 (three chunks, a Table IV grid at reps 2), and an empty grid,
/// each from a different strategy so their outcomes differ.
std::vector<std::vector<exp::CampaignItem>> multi_grid_set() {
  const auto cc = grid_config(2, 29);
  auto one =
      exp::make_grid(attack::StrategyKind::kContextAware, true, true, cc);
  one.resize(1);
  auto chunk_and_one =
      exp::make_grid(attack::StrategyKind::kNone, false, true, cc);
  chunk_and_one.resize(exp::kCampaignChunk + 1);
  auto three_chunks =
      exp::make_grid(attack::StrategyKind::kRandomSt, false, true, cc);
  return {one, chunk_and_one, three_chunks, {}};
}

std::vector<exp::Aggregate> per_grid_reference(
    const std::vector<std::vector<exp::CampaignItem>>& grids) {
  exp::CampaignConfig cc;
  cc.threads = 4;
  std::vector<exp::Aggregate> reference;
  for (const auto& grid : grids)
    reference.push_back(exp::aggregate(exp::run_campaign(grid, cc)));
  return reference;
}

std::string multi_grid_temp_path(const std::string& name) {
  return testing::TempDir() + "scaa_multigrid_" + name;
}

TEST(Campaign, MultiGridMatchesPerGridBitExactly) {
  // One pool for every grid, 8-item tasks, each chunk folded in item order
  // by whichever worker finishes it last: the aggregates must equal the
  // per-grid materializing reduction bit for bit at any thread count, and
  // each grid's progress must count up to its own total.
  const auto grids = multi_grid_set();
  ASSERT_EQ(grids[2].size(), 144u);
  const auto reference = per_grid_reference(grids);

  for (const std::size_t threads : {1u, 3u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::vector<std::vector<exp::CampaignProgress>> seen(grids.size());
    std::vector<exp::CampaignJob> jobs;
    for (std::size_t g = 0; g < grids.size(); ++g) {
      exp::CampaignJob job;
      job.items = grids[g];
      // Calls for one job are serialized, so each job's vector is only
      // ever touched by one thread at a time.
      job.progress = [&seen, g](const exp::CampaignProgress& p) {
        seen[g].push_back(p);
      };
      jobs.push_back(std::move(job));
    }
    exp::CampaignConfig cc;
    cc.threads = threads;
    const auto aggs = exp::run_campaigns_streaming(jobs, cc);
    ASSERT_EQ(aggs.size(), grids.size());
    for (std::size_t g = 0; g < grids.size(); ++g) {
      SCOPED_TRACE("grid " + std::to_string(g));
      expect_bit_identical(aggs[g], reference[g]);
      if (grids[g].empty()) {
        EXPECT_TRUE(seen[g].empty());
        continue;
      }
      ASSERT_FALSE(seen[g].empty());
      for (std::size_t i = 1; i < seen[g].size(); ++i)
        EXPECT_GE(seen[g][i].completed, seen[g][i - 1].completed);
      EXPECT_EQ(seen[g].back().completed, grids[g].size());
      for (const exp::CampaignProgress& p : seen[g])
        EXPECT_EQ(p.total, grids[g].size());
    }
  }
}

TEST(Campaign, MultiGridResumeMatchesUninterrupted) {
  // Commit some chunks of two grids (through chunk ranges, as a killed
  // run would have left them), then resume all grids in one call: the
  // restored and recomputed chunks must merge to the uninterrupted result.
  const auto grids = multi_grid_set();
  const auto reference = per_grid_reference(grids);
  const std::string path65 = multi_grid_temp_path("65");
  const std::string path144 = multi_grid_temp_path("144");
  std::remove(path65.c_str());
  std::remove(path144.c_str());
  exp::CampaignConfig cc;
  cc.threads = 3;
  {
    exp::CampaignCheckpoint ckpt65(path65, grids[1], /*resume=*/false);
    exp::CampaignCheckpoint ckpt144(path144, grids[2], /*resume=*/false);
    std::vector<exp::CampaignJob> jobs(2);
    jobs[0].items = grids[1];
    jobs[0].checkpoint = &ckpt65;
    jobs[0].chunks = exp::ChunkRange{1, 2};  // the one-item tail chunk
    jobs[1].items = grids[2];
    jobs[1].checkpoint = &ckpt144;
    jobs[1].chunks = exp::ChunkRange{0, 2};
    exp::run_campaigns_streaming(jobs, cc);
  }

  exp::CampaignCheckpoint ckpt65(path65, grids[1], /*resume=*/true);
  exp::CampaignCheckpoint ckpt144(path144, grids[2], /*resume=*/true);
  ASSERT_EQ(ckpt65.completed_chunks(), 1u);
  ASSERT_EQ(ckpt144.completed_chunks(), 2u);
  std::vector<exp::CampaignProgress> first(grids.size());
  std::vector<exp::CampaignJob> jobs;
  for (std::size_t g = 0; g < grids.size(); ++g) {
    exp::CampaignJob job;
    job.items = grids[g];
    job.progress = [&first, g](const exp::CampaignProgress& p) {
      if (first[g].completed == 0) first[g] = p;
    };
    jobs.push_back(std::move(job));
  }
  jobs[1].checkpoint = &ckpt65;
  jobs[2].checkpoint = &ckpt144;
  const auto aggs = exp::run_campaigns_streaming(jobs, cc);
  for (std::size_t g = 0; g < grids.size(); ++g) {
    SCOPED_TRACE("grid " + std::to_string(g));
    expect_bit_identical(aggs[g], reference[g]);
  }
  // The restored chunks are counted before anything new runs.
  EXPECT_EQ(first[1].completed, 1u);
  EXPECT_EQ(first[2].completed, 2 * exp::kCampaignChunk);
  std::remove(path65.c_str());
  std::remove(path144.c_str());
}

TEST(Campaign, MultiGridCommitFailureRethrownAfterDrain) {
  // A checkpoint sized for the first chunk of the 144-item grid: committing
  // chunk 1 or 2 fails the way a full disk would. The failure must come
  // back to the caller as CheckpointError once the pool has drained (an
  // exception escaping a pool task would terminate the process), while the
  // other grids share the same pool.
  const auto grids = multi_grid_set();
  const std::string path = multi_grid_temp_path("short");
  std::remove(path.c_str());
  const std::vector<exp::CampaignItem> first_chunk(
      grids[2].begin(), grids[2].begin() + exp::kCampaignChunk);
  exp::CampaignCheckpoint short_ckpt(path, first_chunk, /*resume=*/false);

  std::vector<exp::CampaignJob> jobs;
  for (const auto& grid : grids) {
    exp::CampaignJob job;
    job.items = grid;
    jobs.push_back(std::move(job));
  }
  jobs[2].checkpoint = &short_ckpt;
  exp::CampaignConfig cc;
  cc.threads = 4;
  EXPECT_THROW(exp::run_campaigns_streaming(jobs, cc), exp::CheckpointError);
  std::remove(path.c_str());
}

TEST(Campaign, SharedAssetsMatchPrivatelyBuiltWorlds) {
  // A World running on campaign-shared road/DBC must behave identically to
  // one that built its own (the assets are immutable and identical).
  exp::CampaignItem item;
  item.strategy = attack::StrategyKind::kContextAware;
  item.type = attack::AttackType::kSteeringLeft;
  item.seed = 77;
  const auto assets = exp::WorldAssets::make_default();

  sim::World owned(exp::world_config_for(item));
  sim::World shared(exp::world_config_for(item, assets));
  const auto a = owned.run();
  const auto b = shared.run();
  EXPECT_EQ(a.any_hazard, b.any_hazard);
  EXPECT_DOUBLE_EQ(a.first_hazard_time, b.first_hazard_time);
  EXPECT_EQ(a.any_accident, b.any_accident);
  EXPECT_EQ(a.alert_events, b.alert_events);
  EXPECT_EQ(a.lane_invasions, b.lane_invasions);
  EXPECT_DOUBLE_EQ(a.sim_end_time, b.sim_end_time);
  EXPECT_EQ(a.frames_corrupted, b.frames_corrupted);
}

TEST(Aggregate, CountsAndFractions) {
  std::vector<exp::CampaignResult> results(4);
  results[0].summary.any_hazard = true;
  results[0].summary.alert_events = 1;
  results[0].summary.tth = 2.0;
  results[1].summary.any_hazard = true;
  results[1].summary.any_accident = true;
  results[1].summary.tth = 4.0;
  // results[2], results[3]: clean runs.
  const auto agg = exp::aggregate(results);
  EXPECT_EQ(agg.simulations, 4u);
  EXPECT_EQ(agg.sims_with_hazards, 2u);
  EXPECT_EQ(agg.sims_with_accidents, 1u);
  EXPECT_EQ(agg.sims_with_alerts, 1u);
  EXPECT_EQ(agg.hazards_without_alerts, 1u);  // run 1 had hazard + no alerts
  EXPECT_DOUBLE_EQ(agg.hazard_fraction(), 0.5);
  EXPECT_DOUBLE_EQ(agg.accident_fraction(), 0.25);
  EXPECT_DOUBLE_EQ(agg.tth_mean, 3.0);
}

TEST(Tables, Table4RendersAllRows) {
  std::map<attack::StrategyKind, exp::Aggregate> rows;
  exp::Aggregate a;
  a.simulations = 1440;
  a.sims_with_hazards = 1201;
  rows[attack::StrategyKind::kNone] = a;
  rows[attack::StrategyKind::kContextAware] = a;
  const std::string table = exp::render_table4(rows);
  EXPECT_NE(table.find("No Attacks"), std::string::npos);
  EXPECT_NE(table.find("Context-Aware"), std::string::npos);
  EXPECT_NE(table.find("83.4%"), std::string::npos);
}

TEST(Tables, PairDriverOutcomes) {
  auto grid = exp::make_grid(attack::StrategyKind::kContextAware, true, true,
                             grid_config(1, 7));
  grid.resize(6);
  auto off_grid = grid;
  for (auto& item : off_grid) item.driver_enabled = false;
  exp::CampaignConfig cc;
  cc.threads = 4;
  const auto on = exp::run_campaign(grid, cc);
  const auto off = exp::run_campaign(off_grid, cc);
  const auto outcomes = exp::pair_driver_outcomes(on, off);
  std::size_t total = 0;
  for (const auto& [type, outcome] : outcomes) total += outcome.agg.simulations;
  EXPECT_EQ(total, 6u);
}

TEST(Tables, PairRejectsMismatchedGrids) {
  std::vector<exp::CampaignResult> a(2), b(3);
  EXPECT_THROW(exp::pair_driver_outcomes(a, b), std::invalid_argument);
  b.resize(2);
  a[0].item.seed = 1;
  b[0].item.seed = 2;
  EXPECT_THROW(exp::pair_driver_outcomes(a, b), std::invalid_argument);
}

TEST(ParamSpace, SmallSweepShapes) {
  exp::ParamSpaceConfig cfg;
  cfg.grid_starts = 4;
  cfg.grid_durations = 3;
  cfg.overlay_runs = 2;
  cfg.threads = 8;
  const auto points = exp::run_param_space(cfg);
  EXPECT_GE(points.size(), 12u);  // the full grid always plots
  for (const auto& p : points) {
    EXPECT_GE(p.start_time, 0.0);
    EXPECT_GE(p.duration, 0.0);
  }
  std::ostringstream out;
  exp::write_param_space_csv(points, out);
  EXPECT_NE(out.str().find("strategy,start_time,duration,hazardous"),
            std::string::npos);
}

/// The per-point runner the sweep used before it ran on the campaign
/// engine, kept as the reference: one freshly constructed World per point,
/// seeds drawn in the sweep's order.
std::vector<exp::ParamSpacePoint> fresh_world_points(
    const exp::ParamSpaceConfig& cfg) {
  std::vector<exp::ParamSpacePoint> points;
  std::uint64_t sm = cfg.base_seed;
  const auto run_point = [&](attack::StrategyKind strategy, double start,
                             double duration) {
    exp::CampaignItem item;
    item.strategy = strategy;
    item.type = cfg.type;
    item.strategic_values = strategy == attack::StrategyKind::kContextAware;
    item.scenario_id = cfg.scenario_id;
    item.initial_gap = cfg.initial_gap;
    item.seed = util::splitmix64(sm);
    sim::WorldConfig wc = exp::world_config_for(item);
    wc.attack.strategy_params.forced_start = start;
    wc.attack.strategy_params.forced_duration = duration;
    sim::World world(std::move(wc));
    const sim::SimulationSummary s = world.run();
    exp::ParamSpacePoint point;
    point.strategy = strategy;
    point.start_time =
        s.attack_start >= 0.0 ? s.attack_start : (start >= 0.0 ? start : -1.0);
    point.duration = s.attack_duration > 0.0 ? s.attack_duration : duration;
    point.hazardous = s.any_hazard;
    if (point.start_time >= 0.0) points.push_back(point);
  };
  for (int i = 0; i < cfg.grid_starts; ++i) {
    const double t = cfg.grid_starts > 1
                         ? static_cast<double>(i) / (cfg.grid_starts - 1)
                         : 0.0;
    for (int j = 0; j < cfg.grid_durations; ++j) {
      const double u = cfg.grid_durations > 1
                           ? static_cast<double>(j) / (cfg.grid_durations - 1)
                           : 0.0;
      run_point(attack::StrategyKind::kRandomStDur,
                cfg.min_start + t * (cfg.max_start - cfg.min_start),
                cfg.min_duration + u * (cfg.max_duration - cfg.min_duration));
    }
  }
  for (int r = 0; r < cfg.overlay_runs; ++r) {
    run_point(attack::StrategyKind::kRandomSt, -1.0, -1.0);
    run_point(attack::StrategyKind::kRandomDur, -1.0, -1.0);
    run_point(attack::StrategyKind::kContextAware, -1.0, -1.0);
  }
  return points;
}

TEST(ParamSpace, EngineMatchesFreshWorldPerPoint) {
  // The sweep runs on resident arena Worlds, reset per point with the
  // point's forced window: every point must match a fresh World's.
  exp::ParamSpaceConfig cfg;
  cfg.grid_starts = 4;
  cfg.grid_durations = 3;
  cfg.overlay_runs = 4;
  const auto reference = fresh_world_points(cfg);
  ASSERT_GE(reference.size(), 12u);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    cfg.threads = threads;
    const auto points = exp::run_param_space(cfg);
    ASSERT_EQ(points.size(), reference.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      EXPECT_EQ(points[i].strategy, reference[i].strategy) << i;
      EXPECT_EQ(util::double_bits(points[i].start_time),
                util::double_bits(reference[i].start_time))
          << i;
      EXPECT_EQ(util::double_bits(points[i].duration),
                util::double_bits(reference[i].duration))
          << i;
      EXPECT_EQ(points[i].hazardous, reference[i].hazardous) << i;
    }
  }
}

TEST(ParamSpace, CriticalTimeEstimate) {
  std::vector<exp::ParamSpacePoint> points;
  points.push_back({attack::StrategyKind::kRandomStDur, 10.0, 1.0, false});
  points.push_back({attack::StrategyKind::kRandomStDur, 20.0, 1.0, true});
  points.push_back({attack::StrategyKind::kRandomStDur, 30.0, 1.0, true});
  EXPECT_DOUBLE_EQ(exp::estimate_critical_time(points), 20.0);
  points.clear();
  points.push_back({attack::StrategyKind::kRandomStDur, 10.0, 1.0, false});
  EXPECT_LT(exp::estimate_critical_time(points), 0.0);
}

}  // namespace
