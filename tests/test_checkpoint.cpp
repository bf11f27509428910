// Tests for the crash-safe campaign checkpoint/resume subsystem: exact
// serialization round trips, fingerprint and corruption rejection, torn-tail
// tolerance, and the headline guarantee — a campaign interrupted mid-run and
// resumed produces results bit-identical to an uninterrupted run at any
// thread count.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "exp/campaign.hpp"
#include "exp/checkpoint.hpp"
#include "exp/tables.hpp"
#include "util/serial.hpp"
#include "util/stats.hpp"

namespace {

using namespace scaa;

exp::CampaignConfig grid_config(int reps, std::uint64_t seed) {
  exp::CampaignConfig config;
  config.repetitions = reps;
  config.base_seed = seed;
  return config;
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "scaa_ckpt_" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
}

std::vector<std::string> file_lines(const std::string& path) {
  std::vector<std::string> lines;
  std::istringstream in(read_file(path));
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// Simulate a crash: keep the header plus the first @p chunks chunk records
/// of @p from, writing the truncated file to @p to.
void truncate_to_chunks(const std::string& from, const std::string& to,
                        std::size_t chunks) {
  const auto lines = file_lines(from);
  ASSERT_GT(lines.size(), chunks);  // header + at least `chunks` records
  std::string out;
  for (std::size_t i = 0; i < chunks + 1; ++i) out += lines[i] + "\n";
  write_file(to, out);
}

void expect_bit_identical(const exp::Aggregate& a, const exp::Aggregate& b) {
  EXPECT_EQ(a.simulations, b.simulations);
  EXPECT_EQ(a.sims_with_alerts, b.sims_with_alerts);
  EXPECT_EQ(a.sims_with_hazards, b.sims_with_hazards);
  EXPECT_EQ(a.sims_with_accidents, b.sims_with_accidents);
  EXPECT_EQ(a.hazards_without_alerts, b.hazards_without_alerts);
  EXPECT_EQ(a.fcw_activations, b.fcw_activations);
  // Bit patterns, not EXPECT_DOUBLE_EQ: the guarantee is exactness.
  EXPECT_EQ(util::double_bits(a.lane_invasion_rate_mean),
            util::double_bits(b.lane_invasion_rate_mean));
  EXPECT_EQ(util::double_bits(a.tth_mean), util::double_bits(b.tth_mean));
  EXPECT_EQ(util::double_bits(a.tth_std), util::double_bits(b.tth_std));
}

// --- serialization primitives ---------------------------------------------

TEST(Serial, HexU64RoundTrip) {
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{0xDEADBEEF},
        ~std::uint64_t{0}}) {
    const std::string hex = util::hex_u64(v);
    EXPECT_EQ(hex.size(), 16u);
    std::uint64_t parsed = 0;
    ASSERT_TRUE(util::parse_hex_u64(hex, parsed));
    EXPECT_EQ(parsed, v);
  }
}

TEST(Serial, ParseHexRejectsMalformed) {
  std::uint64_t out = 0;
  EXPECT_FALSE(util::parse_hex_u64("", out));
  EXPECT_FALSE(util::parse_hex_u64("12g4", out));
  EXPECT_FALSE(util::parse_hex_u64("11112222333344445", out));  // 17 digits
  EXPECT_FALSE(util::parse_hex_u64("0x12", out));
}

TEST(Serial, DoubleBitsExactForAwkwardValues) {
  for (const double v : {0.0, -0.0, 1.0 / 3.0, 1e300, 5e-324 /* denormal */,
                         -2.2250738585072014e-308}) {
    EXPECT_EQ(util::double_from_bits(util::double_bits(v)), v);
  }
  // -0.0 and 0.0 compare equal but must serialize distinctly.
  EXPECT_NE(util::double_bits(0.0), util::double_bits(-0.0));
}

TEST(Serial, RunningStatsRecordRoundTripIsExact) {
  util::RunningStats stats;
  // Samples chosen so mean/m2 are non-terminating binary fractions.
  for (int i = 0; i < 1000; ++i) stats.add(0.1 * static_cast<double>(i) / 7.0);
  const util::RunningStats restored =
      util::RunningStats::from_record(stats.to_record());
  EXPECT_EQ(restored.count(), stats.count());
  EXPECT_EQ(util::double_bits(restored.mean()), util::double_bits(stats.mean()));
  EXPECT_EQ(util::double_bits(restored.variance()),
            util::double_bits(stats.variance()));
  EXPECT_EQ(util::double_bits(restored.min()), util::double_bits(stats.min()));
  EXPECT_EQ(util::double_bits(restored.max()), util::double_bits(stats.max()));

  // Merging a restored accumulator must behave exactly like the original.
  util::RunningStats tail;
  for (int i = 0; i < 17; ++i) tail.add(3.3 / (i + 1.0));
  util::RunningStats merged_orig = stats;
  merged_orig.merge(tail);
  util::RunningStats merged_restored =
      util::RunningStats::from_record(stats.to_record());
  merged_restored.merge(tail);
  EXPECT_EQ(util::double_bits(merged_orig.mean()),
            util::double_bits(merged_restored.mean()));
  EXPECT_EQ(util::double_bits(merged_orig.variance()),
            util::double_bits(merged_restored.variance()));
}

TEST(Serial, AggregateAccumulatorRecordRoundTrip) {
  exp::AggregateAccumulator acc;
  sim::SimulationSummary s;
  s.any_hazard = true;
  s.alert_events = 2;
  s.lane_invasion_rate = 0.123456789;
  s.tth = 3.25;
  acc.add(s);
  s.any_hazard = false;
  s.alert_events = 0;
  s.tth = -1.0;  // not folded into tth stats
  acc.add(s);
  const exp::AggregateAccumulator restored =
      exp::AggregateAccumulator::from_record(acc.to_record());
  expect_bit_identical(restored.finish(), acc.finish());
}

// --- fingerprints ----------------------------------------------------------

TEST(Fingerprint, SensitiveToEveryGridParameter) {
  const auto base = exp::make_grid(attack::StrategyKind::kRandomSt, false,
                                   true, grid_config(1, 1));
  const std::uint64_t fp = exp::grid_fingerprint(base);
  EXPECT_EQ(fp, exp::grid_fingerprint(base));  // deterministic

  EXPECT_NE(fp, exp::grid_fingerprint(exp::make_grid(
                    attack::StrategyKind::kRandomDur, false, true,
                    grid_config(1, 1))));
  EXPECT_NE(fp, exp::grid_fingerprint(exp::make_grid(
                    attack::StrategyKind::kRandomSt, true, true,
                    grid_config(1, 1))));
  EXPECT_NE(fp, exp::grid_fingerprint(exp::make_grid(
                    attack::StrategyKind::kRandomSt, false, false,
                    grid_config(1, 1))));
  EXPECT_NE(fp, exp::grid_fingerprint(exp::make_grid(
                    attack::StrategyKind::kRandomSt, false, true,
                    grid_config(2, 1))));
  EXPECT_NE(fp, exp::grid_fingerprint(exp::make_grid(
                    attack::StrategyKind::kRandomSt, false, true,
                    grid_config(1, 2))));

  auto shorter = base;
  shorter.pop_back();
  EXPECT_NE(fp, exp::grid_fingerprint(shorter));

  auto forced = base;
  forced.front().forced_start = 12.0;
  EXPECT_NE(fp, exp::grid_fingerprint(forced));
  auto forced_duration = base;
  forced_duration.front().forced_duration = 1.5;
  EXPECT_NE(exp::grid_fingerprint(forced),
            exp::grid_fingerprint(forced_duration));
}

TEST(Fingerprint, StableForExistingGrids) {
  // Pinned values: a fingerprint names a grid's slice files and validates
  // every checkpoint and shard slice written for it, so a new CampaignItem
  // field must leave grids that do not use it where they were. Update these
  // only together with kCheckpointFormatVersion.
  const auto table5 = exp::make_grid(attack::StrategyKind::kContextAware, true,
                                     false, grid_config(2, 2022));
  ASSERT_EQ(table5.size(), 144u);
  EXPECT_EQ(exp::grid_fingerprint(table5), 0x6d3aca367b026718ull);
  const auto small = exp::make_grid(attack::StrategyKind::kRandomSt, false,
                                    true, grid_config(1, 1));
  EXPECT_EQ(exp::grid_fingerprint(small), 0xf25cfa0f0fef414aull);
}

// --- checkpoint file lifecycle ---------------------------------------------

TEST(CampaignCheckpoint, FreshRefusesExistingFile) {
  const std::string path = temp_path("fresh_refuses");
  const auto grid = exp::make_grid(attack::StrategyKind::kNone, false, true,
                                   grid_config(1, 1));
  write_file(path, "stale contents\n");
  EXPECT_THROW(exp::CampaignCheckpoint(path, grid, /*resume=*/false),
               exp::CheckpointError);
  std::remove(path.c_str());
  // Absent file: fresh construction creates it with just the header.
  exp::CampaignCheckpoint fresh(path, grid, /*resume=*/false);
  EXPECT_EQ(fresh.completed_chunks(), 0u);
  EXPECT_EQ(file_lines(path).size(), 1u);
  std::remove(path.c_str());
}

TEST(CampaignCheckpoint, ResumeOnAbsentFileStartsFresh) {
  const std::string path = temp_path("resume_absent");
  std::remove(path.c_str());
  const auto grid = exp::make_grid(attack::StrategyKind::kNone, false, true,
                                   grid_config(1, 1));
  exp::CampaignCheckpoint ckpt(path, grid, /*resume=*/true);
  EXPECT_EQ(ckpt.completed_chunks(), 0u);
  EXPECT_EQ(ckpt.chunk_count(), (grid.size() + exp::kCampaignChunk - 1) /
                                    exp::kCampaignChunk);
  std::remove(path.c_str());
}

TEST(CampaignCheckpoint, CommitReloadRestoresBitExactState) {
  const std::string path = temp_path("commit_reload");
  std::remove(path.c_str());
  const auto grid = exp::make_grid(attack::StrategyKind::kNone, false, true,
                                   grid_config(1, 9));

  exp::AggregateAccumulator acc;
  sim::SimulationSummary s;
  s.lane_invasion_rate = 1.0 / 3.0;
  s.tth = 2.0 / 7.0;
  s.any_hazard = true;
  for (std::size_t i = 0; i < exp::kCampaignChunk; ++i) acc.add(s);

  {
    exp::CampaignCheckpoint ckpt(path, grid, /*resume=*/false);
    ckpt.commit(0, acc);
    EXPECT_THROW(ckpt.commit(0, acc), exp::CheckpointError);  // duplicate
  }
  exp::CampaignCheckpoint reloaded(path, grid, /*resume=*/true);
  EXPECT_TRUE(reloaded.chunk_complete(0));
  EXPECT_FALSE(reloaded.chunk_complete(1));
  EXPECT_EQ(reloaded.completed_items(), exp::kCampaignChunk);
  expect_bit_identical(reloaded.restored(0).finish(), acc.finish());
  std::remove(path.c_str());
}

TEST(CampaignCheckpoint, SecondOpenerIsLockedOut) {
  // flock is per open-file-description, so a second open inside this
  // process models a concurrent second process (e.g. a watchdog restarting
  // the campaign while the old run is still alive).
  const std::string path = temp_path("locked_out");
  std::remove(path.c_str());
  const auto grid = exp::make_grid(attack::StrategyKind::kNone, false, true,
                                   grid_config(1, 1));
  {
    exp::CampaignCheckpoint holder(path, grid, /*resume=*/false);
    EXPECT_THROW(exp::CampaignCheckpoint(path, grid, /*resume=*/true),
                 exp::CheckpointError);
  }
  // Lock released with the holder: the retry can now proceed.
  exp::CampaignCheckpoint retry(path, grid, /*resume=*/true);
  EXPECT_EQ(retry.completed_chunks(), 0u);
  std::remove(path.c_str());
}

TEST(CampaignCheckpoint, RejectsMismatchedFingerprint) {
  const std::string path = temp_path("fingerprint_mismatch");
  std::remove(path.c_str());
  const auto grid = exp::make_grid(attack::StrategyKind::kNone, false, true,
                                   grid_config(1, 1));
  { exp::CampaignCheckpoint ckpt(path, grid, /*resume=*/false); }
  // Same shape, different base seed -> different fingerprint -> rejected.
  const auto other = exp::make_grid(attack::StrategyKind::kNone, false, true,
                                    grid_config(1, 2));
  EXPECT_THROW(exp::CampaignCheckpoint(path, other, /*resume=*/true),
               exp::CheckpointError);
  std::remove(path.c_str());
}

TEST(CampaignCheckpoint, RejectsOtherRecordMode) {
  // The header names the record mode: a summaries job must not restore
  // aggregate records (it could not rebuild its outcomes), and an
  // aggregate job must not read summary records as aggregates.
  const auto grid = exp::make_grid(attack::StrategyKind::kNone, false, true,
                                   grid_config(1, 1));
  const std::string agg_path = temp_path("mode_agg");
  const std::string results_path = temp_path("mode_results");
  std::remove(agg_path.c_str());
  std::remove(results_path.c_str());
  { exp::CampaignCheckpoint agg(agg_path, grid, /*resume=*/false); }
  {
    exp::CampaignCheckpoint results(results_path, grid, /*resume=*/false,
                                    exp::CheckpointMode::kSummaries);
    EXPECT_TRUE(results.keeps_summaries());
  }
  EXPECT_THROW(exp::CampaignCheckpoint(agg_path, grid, /*resume=*/true,
                                       exp::CheckpointMode::kSummaries),
               exp::CheckpointError);
  EXPECT_THROW(exp::CampaignCheckpoint(results_path, grid, /*resume=*/true),
               exp::CheckpointError);
  // Each mode still resumes its own file.
  EXPECT_NO_THROW(exp::CampaignCheckpoint(agg_path, grid, /*resume=*/true));
  EXPECT_NO_THROW(exp::CampaignCheckpoint(results_path, grid, /*resume=*/true,
                                          exp::CheckpointMode::kSummaries));
  std::remove(agg_path.c_str());
  std::remove(results_path.c_str());
}

/// Two-full-chunk grid (128 items) so every committed chunk holds exactly
/// kCampaignChunk simulations.
std::vector<exp::CampaignItem> two_chunk_grid(std::uint64_t seed) {
  auto grid = exp::make_grid(attack::StrategyKind::kNone, false, true,
                             grid_config(2, seed));
  grid.resize(2 * exp::kCampaignChunk);
  return grid;
}

TEST(CampaignCheckpoint, RejectsCorruptedMiddleRecord) {
  const std::string path = temp_path("corrupt_middle");
  std::remove(path.c_str());
  const auto grid = two_chunk_grid(4);
  {
    exp::CampaignCheckpoint ckpt(path, grid, /*resume=*/false);
    exp::AggregateAccumulator acc;
    sim::SimulationSummary s;
    for (std::size_t i = 0; i < exp::kCampaignChunk; ++i) acc.add(s);
    ckpt.commit(0, acc);
    ckpt.commit(1, acc);
  }
  // Flip one payload byte of the first chunk record (line 2 of 3): its crc
  // no longer matches and there are records after it, so this is
  // corruption, not a torn tail.
  std::string contents = read_file(path);
  const std::size_t first_eol = contents.find('\n');
  ASSERT_NE(first_eol, std::string::npos);
  const std::size_t target = contents.find("sims=64", first_eol);
  ASSERT_NE(target, std::string::npos);
  contents[target + 5] = '9';
  write_file(path, contents);
  EXPECT_THROW(exp::CampaignCheckpoint(path, grid, /*resume=*/true),
               exp::CheckpointError);
  std::remove(path.c_str());
}

TEST(CampaignCheckpoint, ToleratesAndRepairsTornTail) {
  const std::string path = temp_path("torn_tail");
  std::remove(path.c_str());
  const auto grid = two_chunk_grid(4);
  exp::AggregateAccumulator acc;
  sim::SimulationSummary s;
  for (std::size_t i = 0; i < exp::kCampaignChunk; ++i) acc.add(s);
  {
    exp::CampaignCheckpoint ckpt(path, grid, /*resume=*/false);
    ckpt.commit(0, acc);
    ckpt.commit(1, acc);
  }
  // A crash tears the final append mid-line: chunk 1's record loses its
  // tail (including the newline).
  std::string contents = read_file(path);
  contents.resize(contents.size() - 27);
  write_file(path, contents);

  {
    exp::CampaignCheckpoint reloaded(path, grid, /*resume=*/true);
    EXPECT_TRUE(reloaded.chunk_complete(0));
    EXPECT_FALSE(reloaded.chunk_complete(1));  // torn -> recompute
    // The torn bytes were truncated away, so a fresh commit of chunk 1
    // must land on its own line and survive another reload.
    reloaded.commit(1, acc);
  }
  exp::CampaignCheckpoint again(path, grid, /*resume=*/true);
  EXPECT_TRUE(again.chunk_complete(1));
  expect_bit_identical(again.restored(1).finish(), acc.finish());
  std::remove(path.c_str());
}

// --- kill-and-resume equivalence -------------------------------------------

TEST(CheckpointResume, StreamingKillAndResumeIsBitIdentical) {
  const std::string full_path = temp_path("stream_small_full");
  std::remove(full_path.c_str());
  auto cc = grid_config(2, 11);
  const auto grid = exp::make_grid(attack::StrategyKind::kContextAware, true,
                                   true, cc);  // 144 items, 3 chunks
  cc.threads = 4;
  exp::Aggregate full;
  {
    exp::CampaignCheckpoint ckpt(full_path, grid, /*resume=*/false);
    full = exp::run_campaign_streaming(grid, cc, {}, &ckpt);
  }
  // The checkpoint of a completed run holds every chunk.
  {
    exp::CampaignCheckpoint done(full_path, grid, /*resume=*/true);
    EXPECT_EQ(done.completed_items(), grid.size());
    // Resuming a fully-checkpointed campaign recomputes nothing and still
    // returns the exact aggregate.
    const auto replayed = exp::run_campaign_streaming(grid, cc, {}, &done);
    expect_bit_identical(replayed, full);
  }

  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    const std::string partial_path =
        temp_path("stream_small_partial_" + std::to_string(threads));
    truncate_to_chunks(full_path, partial_path, 2);  // "crash" after 2 chunks
    exp::CampaignCheckpoint resumed(partial_path, grid, /*resume=*/true);
    EXPECT_EQ(resumed.completed_chunks(), 2u);
    exp::CampaignConfig rcc = cc;
    rcc.threads = threads;
    const auto agg = exp::run_campaign_streaming(grid, rcc, {}, &resumed);
    expect_bit_identical(agg, full);
    std::remove(partial_path.c_str());
  }
  std::remove(full_path.c_str());
}

TEST(CheckpointResume, ResumedProgressStartsFromRestoredCount) {
  const std::string full_path = temp_path("progress_full");
  const std::string partial_path = temp_path("progress_partial");
  std::remove(full_path.c_str());
  auto cc = grid_config(2, 3);
  auto grid = exp::make_grid(attack::StrategyKind::kNone, false, true, cc);
  grid.resize(3 * exp::kCampaignChunk);
  cc.threads = 2;
  {
    exp::CampaignCheckpoint ckpt(full_path, grid, /*resume=*/false);
    exp::run_campaign_streaming(grid, cc, {}, &ckpt);
  }
  truncate_to_chunks(full_path, partial_path, 1);
  exp::CampaignCheckpoint resumed(partial_path, grid, /*resume=*/true);
  std::vector<exp::CampaignProgress> seen;
  exp::run_campaign_streaming(
      grid, cc,
      [&seen](const exp::CampaignProgress& p) { seen.push_back(p); },
      &resumed);
  ASSERT_FALSE(seen.empty());
  EXPECT_EQ(seen.front().completed, exp::kCampaignChunk);  // restored chunk
  EXPECT_EQ(seen.back().completed, grid.size());
  for (std::size_t i = 1; i < seen.size(); ++i)
    EXPECT_GT(seen[i].completed, seen[i - 1].completed);
  std::remove(full_path.c_str());
  std::remove(partial_path.c_str());
}

TEST(CheckpointResume, MaterializingKillAndResumeIsBitIdentical) {
  // Table V's path: per-item results, paired downstream. The resumed result
  // vector must match the uninterrupted one summary-for-summary.
  const std::string full_path = temp_path("results_full");
  std::remove(full_path.c_str());
  auto cc = grid_config(2, 21);
  const auto grid = exp::make_grid(attack::StrategyKind::kContextAware, true,
                                   true, cc);  // 144 items, 3 chunks
  cc.threads = 4;
  const auto reference = exp::run_campaign(grid, cc);
  {
    exp::CampaignCheckpoint ckpt(full_path, grid, /*resume=*/false,
                                 exp::CheckpointMode::kSummaries);
    exp::run_campaign(grid, cc, &ckpt);
  }
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    const std::string partial_path =
        temp_path("results_partial_" + std::to_string(threads));
    // Records land in completion order, so the surviving chunk can be any
    // of the three — what matters is that exactly one chunk is restored.
    truncate_to_chunks(full_path, partial_path, 1);
    exp::CampaignCheckpoint resumed(partial_path, grid, /*resume=*/true,
                                    exp::CheckpointMode::kSummaries);
    EXPECT_EQ(resumed.completed_chunks(), 1u);
    EXPECT_GT(resumed.completed_items(), 0u);
    exp::CampaignConfig rcc = cc;
    rcc.threads = threads;
    const auto results = exp::run_campaign(grid, rcc, &resumed);
    ASSERT_EQ(results.size(), reference.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i].item.seed, reference[i].item.seed);
      EXPECT_EQ(results[i].summary.any_hazard, reference[i].summary.any_hazard);
      EXPECT_EQ(results[i].summary.alert_events,
                reference[i].summary.alert_events);
      EXPECT_EQ(util::double_bits(results[i].summary.tth),
                util::double_bits(reference[i].summary.tth));
      EXPECT_EQ(util::double_bits(results[i].summary.lane_invasion_rate),
                util::double_bits(reference[i].summary.lane_invasion_rate));
      EXPECT_EQ(util::double_bits(results[i].summary.first_hazard_time),
                util::double_bits(reference[i].summary.first_hazard_time));
    }
    // The pairing downstream of Table V must agree too.
    expect_bit_identical(exp::aggregate(results), exp::aggregate(reference));
    std::remove(partial_path.c_str());
  }
  std::remove(full_path.c_str());
}

/// Every field of a summary, doubles as bit patterns: equal vectors mean
/// bit-identical summaries.
std::vector<std::uint64_t> summary_bits(const sim::SimulationSummary& s) {
  const auto d = [](double v) { return util::double_bits(v); };
  std::vector<std::uint64_t> out = {
      s.any_hazard, static_cast<std::uint64_t>(s.first_hazard),
      d(s.first_hazard_time), s.hazard_h1, s.hazard_h2, s.hazard_h3,
      d(s.hazard_h1_time), d(s.hazard_h2_time), d(s.hazard_h3_time),
      s.any_accident, static_cast<std::uint64_t>(s.first_accident),
      d(s.first_accident_time), s.accident_a1, s.accident_a2, s.accident_a3,
      s.alert_events, s.steer_saturated_events, s.fcw_events,
      s.alert_before_hazard, s.lane_invasions, d(s.lane_invasion_rate),
      s.attack_activated, d(s.attack_start), d(s.attack_duration), d(s.tth),
      s.frames_corrupted, s.driver_engaged, d(s.driver_engage_time),
      d(s.driver_perception_time), d(s.sim_end_time), s.can_checksum_rejects,
      s.panda_frames_blocked};
  out.insert(out.end(), s.faults_fired.begin(), s.faults_fired.end());
  out.insert(out.end(), s.faults_suppressed.begin(), s.faults_suppressed.end());
  return out;
}

void expect_same_outcomes(const exp::TypeOutcome& a,
                          const exp::TypeOutcome& b) {
  expect_bit_identical(a.agg, b.agg);
  EXPECT_EQ(a.prevented_hazards, b.prevented_hazards);
  EXPECT_EQ(a.new_hazards, b.new_hazards);
  EXPECT_EQ(a.prevented_accidents, b.prevented_accidents);
  EXPECT_EQ(a.driver_preventions, b.driver_preventions);
  EXPECT_EQ(a.nodriver_hazards, b.nodriver_hazards);
  EXPECT_EQ(a.nodriver_accidents, b.nodriver_accidents);
}

/// Table V's four slices (fixed on/off, strategic on/off) run as one engine
/// call, each keeping outcomes, with checkpoints[g] on job g (null = none).
/// Returns the grids' outcomes; throws what the engine throws.
std::vector<std::vector<sim::SimulationSummary>> run_table5_jobs(
    const std::vector<std::vector<exp::CampaignItem>>& grids,
    const std::vector<exp::CampaignCheckpoint*>& checkpoints,
    std::size_t threads) {
  std::vector<std::vector<sim::SimulationSummary>> outcomes;
  std::vector<exp::CampaignJob> jobs;
  for (const auto& grid : grids)
    outcomes.emplace_back(grid.size());
  for (std::size_t g = 0; g < grids.size(); ++g) {
    exp::CampaignJob job;
    job.items = grids[g];
    job.checkpoint = checkpoints[g];
    job.outcomes = outcomes[g];
    jobs.push_back(std::move(job));
  }
  exp::CampaignConfig cc;
  cc.threads = threads;
  exp::run_campaigns_streaming(jobs, cc);
  return outcomes;
}

std::vector<exp::CampaignResult> zip(const std::vector<exp::CampaignItem>& grid,
                                     const std::vector<sim::SimulationSummary>&
                                         outcomes) {
  std::vector<exp::CampaignResult> results;
  for (std::size_t i = 0; i < grid.size(); ++i)
    results.push_back({grid[i], outcomes[i]});
  return results;
}

// Table V's path: four summaries-mode jobs in one engine call. A commit
// failure in one job aborts the whole call mid-run, leaving the other jobs'
// checkpoints with whatever chunks were durable; the resumed call must pair
// driver-on/off outcomes bit-identically to an uninterrupted one.
TEST(CheckpointResume, Table5MultiGridResumeMatchesUninterrupted) {
  const auto cc = grid_config(2, 2022);
  std::vector<std::vector<exp::CampaignItem>> grids;
  for (const bool strategic : {false, true})
    for (const bool driver : {true, false})
      grids.push_back(exp::make_grid(attack::StrategyKind::kContextAware,
                                     strategic, driver, cc));
  const auto reference =
      run_table5_jobs(grids, {nullptr, nullptr, nullptr, nullptr}, 4);

  std::vector<std::string> paths;
  for (std::size_t g = 0; g < grids.size(); ++g) {
    paths.push_back(temp_path("table5_multi_" + std::to_string(g)));
    std::remove(paths.back().c_str());
  }
  const std::string short_path = temp_path("table5_multi_short");
  std::remove(short_path.c_str());
  {
    std::vector<std::unique_ptr<exp::CampaignCheckpoint>> owned;
    std::vector<exp::CampaignCheckpoint*> checkpoints;
    for (std::size_t g = 0; g < grids.size(); ++g) {
      owned.push_back(std::make_unique<exp::CampaignCheckpoint>(
          paths[g], grids[g], /*resume=*/false,
          exp::CheckpointMode::kSummaries));
      checkpoints.push_back(owned.back().get());
    }
    // Job 1 commits into a checkpoint sized for its first chunk only, so
    // its second commit fails the way a full disk would.
    const std::vector<exp::CampaignItem> first_chunk(
        grids[1].begin(), grids[1].begin() + exp::kCampaignChunk);
    exp::CampaignCheckpoint short_ckpt(short_path, first_chunk,
                                       /*resume=*/false,
                                       exp::CheckpointMode::kSummaries);
    checkpoints[1] = &short_ckpt;
    EXPECT_THROW(run_table5_jobs(grids, checkpoints, 4), exp::CheckpointError);
  }

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    // Resume from copies, so both thread counts start from the same state.
    std::vector<std::unique_ptr<exp::CampaignCheckpoint>> owned;
    std::vector<exp::CampaignCheckpoint*> checkpoints;
    for (std::size_t g = 0; g < grids.size(); ++g) {
      const std::string copy = paths[g] + "_resume" + std::to_string(threads);
      std::remove(copy.c_str());
      if (g != 1) write_file(copy, read_file(paths[g]));
      owned.push_back(std::make_unique<exp::CampaignCheckpoint>(
          copy, grids[g], /*resume=*/true, exp::CheckpointMode::kSummaries));
      checkpoints.push_back(owned.back().get());
    }
    EXPECT_EQ(owned[1]->completed_chunks(), 0u);
    const auto resumed = run_table5_jobs(grids, checkpoints, threads);
    for (std::size_t g = 0; g < grids.size(); ++g) {
      ASSERT_EQ(resumed[g].size(), reference[g].size());
      for (std::size_t i = 0; i < resumed[g].size(); ++i)
        ASSERT_EQ(summary_bits(resumed[g][i]), summary_bits(reference[g][i]))
            << "grid " << g << " item " << i;
    }
    for (std::size_t half = 0; half < 2; ++half) {
      const auto want = exp::pair_driver_outcomes(
          zip(grids[2 * half], reference[2 * half]),
          zip(grids[2 * half + 1], reference[2 * half + 1]));
      const auto got = exp::pair_driver_outcomes(
          zip(grids[2 * half], resumed[2 * half]),
          zip(grids[2 * half + 1], resumed[2 * half + 1]));
      ASSERT_EQ(got.size(), want.size());
      for (const auto& [type, outcome] : want) {
        SCOPED_TRACE(attack::to_string(type));
        expect_same_outcomes(got.at(type), outcome);
      }
    }
    for (std::size_t g = 0; g < grids.size(); ++g) {
      owned[g].reset();
      std::remove((paths[g] + "_resume" + std::to_string(threads)).c_str());
    }
  }
  for (const std::string& path : paths) std::remove(path.c_str());
  std::remove(short_path.c_str());
}

// Acceptance: a table4-scale streaming campaign (the paper's full 1,440-sim
// Context-Aware grid) interrupted mid-run and resumed from its checkpoint
// produces an Aggregate bit-identical to the uninterrupted run — integer
// counters AND floating-point moments — at two different thread counts.
TEST(CheckpointResume, Table4ScaleInterruptedResumeMatchesUninterrupted) {
  const std::string full_path = temp_path("table4_scale_full");
  std::remove(full_path.c_str());
  auto cc = grid_config(20, 2022);  // the paper's Table IV repetition count
  const auto grid = exp::make_grid(attack::StrategyKind::kContextAware, true,
                                   true, cc);
  ASSERT_EQ(grid.size(), 1440u);
  cc.threads = 4;
  exp::Aggregate full;
  {
    exp::CampaignCheckpoint ckpt(full_path, grid, /*resume=*/false);
    full = exp::run_campaign_streaming(grid, cc, {}, &ckpt);
  }
  EXPECT_EQ(full.simulations, 1440u);

  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    const std::string partial_path =
        temp_path("table4_scale_partial_" + std::to_string(threads));
    // "Kill" the campaign two thirds of the way through: keep 15 of the 23
    // chunk records, exactly what a crash after 15 durable commits leaves.
    truncate_to_chunks(full_path, partial_path, 15);
    exp::CampaignCheckpoint resumed(partial_path, grid, /*resume=*/true);
    EXPECT_EQ(resumed.completed_chunks(), 15u);
    exp::CampaignConfig rcc = cc;
    rcc.threads = threads;
    const auto agg = exp::run_campaign_streaming(grid, rcc, {}, &resumed);
    expect_bit_identical(agg, full);
    std::remove(partial_path.c_str());
  }
  std::remove(full_path.c_str());
}

}  // namespace
