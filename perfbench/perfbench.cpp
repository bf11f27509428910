/// @file perfbench.cpp
/// Measurement binary of the campaign benchmark (see README.md here).
///
/// It runs one workload and prints one JSON document of raw measurements:
/// per-pass wall times, set-up samples, tick-latency percentiles, the
/// canonical text of every result slice it computed (for run.py's
/// correctness check) and, with --trace 1, the per-layer metrics. run.py
/// turns that into the benchmark's result line; this binary decides
/// nothing about correctness except the traced-vs-untraced identity, which
/// only it can see.
///
/// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "attack/strategies.hpp"
#include "can/packer.hpp"
#include "cli/campaigns.hpp"
#include "cli/report.hpp"
#include "exp/campaign.hpp"
#include "exp/param_space.hpp"
#include "exp/realtime.hpp"
#include "msg/bus.hpp"
#include "road/builder.hpp"
#include "sim/world.hpp"

namespace {

using namespace scaa;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Exact text of one report cell: doubles keep all 17 significant digits,
/// so equal text means bit-equal values.
std::string canon_cell(const cli::Cell& cell) {
  if (const auto* s = std::get_if<std::string>(&cell)) return *s;
  if (const auto* d = std::get_if<double>(&cell)) return fmt_double(*d);
  if (const auto* i = std::get_if<long long>(&cell)) return std::to_string(*i);
  return std::get<bool>(cell) ? "1" : "0";
}

std::string canon_row(const std::vector<cli::Cell>& row) {
  std::string out;
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ',';
    out += canon_cell(row[i]);
  }
  return out;
}

/// One independently checkable part of a workload's output: a Table IV
/// row, a Table V row, or the Fig. 8 points of one strategy. A mismatch
/// fails all `sims` simulations that produced it.
struct Slice {
  std::string name;
  std::size_t sims = 0;
  std::string canon;
};

/// The slices one execution of the workload produced, labelled by pass.
struct CheckSet {
  std::string label;
  std::vector<Slice> slices;
};

long long ll(std::size_t v) { return static_cast<long long>(v); }

/// The Table IV row exactly as cli::table4_report renders it.
std::vector<cli::Cell> table4_row(attack::StrategyKind kind,
                                  const exp::Aggregate& agg) {
  return {attack::to_string(kind), ll(agg.simulations),
          ll(agg.sims_with_alerts), ll(agg.sims_with_hazards),
          ll(agg.sims_with_accidents), ll(agg.hazards_without_alerts),
          ll(agg.fcw_activations), agg.lane_invasion_rate_mean,
          agg.tth_mean, agg.tth_std};
}

std::vector<Slice> table4_slices(const cli::Report& report) {
  std::vector<Slice> out;
  for (const auto& row : report.rows())
    out.push_back({"table4 " + std::get<std::string>(row[0]),
                   static_cast<std::size_t>(std::get<long long>(row[1])),
                   canon_row(row)});
  return out;
}

/// Table V rows: one per (values, attack type); each row pairs a driver-on
/// and a driver-off leg of `simulations` sims each.
std::vector<Slice> table5_slices(const cli::Report& report) {
  std::vector<Slice> out;
  for (const auto& row : report.rows())
    out.push_back({"table5 " + std::get<std::string>(row[1]) + " " +
                       std::get<std::string>(row[0]),
                   2 * static_cast<std::size_t>(std::get<long long>(row[2])),
                   canon_row(row)});
  return out;
}

/// Simulations of the Fig. 8 sweep: the start x duration grid, and the
/// runs of each overlay strategy (cli::fig8_report runs 20 per rep).
std::size_t fig8_grid_sims() {
  const exp::ParamSpaceConfig defaults;
  return static_cast<std::size_t>(defaults.grid_starts *
                                  defaults.grid_durations);
}
std::size_t fig8_overlay_sims(int reps) {
  return static_cast<std::size_t>(20 * reps);
}

/// Fig. 8 points grouped by strategy. Overlay runs whose attack never
/// started are dropped from the report, so a group's simulation count
/// comes from the sweep's configuration, not from its row count.
std::vector<Slice> fig8_slices(const cli::Report& report, int reps) {
  const attack::StrategyKind kinds[] = {
      attack::StrategyKind::kRandomStDur, attack::StrategyKind::kRandomSt,
      attack::StrategyKind::kRandomDur, attack::StrategyKind::kContextAware};
  std::vector<Slice> out;
  for (const auto kind : kinds) {
    Slice slice{"fig8 " + attack::to_string(kind),
                kind == attack::StrategyKind::kRandomStDur
                    ? fig8_grid_sims()
                    : fig8_overlay_sims(reps),
                ""};
    for (const auto& row : report.rows())
      if (std::get<std::string>(row[0]) == attack::to_string(kind))
        slice.canon += canon_row(row) + ";";
    out.push_back(std::move(slice));
  }
  return out;
}

/// Streaming latency histogram with 1 ns bins: percentiles are exact at the
/// clock's resolution without keeping millions of samples.
class TickHistogram {
 public:
  static constexpr std::size_t kBins = 200'000;  // 200 us; beyond clamps

  TickHistogram() : bins_(kBins, 0) {}

  void add(std::int64_t ns) {
    const auto b = static_cast<std::size_t>(std::clamp<std::int64_t>(
        ns, 0, static_cast<std::int64_t>(kBins) - 1));
    ++bins_[b];
    ++count_;
  }

  std::uint64_t count() const noexcept { return count_; }

  /// Smallest latency (ns) with at least fraction @p q of samples at or
  /// below it.
  double quantile_ns(double q) const {
    if (count_ == 0) return 0.0;
    const auto target = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(count_)));
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kBins; ++b) {
      seen += bins_[b];
      if (seen >= target) return static_cast<double>(b);
    }
    return static_cast<double>(kBins - 1);
  }

 private:
  std::vector<std::uint64_t> bins_;
  std::uint64_t count_ = 0;
};

/// A named grid the workload's serial paths run.
struct NamedGrid {
  attack::StrategyKind kind = attack::StrategyKind::kNone;
  std::vector<exp::CampaignItem> items;
};

constexpr std::size_t kProbeItems = 80;

/// The latency probe: every stride-th item of the workload's grids taken
/// one after another, so each grid weighs in proportion to its size and the
/// probe still spans its attack types, scenarios and gaps.
std::vector<exp::CampaignItem> probe_items(const std::vector<NamedGrid>& grids) {
  std::vector<exp::CampaignItem> all;
  for (const NamedGrid& g : grids)
    all.insert(all.end(), g.items.begin(), g.items.end());
  const std::size_t stride = std::max<std::size_t>(1, all.size() / kProbeItems);
  std::vector<exp::CampaignItem> out;
  for (std::size_t i = 0; i < all.size() && out.size() < kProbeItems;
       i += stride)
    out.push_back(all[i]);
  return out;
}

std::vector<NamedGrid> table4_grids(const exp::CampaignConfig& cc, int reps) {
  std::vector<NamedGrid> grids;
  for (const auto& row : cli::table4_strategies())
    grids.push_back({row.kind, exp::make_grid(row.kind, row.strategic, true,
                                              cc, reps * row.rep_multiplier)});
  return grids;
}

std::vector<NamedGrid> table5_grids(const exp::CampaignConfig& cc) {
  std::vector<NamedGrid> grids;
  for (const bool strategic : {false, true})
    for (const bool driver : {true, false})
      grids.push_back({attack::StrategyKind::kContextAware,
                       exp::make_grid(attack::StrategyKind::kContextAware,
                                      strategic, driver, cc)});
  return grids;
}

/// Options and grids of one workload.
struct Workload {
  std::string name;
  int table4_reps = 1;  ///< reps of the Table IV grids (exp.* timing too)
  std::size_t threads = 1;
  std::uint64_t seed = 0;
  std::size_t sims_per_pass = 0;

  cli::CampaignOptions options(int reps) const {
    cli::CampaignOptions o;
    o.reps = reps;
    o.threads = threads;
    o.seed = seed;
    return o;
  }
  exp::CampaignConfig config(int reps) const {
    exp::CampaignConfig cc;
    cc.base_seed = seed;
    cc.repetitions = reps;
    cc.threads = threads;
    return cc;
  }
};

constexpr int kTable5Reps = 2;
constexpr int kFig8Reps = 1;

/// Shared assets, grids and the resident World the serial paths step: what
/// a workload builds before its first simulation.
struct SetupState {
  exp::WorldAssets assets;
  std::vector<NamedGrid> grids;
  std::unique_ptr<sim::World> world;
};

SetupState build_setup(const Workload& w) {
  SetupState s;
  s.assets = exp::WorldAssets::make_default();
  // paired_sweep's grids are Table V's: exp::run_param_space builds the
  // Fig. 8 jobs internally, so the probe leaves them out.
  if (w.name == "paired_sweep")
    s.grids = table5_grids(w.config(kTable5Reps));
  else
    s.grids = table4_grids(w.config(w.table4_reps), w.table4_reps);
  s.world = std::make_unique<sim::World>(
      exp::world_config_for(s.grids.front().items.front(), s.assets));
  return s;
}

/// Runs items one after another on the resident World, re-armed by
/// World::reset, timing each World::step() into @p hist (may be null).
std::vector<exp::CampaignResult> run_serial(
    sim::World& world, const std::vector<exp::CampaignItem>& items,
    const exp::WorldAssets& assets, TickHistogram* hist) {
  std::vector<exp::CampaignResult> results;
  results.reserve(items.size());
  for (const auto& item : items) {
    world.reset(exp::world_config_for(item, assets));
    if (hist != nullptr) {
      // One timestamp per step boundary: each sample is one step() plus
      // one clock read.
      auto prev = Clock::now();
      bool more = true;
      while (more) {
        more = world.step();
        const auto now = Clock::now();
        hist->add(
            std::chrono::duration_cast<std::chrono::nanoseconds>(now - prev)
                .count());
        prev = now;
      }
    } else {
      while (world.step()) {
      }
    }
    results.push_back({item, world.summarize()});
  }
  return results;
}

/// One execution of the workload through its end-to-end entry points.
std::vector<Slice> run_pass(const Workload& w, SetupState& setup,
                            TickHistogram* hist) {
  if (w.name == "table4_campaign")
    return table4_slices(cli::table4_report(w.options(w.table4_reps), nullptr));
  if (w.name == "paired_sweep") {
    auto slices =
        table5_slices(cli::table5_report(w.options(kTable5Reps), nullptr));
    for (auto& s : fig8_slices(
             cli::fig8_report(w.options(kFig8Reps), nullptr), kFig8Reps))
      slices.push_back(std::move(s));
    return slices;
  }
  // serial_ticks: one thread, one resident World, no pool or runner.
  std::vector<Slice> slices;
  for (const NamedGrid& g : setup.grids) {
    const auto results = run_serial(*setup.world, g.items, setup.assets, hist);
    const exp::Aggregate agg = exp::aggregate(results);
    slices.push_back({"table4 " + attack::to_string(g.kind), agg.simulations,
                      canon_row(table4_row(g.kind, agg))});
  }
  return slices;
}

/// Runs a pass, turning an exception into failed slices so a throwing
/// simulation counts against fail_rate instead of ending the benchmark.
std::vector<Slice> guarded_pass(const Workload& w, SetupState& setup,
                                TickHistogram* hist,
                                const std::vector<Slice>& shape) {
  try {
    return run_pass(w, setup, hist);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: pass threw: " << e.what() << "\n";
    std::vector<Slice> failed = shape;
    for (auto& s : failed) s.canon = std::string("error: ") + e.what();
    return failed;
  }
}

/// JSON text helpers for the raw-measurement document.
std::string quoted(const std::string& s) {
  return "\"" + cli::json_escape(s) + "\"";
}

std::string number(double v) {
  return std::isfinite(v) ? fmt_double(v) : "null";
}

std::string number_list(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ',';
    out += number(v[i]);
  }
  return out + "]";
}

std::string checks_json(const std::vector<CheckSet>& checks) {
  std::string out = "[";
  for (std::size_t c = 0; c < checks.size(); ++c) {
    out += (c > 0 ? ",{" : "{");
    out += "\"label\":" + quoted(checks[c].label) + ",\"slices\":[";
    const auto& slices = checks[c].slices;
    for (std::size_t i = 0; i < slices.size(); ++i) {
      out += (i > 0 ? ",{" : "{");
      out += "\"name\":" + quoted(slices[i].name) +
             ",\"sims\":" + std::to_string(slices[i].sims) +
             ",\"canon\":" + quoted(slices[i].canon) + "}";
    }
    out += "]}";
  }
  return out + "]";
}

/// Per-layer figures of the traced run.
struct LayerMetric {
  std::string name;
  double value;
  std::string unit;
};

/// The traced probe runs each probe item three times on the resident
/// World. (1) Untraced through World::run. (2) Under exp::run_realtime with
/// a 1 ns period: DeadlineClock never sleeps, so the run goes as fast as the
/// host allows while every phase is timestamped; its summaries must be
/// bit-identical to (1). Both timed passes run on a bare World, so
/// trace.overhead_ratio is the executor's own cost. (3) Untimed, through
/// World::run with a counting tap on the CAN bus and typed latches on every
/// pub/sub topic, for the per-tick counts and the captured frames.
struct ProbeResult {
  std::vector<LayerMetric> metrics;
  std::size_t sims = 0;
  std::size_t identity_failures = 0;
  std::vector<can::CanFrame> frames;  ///< captured wire frames (capped)
};

/// Every field of a summary as exact text: equal text means a bit-identical
/// outcome.
std::string summary_text(const sim::SimulationSummary& s) {
  std::string out;
  const auto add = [&out](double v) { out += fmt_double(v) + ","; };
  for (const double v :
       {double(s.any_hazard), double(s.first_hazard), s.first_hazard_time,
        double(s.hazard_h1), double(s.hazard_h2), double(s.hazard_h3),
        s.hazard_h1_time, s.hazard_h2_time, s.hazard_h3_time,
        double(s.any_accident), double(s.first_accident),
        s.first_accident_time, double(s.accident_a1), double(s.accident_a2),
        double(s.accident_a3), double(s.alert_events),
        double(s.steer_saturated_events), double(s.fcw_events),
        double(s.alert_before_hazard), double(s.lane_invasions),
        s.lane_invasion_rate, double(s.attack_activated), s.attack_start,
        s.attack_duration, s.tth, double(s.frames_corrupted),
        double(s.driver_engaged), s.driver_engage_time,
        s.driver_perception_time, s.sim_end_time,
        double(s.can_checksum_rejects), double(s.panda_frames_blocked)})
    add(v);
  for (const auto v : s.faults_fired) add(double(v));
  for (const auto v : s.faults_suppressed) add(double(v));
  return out;
}

ProbeResult traced_probe(SetupState& setup) {
  constexpr std::size_t kFrameCap = 200'000;
  ProbeResult out;
  const std::vector<exp::CampaignItem> items = probe_items(setup.grids);
  sim::World& world = *setup.world;

  exp::RealtimeConfig rt;
  rt.period_s = 1e-9;
  double untraced_s = 0.0, traced_s = 0.0, reset_s = 0.0;
  double tick_s = 0.0, traffic_s = 0.0, sweep_s = 0.0, ego_s = 0.0,
         monitor_s = 0.0;
  std::uint64_t ticks = 0, projections = 0;
  double corrupted = 0.0, attack_live_s = 0.0, sim_s = 0.0, alerts = 0.0,
         engaged = 0.0, rejects = 0.0;
  for (const auto& item : items) {
    const sim::WorldConfig cfg = exp::world_config_for(item, setup.assets);
    // (1) Untraced, then (2) traced, item by item so both see the same
    // cache and host state.
    world.reset(cfg);
    const auto u0 = Clock::now();
    const sim::SimulationSummary untraced = world.run();
    untraced_s += seconds_between(u0, Clock::now());

    const auto r0 = Clock::now();
    world.reset(cfg);
    const auto r1 = Clock::now();
    const exp::RealtimeReport rep = exp::run_realtime(world, rt);
    traced_s += seconds_between(r1, Clock::now());
    reset_s += seconds_between(r0, r1);

    // phases: tick, begin_tick, both projection sweeps, mid_tick, end_tick
    const auto total = [&](std::size_t p) {
      return rep.phases[p].latency_s.mean() *
             static_cast<double>(rep.phases[p].latency_s.count());
    };
    tick_s += total(0);
    traffic_s += total(1);
    sweep_s += total(2);
    ego_s += total(3);
    monitor_s += total(4);
    ticks += rep.ticks;
    projections += rep.ticks * (2 + (cfg.scenario.with_trailing ? 1 : 0) +
                                (cfg.scenario.with_neighbor ? 1 : 0));

    const sim::SimulationSummary& s = rep.summary;
    if (summary_text(s) != summary_text(untraced)) ++out.identity_failures;
    corrupted += static_cast<double>(s.frames_corrupted);
    attack_live_s += s.attack_duration;
    sim_s += s.sim_end_time;
    alerts += static_cast<double>(s.alert_events);
    engaged += s.driver_engaged ? 1.0 : 0.0;
    rejects += static_cast<double>(s.can_checksum_rejects);
  }

  // (3) Counting, untimed. The attachments capture locals of this frame,
  // so they are detached again before it returns.
  std::uint64_t frames = 0;
  out.frames.reserve(kFrameCap);
  const std::uint64_t tap = world.can().attach_tap([&](const can::CanFrame& f) {
    ++frames;
    if (out.frames.size() < kFrameCap) out.frames.push_back(f);
  });
  msg::PubSubBus& bus = world.message_bus();
  msg::Latest<msg::GpsLocationExternal> l_gps(bus);
  msg::Latest<msg::ModelV2> l_model(bus);
  msg::Latest<msg::RadarState> l_radar(bus);
  msg::Latest<msg::CarState> l_car_state(bus);
  msg::Latest<msg::CarControl> l_car_control(bus);
  msg::Latest<msg::ControlsState> l_controls(bus);
  for (const auto& item : items) {
    world.reset(exp::world_config_for(item, setup.assets));
    world.run();
  }
  world.can().detach(tap);
  for (const std::uint64_t id :
       {l_gps.subscription_id(), l_model.subscription_id(),
        l_radar.subscription_id(), l_car_state.subscription_id(),
        l_car_control.subscription_id(), l_controls.subscription_id()})
    bus.unsubscribe(id);

  out.sims = items.size();
  const double n = static_cast<double>(items.size());
  const double t = static_cast<double>(ticks);
  const std::uint64_t publishes = l_gps.updates() + l_model.updates() +
                                  l_radar.updates() + l_car_state.updates() +
                                  l_car_control.updates() +
                                  l_controls.updates();
  out.metrics = {
      {"sim.tick_ns", 1e9 * tick_s / t, "ns"},
      {"sim.traffic_ns", 1e9 * traffic_s / t, "ns"},
      {"sim.ego_ns", 1e9 * ego_s / t, "ns"},
      {"sim.monitor_ns", 1e9 * monitor_s / t, "ns"},
      {"sim.ticks_per_sim", t / n, "count"},
      {"sim.reset_us", 1e6 * reset_s / n, "us"},
      {"trace.overhead_ratio", traced_s / untraced_s, "ratio"},
      {"geom.project_sweep_ns", 1e9 * sweep_s / t, "ns"},
      {"geom.projections_per_tick", static_cast<double>(projections) / t,
       "count"},
      {"can.frames_per_tick", static_cast<double>(frames) / t, "count"},
      {"can.checksum_rejects_per_sim", rejects / n, "count"},
      {"msg.publishes_per_tick", static_cast<double>(publishes) / t, "count"},
      {"attack.frames_corrupted_per_sim", corrupted / n, "count"},
      {"attack.active_fraction", attack_live_s / sim_s, "ratio"},
      {"adas.alerts_per_sim", alerts / n, "count"},
      {"driver.engage_fraction", engaged / n, "ratio"},
  };
  return out;
}

/// Median over @p reps timings of @p body, each returning its own
/// per-operation time in ns.
double median_ns(int reps, const std::function<double()>& body) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) v.push_back(body());
  return median(v);
}

std::vector<LayerMetric> codec_and_bus_metrics(
    const SetupState& setup, const std::vector<can::CanFrame>& frames) {
  std::vector<LayerMetric> out;
  const can::Database& db = *setup.assets.db;

  // Decode every captured frame once to get (handle, values) pack inputs.
  std::vector<can::MessageHandle> handles;
  std::vector<std::vector<double>> values;
  {
    can::CanParser parser(db);
    for (const auto& f : frames)
      if (const auto* p = parser.parse_flat(f)) {
        handles.push_back(p->handle);
        values.emplace_back(p->values.begin(), p->values.end());
      }
  }
  double sink = 0.0;
  const double parse_ns = median_ns(5, [&] {
    can::CanParser parser(db);
    const auto t0 = Clock::now();
    for (const auto& f : frames)
      if (const auto* p = parser.parse_flat(f)) sink += p->values[0];
    return 1e9 * seconds_between(t0, Clock::now()) /
           static_cast<double>(std::max<std::size_t>(1, frames.size()));
  });
  const double pack_ns = median_ns(5, [&] {
    can::CanPacker packer(db);
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < handles.size(); ++i)
      sink += packer.pack(handles[i], values[i]).data[0];
    return 1e9 * seconds_between(t0, Clock::now()) /
           static_cast<double>(std::max<std::size_t>(1, handles.size()));
  });

  const road::Road road = road::RoadBuilder::paper_road();
  const geom::Polyline& line = road.reference();
  const auto points = cli::projection_workload(line, 200'000, 1);
  const double project_ns = median_ns(5, [&] {
    double hint = -1.0;
    const auto t0 = Clock::now();
    for (const geom::Vec2 p : points) {
      const auto proj = line.project(p, hint);
      hint = proj.s;
      sink += proj.lateral;
    }
    return 1e9 * seconds_between(t0, Clock::now()) /
           static_cast<double>(points.size());
  });

  constexpr std::uint64_t kTicks = 100'000;
  const double publish_ns = median_ns(5, [&] {
    msg::PubSubBus bus;
    msg::Latest<msg::GpsLocationExternal> gps(bus);
    msg::Latest<msg::ModelV2> model(bus);
    msg::Latest<msg::RadarState> radar(bus);
    msg::Latest<msg::CarState> car_state(bus);
    msg::Latest<msg::CarControl> car_control(bus);
    msg::Latest<msg::ControlsState> controls(bus);
    const auto t0 = Clock::now();
    cli::bus_tick_workload(kTicks, [&bus](const auto& m) { bus.publish(m); });
    const double ns = 1e9 * seconds_between(t0, Clock::now()) /
                      static_cast<double>(cli::bus_tick_workload_count(kTicks));
    sink += gps.value().speed + car_state.value().speed;
    return ns;
  });
  if (!std::isfinite(sink)) std::cerr << "perfbench: sink overflow\n";

  out.push_back({"can.parse_ns", parse_ns, "ns"});
  out.push_back({"can.pack_ns", pack_ns, "ns"});
  out.push_back({"geom.project_ns", project_ns, "ns"});
  out.push_back({"msg.publish_ns", publish_ns, "ns"});
  return out;
}

/// exp.* figures: each Table IV grid timed through the streaming runner's
/// public entry, at the workload's Table IV reps and thread count.
std::vector<LayerMetric> runner_metrics(const Workload& w) {
  const exp::CampaignConfig cc = w.config(w.table4_reps);
  double small_sims = 0.0, small_s = 0.0, large_sims = 0.0, large_s = 0.0;
  std::size_t min_tasks = SIZE_MAX;
  for (const NamedGrid& g : table4_grids(cc, w.table4_reps)) {
    const auto t0 = Clock::now();
    exp::run_campaign_streaming(g.items, cc);
    const double wall = seconds_between(t0, Clock::now());
    const double n = static_cast<double>(g.items.size());
    if (g.kind == attack::StrategyKind::kRandomStDur) {
      large_sims += n;
      large_s += wall;
    } else {
      small_sims += n;
      small_s += wall;
    }
    min_tasks = std::min(min_tasks, (g.items.size() + exp::kCampaignChunk - 1) /
                                        exp::kCampaignChunk);
  }
  return {{"exp.small_grid_sims_per_s", small_sims / small_s, "1/s"},
          {"exp.large_grid_sims_per_s", large_sims / large_s, "1/s"},
          {"exp.tasks_per_grid_min", static_cast<double>(min_tasks), "count"}};
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload table4_campaign|serial_ticks|"
               "paired_sweep --seed N --seconds S --trace 0|1\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      std::size_t used = 0;
      if (flag == "--workload") {
        a.workload = v;
        have_workload = true;
        used = v.size();
      } else if (flag == "--seed") {
        a.seed = std::stoull(v, &used);
        have_seed = true;
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v, &used);
      } else if (flag == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
        used = v.size();
      } else {
        usage("unknown flag " + flag);
      }
      if (used != v.size()) usage("bad value for " + flag + ": " + v);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (!have_workload || !have_seed) usage("--workload and --seed are required");
  if (a.workload != "table4_campaign" && a.workload != "serial_ticks" &&
      a.workload != "paired_sweep")
    usage("unknown workload " + a.workload);
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());

  Workload w;
  w.name = args.workload;
  w.seed = args.seed;
  w.threads = std::min<std::size_t>(hw, 4);
  w.table4_reps = w.name == "table4_campaign" ? 2 : 1;
  const bool serial = w.name == "serial_ticks";
  const std::size_t workload_threads = serial ? 1 : w.threads;

  SetupState setup = build_setup(w);
  for (const NamedGrid& g : setup.grids) w.sims_per_pass += g.items.size();
  if (w.name == "paired_sweep")
    w.sims_per_pass += fig8_grid_sims() + 3 * fig8_overlay_sims(kFig8Reps);
  const std::vector<Slice> shape = {{w.name, w.sims_per_pass, ""}};

  // Warm-up: the whole workload once, untimed but checked. serial_ticks
  // warms up on its grids through the runner (table4_report at reps 1),
  // whose rows are also the cross-check for the serial fold.
  std::vector<CheckSet> checks;
  {
    Workload warm = w;
    if (serial) warm.name = "table4_campaign";
    checks.push_back({"warmup", guarded_pass(warm, setup, nullptr, shape)});
  }

  // Set-up time: rebuild assets, grids and the resident World a few times
  // after the warm-up and again after every timed pass; run.py reports the
  // median. A build takes a fraction of a millisecond, and a shared host's
  // speed can drift by over 50% for seconds at a time, so samples spread
  // over the whole run weigh the drift the way the passes see it. The
  // previous state is released first, so every build starts from the same
  // allocator state (with two states alive at once, builds alternate
  // between reused and fresh pages).
  std::vector<double> setup_s;
  const auto sample_setup = [&] {
    for (int i = 0; i < 3; ++i) {
      setup = SetupState{};
      const auto t0 = Clock::now();
      setup = build_setup(w);
      setup_s.push_back(seconds_between(t0, Clock::now()));
    }
  };
  sample_setup();

  std::vector<double> pass_s;
  std::vector<LayerMetric> layers;
  std::size_t identity_attempted = 0, identity_failures = 0;
  // One latency histogram pooled over the whole run: a shared host's speed
  // can drift between modes over seconds, and a pool over every pass
  // weighs them the way the run experienced them.
  TickHistogram hist;
  if (!args.trace) {
    // Passes run back to back while the next one still fits in the
    // measuring window, so a run measures at most --seconds (and at least
    // one pass).
    const auto start = Clock::now();
    double slowest = 0.0;
    do {
      const auto t0 = Clock::now();
      std::vector<Slice> slices =
          guarded_pass(w, setup, serial ? &hist : nullptr, shape);
      pass_s.push_back(seconds_between(t0, Clock::now()));
      checks.push_back(
          {"pass" + std::to_string(pass_s.size()), std::move(slices)});
      sample_setup();
      if (!serial) {
        // Tick latency of this workload's own simulations: the probe,
        // stepped serially after every pass with every step() timed.
        run_serial(*setup.world, probe_items(setup.grids), setup.assets,
                   &hist);
      }
      slowest = std::max(slowest, seconds_between(t0, Clock::now()));
    } while (seconds_between(start, Clock::now()) + slowest <= args.seconds);
  } else {
    // One measured execution for exp.cpu_util, then the layer probes.
    const double cpu0 = cpu_seconds();
    const auto t0 = Clock::now();
    checks.push_back({"traced", guarded_pass(w, setup, nullptr, shape)});
    const double wall = seconds_between(t0, Clock::now());
    layers.push_back({"exp.cpu_util",
                      (cpu_seconds() - cpu0) /
                          (wall * static_cast<double>(workload_threads)),
                      "ratio"});
    for (auto& m : runner_metrics(w)) layers.push_back(m);
    ProbeResult probe = traced_probe(setup);
    identity_attempted = probe.sims;
    identity_failures = probe.identity_failures;
    for (auto& m : probe.metrics) layers.push_back(m);
    for (auto& m : codec_and_bus_metrics(setup, probe.frames))
      layers.push_back(m);
  }

  std::string layer_json = "{";
  for (std::size_t i = 0; i < layers.size(); ++i) {
    if (i > 0) layer_json += ',';
    layer_json += quoted(layers[i].name);
    layer_json += ":{\"value\":" + number(layers[i].value);
    layer_json += ",\"unit\":" + quoted(layers[i].unit) + "}";
  }
  layer_json += "}";

  std::cout << "{\"manifest\":{\"nproc\":" << hw
            << ",\"compiler\":" << quoted(PERFBENCH_COMPILER)
            << ",\"build_type\":" << quoted(PERFBENCH_BUILD_TYPE)
            << ",\"ipo\":" << (PERFBENCH_IPO_ON ? "true" : "false")
            << ",\"pool_threads\":" << w.threads
            << ",\"workload_threads\":" << workload_threads << "}"
            << ",\"workload\":" << quoted(w.name) << ",\"seed\":" << w.seed
            << ",\"sims_per_pass\":" << w.sims_per_pass
            << ",\"setup_s\":" << number_list(setup_s)
            << ",\"pass_s\":" << number_list(pass_s)
            << ",\"tick_p50_us\":" << number(hist.quantile_ns(0.50) / 1e3)
            << ",\"tick_p99_us\":" << number(hist.quantile_ns(0.99) / 1e3)
            << ",\"tick_samples\":" << hist.count()
            << ",\"peak_rss_mb\":" << number(peak_rss_mb())
            << ",\"identity_attempted\":" << identity_attempted
            << ",\"identity_failures\":" << identity_failures
            << ",\"layers\":" << layer_json
            << ",\"checks\":" << checks_json(checks) << "}\n";
  return 0;
}
