#include "exp/param_space.hpp"

#include <ostream>

#include "util/csv.hpp"
#include "util/rng.hpp"

namespace scaa::exp {

std::vector<ParamSpacePoint> run_param_space(const ParamSpaceConfig& cfg) {
  std::vector<CampaignItem> items;
  std::uint64_t sm = cfg.base_seed;
  const auto add = [&cfg, &items, &sm](attack::StrategyKind strategy,
                                       double start, double duration) {
    CampaignItem item;
    item.strategy = strategy;
    item.type = cfg.type;
    item.strategic_values = strategy == attack::StrategyKind::kContextAware;
    item.scenario_id = cfg.scenario_id;
    item.initial_gap = cfg.initial_gap;
    item.seed = util::splitmix64(sm);
    item.forced_start = start;
    item.forced_duration = duration;
    items.push_back(item);
  };

  // Background grid: deterministic Random-ST+DUR windows.
  for (int i = 0; i < cfg.grid_starts; ++i) {
    const double t = cfg.grid_starts > 1
                         ? static_cast<double>(i) / (cfg.grid_starts - 1)
                         : 0.0;
    const double start = cfg.min_start + t * (cfg.max_start - cfg.min_start);
    for (int j = 0; j < cfg.grid_durations; ++j) {
      const double u = cfg.grid_durations > 1
                           ? static_cast<double>(j) / (cfg.grid_durations - 1)
                           : 0.0;
      add(attack::StrategyKind::kRandomStDur, start,
          cfg.min_duration + u * (cfg.max_duration - cfg.min_duration));
    }
  }
  // Overlays: Random-ST (fixed duration), Random-DUR and Context-Aware
  // use their own stochastic/contextual timing.
  for (int r = 0; r < cfg.overlay_runs; ++r) {
    add(attack::StrategyKind::kRandomSt, -1.0, -1.0);
    add(attack::StrategyKind::kRandomDur, -1.0, -1.0);
    add(attack::StrategyKind::kContextAware, -1.0, -1.0);
  }

  CampaignConfig cc;
  cc.threads = cfg.threads;
  std::vector<ParamSpacePoint> points;
  for (const CampaignResult& r : run_campaign(items, cc)) {
    const sim::SimulationSummary& s = r.summary;
    ParamSpacePoint point;
    point.strategy = r.item.strategy;
    point.start_time =
        s.attack_start >= 0.0 ? s.attack_start : r.item.forced_start;
    point.duration =
        s.attack_duration > 0.0 ? s.attack_duration : r.item.forced_duration;
    point.hazardous = s.any_hazard;
    // Drop overlay runs whose attack never activated (no point to plot).
    if (point.start_time >= 0.0) points.push_back(point);
  }
  return points;
}

void write_param_space_csv(const std::vector<ParamSpacePoint>& points,
                           std::ostream& out) {
  util::CsvWriter csv(out);
  csv.header({"strategy", "start_time", "duration", "hazardous"});
  for (const auto& p : points) {
    csv.row()
        .cell(attack::to_string(p.strategy))
        .cell(p.start_time)
        .cell(p.duration)
        .cell(p.hazardous);
    csv.end_row();
  }
}

double estimate_critical_time(const std::vector<ParamSpacePoint>& points) {
  double earliest = -1.0;
  for (const auto& p : points) {
    if (!p.hazardous) continue;
    if (earliest < 0.0 || p.start_time < earliest) earliest = p.start_time;
  }
  return earliest;
}

}  // namespace scaa::exp
