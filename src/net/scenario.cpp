#include "net/scenario.hpp"

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "detect/fusion.hpp"
#include "dist/distributed_detector.hpp"
#include "synth/anomaly_injector.hpp"
#include "synth/traffic_model.hpp"
#include "traffic/topology.hpp"

namespace spca {

namespace {

// Deterministic synthetic topology for scale-out runs: a ring of `routers`
// PoPs with cross-ring chords (a chorded cycle — enough path diversity for
// the gravity-model traffic while staying O(n) links). "synth15" gives
// 15 routers and 225 OD flows, the smallest synth size that fits the
// 200-monitor hierarchy scenario.
Topology synth_topology(std::size_t routers) {
  if (routers < 4 || routers > 64) {
    throw InputError("synth topology: routers must be in [4, 64]");
  }
  std::vector<std::string> names;
  names.reserve(routers);
  for (std::size_t i = 0; i < routers; ++i) {
    names.push_back("P" + std::to_string(i));
  }
  std::vector<Link> links;
  const auto id = [](std::size_t i) { return static_cast<RouterId>(i); };
  for (std::size_t i = 0; i < routers; ++i) {
    links.push_back(Link{id(i), id((i + 1) % routers), 1.0});
  }
  for (std::size_t i = 0; i < routers / 2; ++i) {
    links.push_back(Link{id(i), id(i + routers / 2), 1.5});
  }
  return Topology(std::move(names), std::move(links));
}

Topology scenario_topology(const std::string& name) {
  if (name == "diamond") {
    return Topology({"A", "B", "C", "D"},
                    {Link{0, 1, 1.0}, Link{1, 2, 1.0}, Link{2, 3, 1.0},
                     Link{3, 0, 1.0}, Link{0, 2, 1.5}});
  }
  if (name == "abilene") return abilene_topology();
  if (name.rfind("synth", 0) == 0) {
    const std::string arg = name.substr(5);
    std::size_t routers = 0;
    for (const char c : arg) {
      if (c < '0' || c > '9') {
        throw InputError("synth topology: expected synth<routers>, got " +
                         name);
      }
      routers = routers * 10 + static_cast<std::size_t>(c - '0');
    }
    return synth_topology(routers);
  }
  throw InputError("unknown scenario topology: " + name +
                   " (expected diamond, abilene, or synth<routers>)");
}

}  // namespace

NetScenario build_scenario(const NetScenarioConfig& config) {
  if (config.intervals <= config.window) {
    throw InputError("scenario: intervals must exceed the window");
  }
  if (config.monitors == 0) {
    throw InputError("scenario: at least one monitor required");
  }
  const Topology topology = scenario_topology(config.topology);
  if (config.monitors > topology.num_od_flows()) {
    throw InputError("scenario: more monitors than flows");
  }

  TrafficModelConfig traffic;
  traffic.num_intervals = config.intervals;
  traffic.interval_seconds = 300.0;
  traffic.seed = config.seed;
  traffic.network_noise = 0.08;
  traffic.flow_noise = 0.10;
  traffic.measurement_noise = 0.03;
  TraceSet trace = generate_traffic(topology, traffic);
  if (config.anomalies > 0) {
    AnomalyInjector injector(topology, config.seed ^ 0xabcdef);
    (void)injector.inject_mixture(
        trace, config.anomalies, static_cast<std::int64_t>(config.window),
        static_cast<std::int64_t>(config.intervals));
  }

  SketchDetectorConfig detector;
  detector.window = config.window;
  detector.epsilon = 0.01;
  detector.sketch_rows = config.sketch_rows;
  detector.alpha = 0.01;
  detector.rank_policy = RankPolicy::fixed(3);
  detector.seed = config.seed;
  detector.lazy = true;
  detector.backend = parse_model_backend(config.model_backend);
  return NetScenario{config, std::move(trace), detector};
}

std::vector<FlowId> scenario_flows_of(std::size_t num_flows,
                                      std::size_t num_monitors,
                                      NodeId monitor) {
  SPCA_EXPECTS(monitor >= 1 && monitor <= num_monitors);
  std::vector<FlowId> flows;
  for (std::size_t j = monitor - 1; j < num_flows; j += num_monitors) {
    flows.push_back(static_cast<FlowId>(j));
  }
  return flows;
}

std::vector<NodeId> scenario_monitor_ids(std::size_t num_monitors) {
  std::vector<NodeId> ids;
  ids.reserve(num_monitors);
  for (std::size_t k = 0; k < num_monitors; ++k) {
    ids.push_back(static_cast<NodeId>(k + 1));
  }
  return ids;
}

ScenarioRun run_scenario_reference(const NetScenario& scenario,
                                   Transport* transport) {
  DistributedDetector detector(scenario.trace.num_flows(),
                               scenario.config.monitors, scenario.detector,
                               /*noc_hosted_sketches=*/false, transport);
  const bool fusion = scenario.config.fusion != "off";
  if (fusion) {
    FusionConfig config;
    config.rule = parse_fusion_rule(scenario.config.fusion);
    detector.enable_fusion(config);
  }
  ScenarioRun run;
  for (std::size_t t = 0; t < scenario.config.intervals; ++t) {
    const Detection det =
        detector.observe(static_cast<std::int64_t>(t), scenario.trace.row(t));
    if (!det.ready) continue;
    run.distances.push_back(det.distance);
    if (det.alarm) run.alarm_intervals.push_back(static_cast<std::int64_t>(t));
    if (fusion) {
      const FusedDecision& fused = detector.last_fused();
      run.fused_statistics.push_back(fused.statistic);
      if (fused.alarm) {
        run.fused_alarm_intervals.push_back(static_cast<std::int64_t>(t));
      }
    }
  }
  run.stats = detector.network_stats();
  return run;
}

void define_scenario_flags(CliFlags& flags) {
  flags.define("topology", "diamond",
               "Scenario topology: diamond (16 flows), abilene (81 flows), "
               "or synth<N> (N routers, N^2 flows)");
  flags.define("intervals", "96", "Measurement intervals to replay");
  flags.define("window", "24", "Sliding-window length n (also the warm-up)");
  flags.define("sketch-rows", "12", "Sketch length l");
  flags.define("monitors", "2", "Number of monitor processes");
  flags.define("seed", "7", "Deterministic world seed");
  flags.define("anomalies", "4", "Anomaly episodes injected after warm-up");
  flags.define("model-backend", "warm",
               "NOC model backend: exact | warm");
  flags.define("fusion", "off",
               "Ensemble fusion rule: off | any | all | weighted");
}

NetScenarioConfig scenario_from_flags(const CliFlags& flags) {
  NetScenarioConfig config;
  config.topology = flags.str("topology");
  config.intervals = static_cast<std::size_t>(flags.integer("intervals"));
  config.window = static_cast<std::size_t>(flags.integer("window"));
  config.sketch_rows = static_cast<std::size_t>(flags.integer("sketch-rows"));
  config.monitors = static_cast<std::size_t>(flags.integer("monitors"));
  config.seed = static_cast<std::uint64_t>(flags.integer("seed"));
  config.anomalies = static_cast<std::size_t>(flags.integer("anomalies"));
  config.model_backend = flags.str("model-backend");
  (void)parse_model_backend(config.model_backend);  // validate early
  config.fusion = flags.str("fusion");
  if (config.fusion != "off") {
    (void)parse_fusion_rule(config.fusion);  // validate early
  }
  return config;
}

}  // namespace spca
