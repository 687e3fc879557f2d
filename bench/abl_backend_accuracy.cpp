// Backend accuracy ablation: alarm-verdict agreement of the warm NOC model
// backend against the exact reference on the pinned fig. 5 scenario
// (coordinated low-profile botnet bump on four Abilene OD flows).
//
// For each backend the tool reports Type I/II error against the injected
// ground truth plus the verdict-divergence rate vs the exact backend, and
// appends one JSONL record per backend to --out (the CI artifact). Exit is
// nonzero when the warm backend's verdicts are not identical to exact.
#include <cstddef>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/support/scenario.hpp"
#include "common/table.hpp"
#include "core/evaluation.hpp"
#include "core/sketch_detector.hpp"
#include "pca/backend/model_backend.hpp"
#include "synth/anomaly_injector.hpp"

namespace {

using namespace spca;

struct BackendScore {
  std::string name;
  DetectorRun run;
  ConfusionMatrix confusion;
  double divergence = 0.0;
  std::size_t diverged = 0;
  std::size_t compared = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace spca;
  CliFlags flags(
      "abl_backend_accuracy: Type I/II and verdict divergence of the model "
      "backends vs the exact reference, pinned fig. 5 scenario");
  bench::define_scenario_flags(flags);
  flags.define("sketch-rows", "128", "sketch length l");
  flags.define("event-sigma", "3.0",
               "coordinated bump size in per-flow standard deviations");
  flags.define("out", "BACKEND_accuracy.json",
               "JSONL artifact path (one record per backend, append mode)");
  try {
    if (!flags.parse(argc, argv)) return 0;
    const bench::Scenario scenario = bench::scenario_from_flags(flags);

    const Topology topo = abilene_topology();
    TrafficModelConfig config;
    config.num_intervals = scenario.total_intervals();
    config.interval_seconds = scenario.interval_seconds;
    config.seed = scenario.seed;
    TraceSet trace = generate_traffic(topo, config);

    const std::vector<FlowId> flows = {
        topo.flow_id("ATLA", "CHIC"), topo.flow_id("CHIC", "KANS"),
        topo.flow_id("CHIC", "SALT"), topo.flow_id("SEAT", "SALT")};
    const std::int64_t event_start = static_cast<std::int64_t>(
        scenario.window + scenario.eval_intervals / 2);
    AnomalyInjector injector(topo, scenario.seed);
    injector.inject_botnet(trace, event_start, 4, flows,
                           flags.real("event-sigma"));

    std::vector<bool> truth(static_cast<std::size_t>(config.num_intervals));
    for (std::size_t t = 0; t < truth.size(); ++t) {
      truth[t] = trace.is_anomalous(static_cast<std::int64_t>(t));
    }

    const std::vector<ModelBackendKind> kinds = {ModelBackendKind::kExact,
                                                 ModelBackendKind::kWarm};

    std::vector<BackendScore> scores;
    for (const ModelBackendKind kind : kinds) {
      SketchDetectorConfig detector_config;
      detector_config.window = scenario.window;
      detector_config.epsilon = scenario.epsilon;
      detector_config.sketch_rows =
          static_cast<std::size_t>(flags.integer("sketch-rows"));
      detector_config.alpha = scenario.alpha;
      detector_config.rank_policy = RankPolicy::fixed(6);
      detector_config.seed = scenario.seed ^ 0xf1f5ULL;
      detector_config.backend = kind;
      SketchDetector detector(trace.num_flows(), detector_config);
      BackendScore score;
      score.name = to_string(kind);
      score.run = run_detector(detector, trace);
      score.confusion =
          score_against_labels(score.run, truth, scenario.window);
      scores.push_back(std::move(score));
    }

    const DetectorRun& exact = scores.front().run;
    for (BackendScore& score : scores) {
      for (std::size_t t = 0; t < exact.detections.size(); ++t) {
        if (!exact.detections[t].ready || !score.run.detections[t].ready) {
          continue;
        }
        ++score.compared;
        if (score.run.detections[t].alarm != exact.detections[t].alarm) {
          ++score.diverged;
        }
      }
      score.divergence =
          score.compared == 0
              ? 0.0
              : static_cast<double>(score.diverged) /
                    static_cast<double>(score.compared);
    }

    std::cout << "# Backend accuracy vs exact — pinned fig. 5 scenario "
              << "(seed " << scenario.seed << ", event at " << event_start
              << ")\n";
    TablePrinter table({"backend", "type I", "type II", "divergence",
                        "diverged", "compared"});
    for (const BackendScore& score : scores) {
      table.row({score.name, std::to_string(score.confusion.type1_error()),
                 std::to_string(score.confusion.type2_error()),
                 std::to_string(score.divergence),
                 std::to_string(score.diverged),
                 std::to_string(score.compared)});
    }
    table.print(std::cout);

    const std::string out_path = flags.str("out");
    if (!out_path.empty()) {
      std::ofstream out(out_path, std::ios::app);
      if (!out) throw InputError("cannot open '" + out_path + "'");
      for (const BackendScore& score : scores) {
        out << "{\"backend\": \"" << score.name << "\", \"sketch_rows\": "
            << flags.integer("sketch-rows") << ", \"type1\": "
            << score.confusion.type1_error() << ", \"type2\": "
            << score.confusion.type2_error() << ", \"divergence\": "
            << score.divergence << ", \"diverged\": " << score.diverged
            << ", \"compared\": " << score.compared << "}\n";
      }
      std::cout << "\nartifact appended to " << out_path << "\n";
    }

    const BackendScore& warm = scores.back();
    if (warm.diverged != 0) {
      std::cerr << "FAIL: warm diverged from exact on " << warm.diverged
                << " interval(s); warm must be verdict-identical\n";
      return 1;
    }
    std::cout << "OK: warm verdicts identical to exact\n";
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
