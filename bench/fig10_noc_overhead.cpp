// Fig. 10 reproduction: computation overhead of the PCA step at the NOC, in
// the paper's flop model (m^2 n for Lakhina vs m^2 l for the sketch method)
// and as measured wall-clock time of the actual decompositions, across the
// sketch length l. The paper plots this in log scale: the sketch method's
// cost is flat in the window length and orders of magnitude below the
// baselines.
#include <cmath>
#include <iostream>

#include "bench/support/scenario.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"
#include "dist/distributed_detector.hpp"
#include "hier/hier_scenario.hpp"
#include "linalg/stats.hpp"
#include "linalg/svd.hpp"
#include "net/scenario.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "par/thread_pool.hpp"
#include "pca/pca_model.hpp"
#include "rand/distributions.hpp"
#include "rand/xoshiro256.hpp"

namespace {

using namespace spca;

Matrix make_random_matrix(std::size_t n, std::size_t m, std::uint64_t seed) {
  Xoshiro256 gen(seed);
  Matrix y(n, m);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) y(i, j) = standard_normal(gen);
  }
  return y;
}

double time_pca_ms(const Matrix& data, int repeats) {
  Stopwatch watch;
  for (int i = 0; i < repeats; ++i) {
    const Svd f = svd(data, /*want_left=*/false);
    // Keep the optimizer honest.
    if (f.values[0] < 0.0) std::abort();
  }
  return watch.milliseconds() / repeats;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(
      "fig10_noc_overhead: NOC PCA computation cost, Lakhina (m^2 n) vs "
      "sketch (m^2 l), log-scale comparison");
  flags.define("flows", "81", "number of OD flows m");
  flags.define("l-list", "10,25,50,100,200,400,1000",
               "sketch lengths to sweep");
  flags.define("repeats", "3", "timing repetitions per point");
  flags.define("dist-window", "288",
               "sliding window of the distributed measurement run");
  flags.define("dist-intervals", "288",
               "evaluated intervals of the distributed measurement run");
  flags.define("dist-l", "80", "sketch length of the distributed run");
  flags.define("dist-monitors", "9", "local monitors of the distributed run");
  flags.define("model-backend", "warm",
               "NOC model backend of the distributed run: exact | warm");
  flags.define("hier-topology", "synth15",
               "topology of the hierarchical accounting run");
  flags.define("hier-monitors", "200",
               "monitors of the hierarchical accounting run (0 disables)");
  flags.define("hier-regions", "4",
               "regional NOCs of the hierarchical accounting run");
  flags.define("hier-intervals", "24",
               "intervals of the hierarchical accounting run");
  define_threads_flag(flags);
  define_observability_flags(flags);
  try {
    if (!flags.parse(argc, argv)) return 0;
    (void)configure_threads_from_flag(flags);
    const auto m = static_cast<std::size_t>(flags.integer("flows"));
    const auto l_values = bench::parse_size_list(flags.str("l-list"));
    const int repeats = static_cast<int>(flags.integer("repeats"));

    // Window lengths of the paper's two interval settings: two weeks.
    const std::size_t n_5min = 4032;
    const std::size_t n_1min = 20160;

    std::cout << "# Fig. 10 — NOC computation overhead (flop model and "
                 "measured SVD time), log scale\n"
              << "# m = " << m << ", Lakhina windows: n = " << n_5min
              << " (5-min), n = " << n_1min << " (1-min)\n";

    const double flops_lakhina_5 =
        static_cast<double>(m) * m * static_cast<double>(n_5min);
    const double flops_lakhina_1 =
        static_cast<double>(m) * m * static_cast<double>(n_1min);
    const double ms_lakhina_5 =
        time_pca_ms(make_random_matrix(n_5min, m, 1), repeats);
    // The 1-minute baseline at n = 20160 takes minutes; extrapolate its
    // measured time linearly in n (the SVD cost model is linear in rows) and
    // mark it as modeled.
    const double ms_lakhina_1 =
        ms_lakhina_5 * static_cast<double>(n_1min) / n_5min;

    TablePrinter table({"method", "l", "flops_m2x", "log10_flops",
                        "measured_ms"});
    table.row({"lakhina-5min", std::to_string(n_5min),
               std::to_string(flops_lakhina_5),
               std::to_string(std::log10(flops_lakhina_5)),
               std::to_string(ms_lakhina_5)});
    table.row({"lakhina-1min(model)", std::to_string(n_1min),
               std::to_string(flops_lakhina_1),
               std::to_string(std::log10(flops_lakhina_1)),
               std::to_string(ms_lakhina_1)});
    for (const std::size_t l : l_values) {
      const double flops = static_cast<double>(m) * m * static_cast<double>(l);
      const double ms = time_pca_ms(make_random_matrix(l, m, 100 + l), repeats);
      table.row({"sketch", std::to_string(l), std::to_string(flops),
                 std::to_string(std::log10(flops)), std::to_string(ms)});
    }
    table.print(std::cout);
    std::cout << "\n# Note: the sketch method's cost depends on l only — "
                 "identical for 5-minute and 1-minute intervals.\n";

    // Measured distributed run: the flop model above predicts the NOC cost;
    // this phase produces the observed counterpart — lazy-protocol sketch
    // pulls, wire bytes, and refit (SVD) latency quantiles — through the
    // spca.noc.* / spca.net.* instrumentation, exported via --metrics-out.
    bench::Scenario scenario;
    scenario.window = static_cast<std::size_t>(flags.integer("dist-window"));
    scenario.eval_intervals =
        static_cast<std::size_t>(flags.integer("dist-intervals"));
    scenario.anomalies = 8;
    scenario.seed = 99;
    const Topology topo = abilene_topology();
    const TraceSet trace = bench::make_trace(topo, scenario);

    SketchDetectorConfig config;
    config.window = scenario.window;
    config.sketch_rows = static_cast<std::size_t>(flags.integer("dist-l"));
    config.rank_policy = RankPolicy::fixed(6);
    config.seed = scenario.seed ^ 0xd15cULL;
    config.backend = parse_model_backend(flags.str("model-backend"));
    DistributedDetector deployment(
        trace.num_flows(),
        static_cast<std::size_t>(flags.integer("dist-monitors")), config);
    std::size_t alarms = 0;
    for (std::size_t t = 0; t < trace.num_intervals(); ++t) {
      if (deployment.observe(static_cast<std::int64_t>(t), trace.row(t)).alarm)
        ++alarms;
    }

    // Report straight from the registry so this table and the --metrics-out
    // JSON are two views of the same numbers.
    MetricsRegistry& registry = MetricsRegistry::global();
    const Histogram& refit_seconds =
        registry.histogram("spca.noc.refit_seconds");
    std::cout << "\n# Measured distributed run: m = " << trace.num_flows()
              << ", l = " << config.sketch_rows << ", n = " << scenario.window
              << ", " << trace.num_intervals() << " intervals, "
              << deployment.num_monitors() << " monitors\n"
              << "noc sketch pulls: "
              << registry.counter("spca.noc.sketch_pulls").value()
              << " (lazy: "
              << registry.counter("spca.noc.lazy_pulls").value()
              << ", stale passes: "
              << registry.counter("spca.noc.stale_passes").value()
              << "); alarms: " << alarms << '\n'
              << "network bytes: "
              << registry.counter("spca.net.bytes_tx").value() << " over "
              << registry.counter("spca.net.messages").value()
              << " messages\n"
              << "noc refit (SVD) latency ms: p50="
              << refit_seconds.quantile(0.5) * 1e3
              << " p95=" << refit_seconds.quantile(0.95) * 1e3
              << " p99=" << refit_seconds.quantile(0.99) * 1e3
              << " (count=" << refit_seconds.count() << ")\n";

    // Hierarchical scale-out accounting: the same scenario through a tier
    // of regional NOCs, with the wire cost split by tree level. The
    // upstream message count at the root shrinks from k to R per phase
    // while the trajectory stays bit-identical to the flat run.
    const auto hier_monitors =
        static_cast<std::size_t>(flags.integer("hier-monitors"));
    if (hier_monitors > 0) {
      NetScenarioConfig nsc;
      nsc.topology = flags.str("hier-topology");
      nsc.monitors = hier_monitors;
      nsc.intervals =
          static_cast<std::size_t>(flags.integer("hier-intervals"));
      nsc.window = 8;
      nsc.sketch_rows = 6;
      nsc.seed = 11;
      nsc.anomalies = 2;
      const auto regions =
          static_cast<std::size_t>(flags.integer("hier-regions"));
      const NetScenario net_scenario = build_scenario(nsc);
      Stopwatch hier_watch;
      const ScenarioRun hier = run_hier_scenario_sim(net_scenario, regions);
      const double hier_ms = hier_watch.milliseconds();
      const HierWireAccounting levels = hier_wire_accounting(hier.stats);
      std::cout << "\n# Hierarchical run: " << hier_monitors << " monitors / "
                << regions << " regions (" << nsc.topology << ", "
                << nsc.intervals << " intervals), " << hier_ms << " ms\n"
                << "monitor->region: " << levels.monitor_to_region_bytes
                << " bytes over " << levels.monitor_to_region_messages
                << " messages\n"
                << "region->root:    " << levels.region_to_root_bytes
                << " bytes over " << levels.region_to_root_messages
                << " messages (" << hier_monitors << " -> " << regions
                << " upstream senders)\n"
                << "requests:        " << levels.request_bytes
                << " bytes over " << levels.request_messages
                << " messages\n"
                << "alarms: " << hier.alarm_intervals.size() << "\n";
    }

    export_observability(flags);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
