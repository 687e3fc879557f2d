// Loopback end-to-end of the daemon pair: a NocDaemon and its MonitorDaemons
// running as real TcpTransport endpoints on 127.0.0.1 must reproduce the
// SimNetwork reference trajectory bit for bit, survive a monitor kill and
// restart mid-run, tolerate monitors dialing before the NOC listens,
// re-send a report whose send failed, and find a finished NOC closed.
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "ingest/record_file.hpp"
#include "net/monitor_daemon.hpp"
#include "net/noc_daemon.hpp"
#include "net/scenario.hpp"
#include "net/socket.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/span_log.hpp"

namespace spca {
namespace {

using namespace std::chrono_literals;

NetScenarioConfig small_scenario() {
  NetScenarioConfig config;
  config.topology = "diamond";
  config.intervals = 40;
  config.window = 12;
  config.sketch_rows = 8;
  config.monitors = 2;
  config.seed = 7;
  config.anomalies = 3;
  return config;
}

RetryPolicy fast_retry() {
  RetryPolicy retry;
  retry.max_attempts = 400;
  retry.connect_timeout = 1000ms;
  retry.backoff_initial = 5ms;
  retry.backoff_max = 50ms;
  return retry;
}

MonitorDaemonConfig monitor_config(const NetScenarioConfig& scenario,
                                   NodeId id, std::uint16_t port) {
  MonitorDaemonConfig config;
  config.scenario = scenario;
  config.monitor_id = id;
  config.noc_host = "127.0.0.1";
  config.noc_port = port;
  config.retry = fast_retry();
  config.io_timeout = 20000ms;
  return config;
}

/// Runs one monitor daemon on the calling thread, capturing any exception.
void run_monitor(MonitorDaemonConfig config, MonitorDaemonResult& result,
                 std::exception_ptr& error) {
  try {
    MonitorDaemon daemon(std::move(config));
    result = daemon.run();
  } catch (...) {
    error = std::current_exception();
  }
}

void expect_matches_reference(const ScenarioRun& run,
                              const ScenarioRun& reference) {
  EXPECT_EQ(run.alarm_intervals, reference.alarm_intervals);
  ASSERT_EQ(run.distances.size(), reference.distances.size());
  for (std::size_t i = 0; i < reference.distances.size(); ++i) {
    EXPECT_EQ(run.distances[i], reference.distances[i])
        << "interval index " << i;
  }
}

/// Runs `config` over loopback TCP (the NOC on this thread, one thread per
/// monitor) and checks it against the SimNetwork reference: trajectory bit
/// for bit, and the deployment-wide wire accounting byte for byte.
void expect_loopback_matches_reference(const NetScenarioConfig& config) {
  const NetScenario scenario = build_scenario(config);
  const ScenarioRun reference = run_scenario_reference(scenario);

  NocDaemonConfig noc_config;
  noc_config.scenario = config;
  noc_config.listen_port = 0;
  noc_config.interval_deadline = 30000ms;
  NocDaemon noc(noc_config);
  noc.start();

  std::vector<std::thread> threads;
  std::vector<MonitorDaemonResult> results(config.monitors);
  std::vector<std::exception_ptr> errors(config.monitors);
  for (std::size_t k = 0; k < config.monitors; ++k) {
    threads.emplace_back(run_monitor,
                         monitor_config(config,
                                        static_cast<NodeId>(k + 1),
                                        noc.bound_port()),
                         std::ref(results[k]), std::ref(errors[k]));
  }

  const ScenarioRun run = noc.run();
  for (auto& t : threads) t.join();
  for (auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }

  expect_matches_reference(run, reference);
  EXPECT_EQ(noc.reconnects(), 0u);

  // The deployment-wide wire accounting (NOC sends + every monitor's sends)
  // equals the single-transport reference byte for byte.
  NetworkStats total = run.stats;
  for (const auto& result : results) {
    EXPECT_EQ(result.intervals_reported,
              static_cast<std::int64_t>(config.intervals));
    total += result.stats;
  }
  EXPECT_TRUE(total == reference.stats);
}

TEST(Daemons, LoopbackDeploymentMatchesSimReferenceBitForBit) {
  expect_loopback_matches_reference(small_scenario());
  for (const std::uint64_t seed : {11ull, 23ull}) {
    for (const std::size_t monitors : {1u, 4u}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", monitors " +
                   std::to_string(monitors));
      NetScenarioConfig config = small_scenario();
      config.seed = seed;
      config.monitors = monitors;
      config.anomalies = 2;
      expect_loopback_matches_reference(config);
    }
  }
}

TEST(Daemons, FinishedNocRefusesNewConnections) {
  // A planned stop, as in a chaos NOC kill: once run() returns, a monitor's
  // redial must not reach this incarnation (and lose its next frame to it),
  // even though the object lives on.
  NetScenarioConfig config = small_scenario();
  config.monitors = 1;
  const auto last = static_cast<std::int64_t>(config.window) + 2;
  NocDaemonConfig noc_config;
  noc_config.scenario = config;
  noc_config.last_interval = last;
  noc_config.interval_deadline = 30000ms;
  NocDaemon noc(noc_config);
  noc.start();
  const std::uint16_t port = noc.bound_port();

  MonitorDaemonConfig monitor = monitor_config(config, 1, port);
  monitor.last_interval = last;
  MonitorDaemonResult result;
  std::exception_ptr error;
  std::thread thread(run_monitor, monitor, std::ref(result), std::ref(error));
  const ScenarioRun run = noc.run();
  EXPECT_THROW((void)TcpStream::connect("127.0.0.1", port, 1000ms),
               TransportError);
  thread.join();
  if (error) std::rethrow_exception(error);

  EXPECT_EQ(result.intervals_reported, last);
  EXPECT_EQ(noc.bound_port(), port);
  EXPECT_EQ(noc.reconnects(), 0u);
  EXPECT_GT(run.stats.messages, 0u);
}

TEST(Daemons, MonitorKillAndRestartSurvivesViaReconnect) {
  const NetScenarioConfig config = small_scenario();
  const NetScenario scenario = build_scenario(config);
  const ScenarioRun reference = run_scenario_reference(scenario);

  // Kill point: past warm-up, so the restarted daemon has real sketch state
  // to rebuild before rejoining.
  const auto kill_at = static_cast<std::int64_t>(config.window + 6);

  NocDaemonConfig noc_config;
  noc_config.scenario = config;
  noc_config.listen_port = 0;
  noc_config.interval_deadline = 30000ms;
  NocDaemon noc(noc_config);
  noc.start();

  // Monitor 2 runs the whole scenario; monitor 1 exits after kill_at and a
  // fresh daemon process-equivalent restarts from that interval, absorbing
  // the earlier trace locally.
  MonitorDaemonResult steady_result, first_result, reborn_result;
  std::exception_ptr steady_error, restart_error;
  std::thread steady(run_monitor, monitor_config(config, 2, noc.bound_port()),
                     std::ref(steady_result), std::ref(steady_error));
  std::thread restarting([&] {
    try {
      MonitorDaemonConfig first = monitor_config(config, 1, noc.bound_port());
      first.last_interval = kill_at;
      MonitorDaemon killed(first);
      first_result = killed.run();

      MonitorDaemonConfig second = monitor_config(config, 1, noc.bound_port());
      second.first_interval = kill_at;
      MonitorDaemon reborn(second);
      reborn_result = reborn.run();
    } catch (...) {
      restart_error = std::current_exception();
    }
  });

  const ScenarioRun run = noc.run();
  steady.join();
  restarting.join();
  if (steady_error) std::rethrow_exception(steady_error);
  if (restart_error) std::rethrow_exception(restart_error);

  // The trajectory is unchanged by the kill/restart...
  expect_matches_reference(run, reference);
  // ...the NOC observed monitor 1 coming back...
  EXPECT_GE(noc.reconnects(), 1u);
  // ...and the two monitor-1 incarnations covered the scenario between them.
  EXPECT_EQ(first_result.intervals_reported, kill_at);
  EXPECT_EQ(reborn_result.intervals_reported,
            static_cast<std::int64_t>(config.intervals) - kill_at);
  EXPECT_EQ(steady_result.intervals_reported,
            static_cast<std::int64_t>(config.intervals));
}

TEST(Daemons, RecordIngestReproducesTheSyntheticTrajectory) {
  // Monitors streaming their volumes from a record file exported off the
  // scenario trace (--ingest-records) must follow the exact trajectory of
  // monitors replaying the synthetic trace directly.
  const NetScenarioConfig config = small_scenario();
  const NetScenario scenario = build_scenario(config);
  const ScenarioRun reference = run_scenario_reference(scenario);

  const std::string records =
      (std::filesystem::temp_directory_path() / "spca_daemon_ingest.spcr")
          .string();
  RecordExportOptions options;
  options.records_per_cell = 2;
  export_records(scenario.trace, records, options);

  NocDaemonConfig noc_config;
  noc_config.scenario = config;
  noc_config.listen_port = 0;
  noc_config.interval_deadline = 30000ms;
  NocDaemon noc(noc_config);
  noc.start();

  std::vector<std::thread> threads;
  std::vector<MonitorDaemonResult> results(config.monitors);
  std::vector<std::exception_ptr> errors(config.monitors);
  for (std::size_t k = 0; k < config.monitors; ++k) {
    MonitorDaemonConfig monitor =
        monitor_config(config, static_cast<NodeId>(k + 1), noc.bound_port());
    monitor.ingest_records = records;
    threads.emplace_back(run_monitor, std::move(monitor),
                         std::ref(results[k]), std::ref(errors[k]));
  }

  const ScenarioRun run = noc.run();
  for (auto& t : threads) t.join();
  std::filesystem::remove(records);
  for (auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  expect_matches_reference(run, reference);
}

/// One status-endpoint HTTP GET, reading until the server's HTTP/1.0 close.
std::string http_get(int port, const std::string& path) {
  TcpStream stream = TcpStream::connect(
      "127.0.0.1", static_cast<std::uint16_t>(port), 5000ms);
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  stream.send_all(reinterpret_cast<const std::byte*>(request.data()),
                  request.size(), 5000ms);
  std::string response;
  std::byte buf[4096];
  for (;;) {
    const std::ptrdiff_t n = stream.recv_some(buf, sizeof(buf), 10000ms);
    if (n <= 0) break;
    response.append(reinterpret_cast<const char*>(buf),
                    static_cast<std::size_t>(n));
  }
  return response;
}

TEST(Daemons, TelemetryPlaneIsBitInvariantAndScrapableLive) {
  // The full telemetry plane — interval spans, the flight recorder, and a
  // live status endpoint scraped mid-run — must not perturb the detection
  // trajectory by a single bit, and the sim and TCP deployments must
  // produce structurally identical span trees.
  const NetScenarioConfig config = small_scenario();
  const NetScenario scenario = build_scenario(config);

  const std::string flight_dir =
      (std::filesystem::temp_directory_path() / "spca_daemon_flight")
          .string();
  FlightRecorder::global().configure(flight_dir, 256);

  SpanLog::global().clear();
  const ScenarioRun reference = run_scenario_reference(scenario);
  const std::vector<std::string> sim_signature =
      structural_signature(SpanLog::global().snapshot());
  EXPECT_FALSE(sim_signature.empty());

  SpanLog::global().clear();
  NocDaemonConfig noc_config;
  noc_config.scenario = config;
  noc_config.listen_port = 0;
  noc_config.interval_deadline = 30000ms;
  noc_config.status_port = 0;
  std::promise<int> port_promise;
  noc_config.on_status_port = [&port_promise](int port) {
    port_promise.set_value(port);
  };
  NocDaemon noc(noc_config);
  noc.start();

  // Scrape every route while the deployment is live; the daemon serves
  // from its wait slices, so the scrape rides on the protocol's idle time.
  std::string metrics_json, healthz, prometheus;
  std::thread scraper([&] {
    std::future<int> port = port_promise.get_future();
    if (port.wait_for(30s) != std::future_status::ready) return;
    const int p = port.get();
    metrics_json = http_get(p, "/metrics.json");
    healthz = http_get(p, "/healthz");
    prometheus = http_get(p, "/metrics");
  });

  std::vector<std::thread> threads;
  std::vector<MonitorDaemonResult> results(config.monitors);
  std::vector<std::exception_ptr> errors(config.monitors);
  for (std::size_t k = 0; k < config.monitors; ++k) {
    threads.emplace_back(run_monitor,
                         monitor_config(config,
                                        static_cast<NodeId>(k + 1),
                                        noc.bound_port()),
                         std::ref(results[k]), std::ref(errors[k]));
  }

  const ScenarioRun run = noc.run();
  for (auto& t : threads) t.join();
  scraper.join();
  for (auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }

  // Bit-invariance: all telemetry on, trajectory unchanged.
  expect_matches_reference(run, reference);

  // The live scrapes answered with real content.
  EXPECT_NE(metrics_json.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(metrics_json.find("\"counters\""), std::string::npos);
  EXPECT_NE(healthz.find("\"role\":\"noc\""), std::string::npos);
  EXPECT_NE(prometheus.find("# TYPE"), std::string::npos);

  // Sim and TCP runs traced the same stages on the same nodes for the same
  // intervals.
  const std::vector<std::string> tcp_signature =
      structural_signature(SpanLog::global().snapshot());
  EXPECT_EQ(sim_signature, tcp_signature);

  // The flight recorder captured per-interval snapshots and can dump them.
  EXPECT_GT(FlightRecorder::global().recorded(), 0u);
  const std::string dump = FlightRecorder::global().dump("test");
  EXPECT_NE(dump, "");
  FlightRecorder::global().reset();
  std::error_code ec;
  std::filesystem::remove_all(flight_dir, ec);
}

TEST(Daemons, MonitorsStartedBeforeTheNocBackOffAndConnect) {
  NetScenarioConfig config = small_scenario();
  config.intervals = 24;  // keep the run short; this tests startup ordering
  config.anomalies = 1;
  const NetScenario scenario = build_scenario(config);
  const ScenarioRun reference = run_scenario_reference(scenario);

  // Reserve an ephemeral port, then free it so the monitors dial a port
  // nobody listens on yet.
  std::uint16_t port = 0;
  {
    TcpListener reserve("127.0.0.1", 0);
    port = reserve.port();
  }

  std::vector<std::thread> threads;
  std::vector<MonitorDaemonResult> results(config.monitors);
  std::vector<std::exception_ptr> errors(config.monitors);
  for (std::size_t k = 0; k < config.monitors; ++k) {
    threads.emplace_back(run_monitor,
                         monitor_config(config,
                                        static_cast<NodeId>(k + 1), port),
                         std::ref(results[k]), std::ref(errors[k]));
  }

  // Let the monitors burn a few connect attempts before the NOC exists.
  std::this_thread::sleep_for(100ms);

  NocDaemonConfig noc_config;
  noc_config.scenario = config;
  noc_config.listen_host = "127.0.0.1";
  noc_config.listen_port = port;
  noc_config.interval_deadline = 30000ms;
  NocDaemon noc(noc_config);
  noc.start();
  const ScenarioRun run = noc.run();

  for (auto& t : threads) t.join();
  for (auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  expect_matches_reference(run, reference);
}

/// A monitor's message path whose first send of its volume report for
/// `interval` fails the way a TcpTransport send fails when the NOC went
/// away under it (a restart racing the transport's one redial): nothing
/// is delivered and TransportError is thrown.
class ReportSendFailsOnce final : public Transport {
 public:
  ReportSendFailsOnce(Transport& inner, std::int64_t interval)
      : inner_(inner), interval_(interval) {}

  void send(const Message& msg) override {
    if (!failed_ && msg.type == MessageType::kVolumeReport &&
        msg.interval == interval_) {
      failed_ = true;
      throw TransportError("send: Broken pipe");
    }
    inner_.send(msg);
  }
  std::vector<Message> drain(NodeId node) override {
    return inner_.drain(node);
  }
  std::vector<Message> take(NodeId node, MessageType type) override {
    return inner_.take(node, type);
  }
  bool has_mail(NodeId node) const override { return inner_.has_mail(node); }
  bool wait_for_mail(NodeId node, std::chrono::milliseconds timeout) override {
    return inner_.wait_for_mail(node, timeout);
  }
  const NetworkStats& stats() const noexcept override {
    return inner_.stats();
  }
  void reset_stats() noexcept override { inner_.reset_stats(); }

 private:
  Transport& inner_;
  std::int64_t interval_;
  bool failed_ = false;
};

TEST(Daemons, MonitorResendsAReportWhoseSendFailed) {
  // A report send that throws (the NOC restarting between advance(t - 1)
  // and the report for t) must not end the monitor: the monitor re-sends
  // the report, with its score report under fusion, and the run matches
  // the reference. Looped over warm-up, pull and final intervals.
  for (const std::string fusion : {"off", "any"}) {
    NetScenarioConfig config = small_scenario();
    config.intervals = 24;
    config.fusion = fusion;
    const NetScenario scenario = build_scenario(config);
    const ScenarioRun reference = run_scenario_reference(scenario);
    const auto window = static_cast<std::int64_t>(config.window);
    for (const std::int64_t fail_at : {std::int64_t{1}, window - 1,
                                       window + 3, std::int64_t{23}}) {
      SCOPED_TRACE("fusion " + fusion + ", failed send at interval " +
                   std::to_string(fail_at));
      NocDaemonConfig noc_config;
      noc_config.scenario = config;
      noc_config.listen_port = 0;
      noc_config.interval_deadline = 5000ms;
      NocDaemon noc(noc_config);
      noc.start();

      std::vector<std::thread> threads;
      std::vector<MonitorDaemonResult> results(config.monitors);
      std::vector<std::exception_ptr> errors(config.monitors);
      for (std::size_t k = 0; k < config.monitors; ++k) {
        MonitorDaemonConfig mc = monitor_config(
            config, static_cast<NodeId>(k + 1), noc.bound_port());
        mc.io_timeout = 5000ms;
        if (k == 0) {
          mc.wrap_transport = [fail_at](Transport& inner) {
            return std::make_unique<ReportSendFailsOnce>(inner, fail_at);
          };
        }
        threads.emplace_back(run_monitor, std::move(mc),
                             std::ref(results[k]), std::ref(errors[k]));
      }
      std::exception_ptr noc_error;
      ScenarioRun run;
      try {
        run = noc.run();
      } catch (...) {
        noc_error = std::current_exception();
      }
      for (auto& t : threads) t.join();
      for (auto& error : errors) {
        if (error) std::rethrow_exception(error);
      }
      if (noc_error) std::rethrow_exception(noc_error);
      expect_matches_reference(run, reference);
      EXPECT_EQ(run.fused_alarm_intervals, reference.fused_alarm_intervals);
      EXPECT_EQ(results[0].intervals_reported,
                static_cast<std::int64_t>(config.intervals));
    }
  }
}

}  // namespace
}  // namespace spca
