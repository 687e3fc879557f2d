// Loopback end-to-end of the 2-level hierarchy: a root NocDaemon, a tier of
// RegionalDaemons, and the shard monitors as real TcpTransport endpoints on
// 127.0.0.1 must reproduce the flat SimNetwork reference bit for bit,
// survive a regional NOC kill + restart mid-run via the SPCR snapshot,
// refuse dials once finished, and serve the regional status endpoint live.
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <exception>
#include <filesystem>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "dist/aggregate.hpp"
#include "hier/hier_scenario.hpp"
#include "hier/regional_daemon.hpp"
#include "net/monitor_daemon.hpp"
#include "net/noc_daemon.hpp"
#include "net/scenario.hpp"
#include "net/socket.hpp"

namespace spca {
namespace {

using namespace std::chrono_literals;

constexpr std::size_t kRegions = 2;

NetScenarioConfig small_scenario() {
  NetScenarioConfig config;
  config.topology = "diamond";
  config.intervals = 40;
  config.window = 12;
  config.sketch_rows = 8;
  config.monitors = 4;
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

RegionalDaemonConfig region_config(const NetScenarioConfig& scenario,
                                   std::size_t region,
                                   std::uint16_t root_port) {
  RegionalDaemonConfig config;
  config.scenario = scenario;
  config.regions = kRegions;
  config.region = region;
  config.listen_port = 0;
  config.root_host = "127.0.0.1";
  config.root_port = root_port;
  config.retry = fast_retry();
  config.io_timeout = 20000ms;
  config.interval_deadline = 30000ms;
  return config;
}

MonitorDaemonConfig monitor_config(const NetScenarioConfig& scenario,
                                   NodeId id, std::uint16_t region_port) {
  MonitorDaemonConfig config;
  config.scenario = scenario;
  config.monitor_id = id;
  config.noc_host = "127.0.0.1";
  config.noc_port = region_port;
  config.upstream_id = region_node_id(
      region_of_monitor(scenario.monitors, kRegions, id));
  config.retry = fast_retry();
  config.io_timeout = 20000ms;
  return config;
}

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
  if (!reference.distances.empty()) {
    EXPECT_EQ(std::memcmp(run.distances.data(), reference.distances.data(),
                          reference.distances.size() * sizeof(double)),
              0);
  }
}

/// The moving parts of one loopback hierarchy below the root: the regional
/// daemons (started, ports bound) and one thread per monitor.
struct Tier {
  std::vector<std::unique_ptr<RegionalDaemon>> regions;
  std::vector<std::uint16_t> region_ports;
  std::vector<std::thread> threads;
  std::vector<RegionalDaemonResult> region_results;
  std::vector<MonitorDaemonResult> monitor_results;
  std::vector<std::exception_ptr> errors;

  void join_and_rethrow() {
    for (std::thread& t : threads) t.join();
    for (const std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }
  }
};

/// Starts kRegions regional daemons against `root_port`, then the monitor
/// threads dialing them. `mutate_region` can adjust a region's config (kill
/// schedules, status ports) before the daemon starts. `tier` is an
/// out-param (not a return value) because the spawned threads hold
/// references into it.
void start_tier(
    Tier& tier, const NetScenarioConfig& config, std::uint16_t root_port,
    const std::function<void(RegionalDaemonConfig&)>& mutate_region = {}) {
  tier.region_results.resize(kRegions);
  tier.monitor_results.resize(config.monitors);
  tier.errors.resize(kRegions + config.monitors);

  for (std::size_t r = 0; r < kRegions; ++r) {
    RegionalDaemonConfig rc = region_config(config, r, root_port);
    if (mutate_region) mutate_region(rc);
    tier.regions.push_back(std::make_unique<RegionalDaemon>(rc));
    tier.regions.back()->start();
    tier.region_ports.push_back(tier.regions.back()->bound_port());
  }
  for (std::size_t r = 0; r < kRegions; ++r) {
    RegionalDaemon* daemon = tier.regions[r].get();
    tier.threads.emplace_back([daemon, r, &tier] {
      try {
        tier.region_results[r] = daemon->run();
      } catch (...) {
        tier.errors[r] = std::current_exception();
      }
    });
  }
  for (std::size_t k = 0; k < config.monitors; ++k) {
    const NodeId id = static_cast<NodeId>(k + 1);
    const std::uint16_t port =
        tier.region_ports[region_of_monitor(config.monitors, kRegions, id)];
    tier.threads.emplace_back(run_monitor, monitor_config(config, id, port),
                              std::ref(tier.monitor_results[k]),
                              std::ref(tier.errors[kRegions + k]));
  }
}

TEST(HierDaemons, TwoLevelLoopbackMatchesTheFlatSimReferenceBitForBit) {
  const NetScenarioConfig config = small_scenario();
  const NetScenario scenario = build_scenario(config);
  const ScenarioRun reference = run_scenario_reference(scenario);

  NocDaemonConfig noc_config;
  noc_config.scenario = config;
  noc_config.listen_port = 0;
  noc_config.regions = kRegions;
  noc_config.interval_deadline = 30000ms;
  NocDaemon noc(noc_config);
  noc.start();

  Tier tier;
  start_tier(tier, config, noc.bound_port());
  const ScenarioRun run = noc.run();
  tier.join_and_rethrow();

  expect_matches_reference(run, reference);
  EXPECT_EQ(noc.reconnects(), 0u);

  // Every region relayed the whole scenario and actually merged: one
  // aggregate per interval plus one per sketch pull.
  for (std::size_t r = 0; r < kRegions; ++r) {
    EXPECT_EQ(tier.region_results[r].next_interval,
              static_cast<std::int64_t>(config.intervals));
    EXPECT_GT(tier.region_results[r].merges, config.intervals);
    EXPECT_FALSE(tier.region_results[r].restored_from_checkpoint);
  }
  for (const MonitorDaemonResult& result : tier.monitor_results) {
    EXPECT_EQ(result.intervals_reported,
              static_cast<std::int64_t>(config.intervals));
  }

  // Deployment-wide per-level accounting: the monitor tier's sends are the
  // flat deployment's upstream messages, the region tier's sends are the
  // aggregates, and the whole tree's request fan-out is consistent.
  NetworkStats total = run.stats;
  for (const RegionalDaemonResult& r : tier.region_results) total += r.stats;
  for (const MonitorDaemonResult& m : tier.monitor_results) total += m.stats;
  const HierWireAccounting acc = hier_wire_accounting(total);
  ASSERT_EQ(acc.region_to_root_messages % kRegions, 0u);
  const std::uint64_t pulls =
      acc.region_to_root_messages / kRegions - config.intervals;
  EXPECT_EQ(acc.monitor_to_region_messages,
            config.monitors * (config.intervals + pulls));
  EXPECT_EQ(acc.request_messages, pulls * (kRegions + config.monitors));
}

TEST(HierDaemons, FinishedRegionRefusesNewConnections) {
  // Once a region's run() returns, a monitor's redial must not reach that
  // incarnation, even though the object lives on.
  const NetScenarioConfig config = small_scenario();
  NocDaemonConfig noc_config;
  noc_config.scenario = config;
  noc_config.regions = kRegions;
  noc_config.interval_deadline = 30000ms;
  NocDaemon noc(noc_config);
  noc.start();

  Tier tier;
  start_tier(tier, config, noc.bound_port());
  (void)noc.run();
  tier.join_and_rethrow();

  for (std::size_t r = 0; r < kRegions; ++r) {
    EXPECT_THROW(
        (void)TcpStream::connect("127.0.0.1", tier.region_ports[r], 1000ms),
        TransportError)
        << "region " << r;
    EXPECT_EQ(tier.regions[r]->bound_port(), tier.region_ports[r]);
    EXPECT_EQ(tier.region_results[r].next_interval,
              static_cast<std::int64_t>(config.intervals));
  }
}

TEST(HierDaemons, RegionalKillAndRestartRecoversBitIdentically) {
  const NetScenarioConfig config = small_scenario();
  const NetScenario scenario = build_scenario(config);
  const ScenarioRun reference = run_scenario_reference(scenario);

  // Kill point: past warm-up, so sketch pulls have happened through the
  // dying incarnation.
  const auto kill_at = static_cast<std::int64_t>(config.window + 6);
  const std::string checkpoint_dir =
      (std::filesystem::temp_directory_path() / "spca_hier_region_kill")
          .string();
  std::filesystem::remove_all(checkpoint_dir);

  NocDaemonConfig noc_config;
  noc_config.scenario = config;
  noc_config.listen_port = 0;
  noc_config.regions = kRegions;
  noc_config.interval_deadline = 30000ms;
  NocDaemon noc(noc_config);
  noc.start();
  const std::uint16_t root_port = noc.bound_port();

  // Region 0's first incarnation winds down cleanly after relaying
  // intervals < kill_at; its snapshot seeds the second incarnation on the
  // same port, which the shard's monitors redial transparently.
  Tier tier;
  start_tier(tier, config, root_port,
             [&](RegionalDaemonConfig& rc) {
               if (rc.region != 0) return;
               rc.checkpoint_dir = checkpoint_dir;
               rc.checkpoint_every = 4;
               rc.last_interval = kill_at;
             });

  RegionalDaemonResult reborn_result;
  std::exception_ptr reborn_error;
  std::thread reborn([&] {
    try {
      // Wait for the first incarnation to finish, then tear it down (which
      // frees the listen port) and take over on the same port.
      tier.threads[0].join();
      tier.regions[0].reset();
      RegionalDaemonConfig rc = region_config(config, 0, root_port);
      rc.listen_port = tier.region_ports[0];
      rc.checkpoint_dir = checkpoint_dir;
      rc.checkpoint_every = 4;
      RegionalDaemon daemon(rc);
      daemon.start();
      reborn_result = daemon.run();
    } catch (...) {
      reborn_error = std::current_exception();
    }
  });

  const ScenarioRun run = noc.run();
  reborn.join();
  for (std::size_t i = 1; i < tier.threads.size(); ++i) {
    tier.threads[i].join();
  }
  for (const std::exception_ptr& e : tier.errors) {
    if (e) std::rethrow_exception(e);
  }
  if (reborn_error) std::rethrow_exception(reborn_error);

  // The trajectory is unchanged by the kill/restart...
  expect_matches_reference(run, reference);
  // ...the second incarnation resumed from the SPCR snapshot where the
  // first stopped...
  EXPECT_TRUE(reborn_result.restored_from_checkpoint);
  EXPECT_EQ(tier.region_results[0].next_interval, kill_at);
  EXPECT_EQ(reborn_result.next_interval,
            static_cast<std::int64_t>(config.intervals));
  // ...and the untouched region never noticed.
  EXPECT_EQ(tier.region_results[1].next_interval,
            static_cast<std::int64_t>(config.intervals));
  EXPECT_FALSE(tier.region_results[1].restored_from_checkpoint);

  std::filesystem::remove_all(checkpoint_dir);
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

TEST(HierDaemons, RegionalStatusEndpointServesLiveWithoutPerturbation) {
  const NetScenarioConfig config = small_scenario();
  const NetScenario scenario = build_scenario(config);
  const ScenarioRun reference = run_scenario_reference(scenario);

  NocDaemonConfig noc_config;
  noc_config.scenario = config;
  noc_config.listen_port = 0;
  noc_config.regions = kRegions;
  noc_config.interval_deadline = 30000ms;
  NocDaemon noc(noc_config);
  noc.start();

  std::promise<int> port_promise;
  Tier tier;
  start_tier(tier, config, noc.bound_port(),
             [&](RegionalDaemonConfig& rc) {
               if (rc.region != 0) return;
               rc.status_port = 0;
               rc.on_status_port = [&port_promise](int port) {
                 port_promise.set_value(port);
               };
             });

  std::string healthz, metrics_json;
  std::thread scraper([&] {
    std::future<int> port = port_promise.get_future();
    if (port.wait_for(30s) != std::future_status::ready) return;
    const int p = port.get();
    healthz = http_get(p, "/healthz");
    metrics_json = http_get(p, "/metrics.json");
  });

  const ScenarioRun run = noc.run();
  tier.join_and_rethrow();
  scraper.join();

  expect_matches_reference(run, reference);
  EXPECT_NE(healthz.find("\"role\":\"region\""), std::string::npos);
  EXPECT_NE(healthz.find("\"region\":0"), std::string::npos);
  EXPECT_NE(metrics_json.find("HTTP/1.0 200 OK"), std::string::npos);
}

}  // namespace
}  // namespace spca
