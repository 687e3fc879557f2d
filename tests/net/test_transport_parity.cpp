// The transport override of the single-process reference: handing
// run_scenario_reference an explicit SimNetwork must be indistinguishable
// from its built-in one. (Sim-vs-TCP parity over real sockets is checked
// by the daemon loopback tests.)
#include <gtest/gtest.h>

#include "dist/sim_network.hpp"
#include "net/scenario.hpp"

namespace spca {
namespace {

NetScenarioConfig small_scenario() {
  NetScenarioConfig config;
  config.topology = "diamond";
  config.intervals = 48;
  config.window = 16;
  config.sketch_rows = 8;
  config.monitors = 2;
  config.seed = 7;
  config.anomalies = 3;
  return config;
}

TEST(TransportParity, ExplicitSimNetworkMatchesDefaultTransport) {
  // run_scenario_reference(nullptr) constructs its own SimNetwork; passing
  // one explicitly must be indistinguishable.
  const NetScenario scenario = build_scenario(small_scenario());
  const ScenarioRun implicit = run_scenario_reference(scenario, nullptr);
  SimNetwork network;
  const ScenarioRun explicit_run = run_scenario_reference(scenario, &network);
  EXPECT_EQ(explicit_run.alarm_intervals, implicit.alarm_intervals);
  EXPECT_EQ(explicit_run.distances, implicit.distances);
  EXPECT_TRUE(explicit_run.stats == implicit.stats);
}

}  // namespace
}  // namespace spca
