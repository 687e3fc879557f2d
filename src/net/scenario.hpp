// Shared deterministic deployment scenario for the socket daemons and the
// transport parity tests.
//
// The monitor and NOC daemons run in separate processes, yet the loopback
// e2e check demands that their joint trajectory is bit-identical to a
// single-process SimNetwork run. That only works if every process derives
// the exact same world — topology, synthetic trace, flow ownership, and
// detector parameters — from the same small config. This module is that
// single source of truth: spca_monitord, spca_nocd, the examples, and the
// tests all call build_scenario() with the same flags and agree by
// construction.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "core/sketch_detector.hpp"
#include "dist/message.hpp"
#include "net/transport.hpp"
#include "traffic/flow.hpp"
#include "traffic/trace.hpp"

namespace spca {

/// Parameters every process of a deployment must agree on.
struct NetScenarioConfig {
  /// "diamond" (4 routers, 16 OD flows), "abilene" (9 routers, 81 flows),
  /// or "synth<N>" (N-router chorded ring, N^2 flows — scale-out runs).
  std::string topology = "diamond";
  /// Total measurement intervals to replay.
  std::size_t intervals = 96;
  /// Sliding-window length n (also the warm-up length).
  std::size_t window = 24;
  /// Sketch length l.
  std::size_t sketch_rows = 12;
  /// Number of monitor processes (flow j belongs to monitor 1 + j % k).
  std::size_t monitors = 2;
  /// Seed of both the traffic generator and the projection source.
  std::uint64_t seed = 7;
  /// Labelled anomaly episodes injected after warm-up.
  std::size_t anomalies = 4;
  /// Model-fitting strategy of the NOC refit: exact | warm.
  std::string model_backend = "warm";
  /// Fusion rule of the ensemble detection plane: off | any | all |
  /// weighted. Anything but "off" makes every monitor run the first-line
  /// scorer and ship kScoreReports, and the NOC fuse them with the
  /// sketch-PCA verdict. Off by default so the wire profile of existing
  /// deployments is unchanged.
  std::string fusion = "off";
};

/// A fully materialized scenario.
struct NetScenario {
  NetScenarioConfig config;
  TraceSet trace;
  SketchDetectorConfig detector;
};

/// Builds the deterministic scenario (same config in any process -> same
/// trace and detector parameters, bit for bit).
[[nodiscard]] NetScenario build_scenario(const NetScenarioConfig& config);

/// The flows owned by the monitor with NodeId `monitor` (1-based; matches
/// DistributedDetector's round-robin: flow j -> monitor 1 + j % k).
[[nodiscard]] std::vector<FlowId> scenario_flows_of(std::size_t num_flows,
                                                    std::size_t num_monitors,
                                                    NodeId monitor);

/// The monitor NodeIds of a deployment: 1..k (the NOC is kNocId = 0).
[[nodiscard]] std::vector<NodeId> scenario_monitor_ids(
    std::size_t num_monitors);

/// One deployment trajectory, in replay order.
struct ScenarioRun {
  /// Intervals whose detection raised an alarm.
  std::vector<std::int64_t> alarm_intervals;
  /// Anomaly distance of every post-warm-up interval.
  std::vector<double> distances;
  /// Fusion trajectory (empty when the scenario runs with fusion "off"):
  /// intervals whose fused ensemble verdict alarmed, and the fused
  /// statistic of every post-warm-up interval. Part of the trajectory the
  /// parity checks compare, so a TCP deployment must fuse bit-identically
  /// to the simulation.
  std::vector<std::int64_t> fused_alarm_intervals;
  std::vector<double> fused_statistics;
  /// Send-side wire accounting.
  NetworkStats stats;
};

/// Runs the scenario single-process over the given transport (SimNetwork by
/// default) and returns the trajectory — the reference the daemons'
/// loopback e2e must reproduce bit-for-bit.
[[nodiscard]] ScenarioRun run_scenario_reference(const NetScenario& scenario,
                                                 Transport* transport =
                                                     nullptr);

/// Declares the shared scenario flags (--topology, --intervals, --window,
/// --sketch-rows, --monitors, --seed, --anomalies, --model-backend,
/// --fusion) on `flags`.
void define_scenario_flags(CliFlags& flags);

/// Reads the scenario flags back; throws InputError on invalid values.
[[nodiscard]] NetScenarioConfig scenario_from_flags(const CliFlags& flags);

}  // namespace spca
