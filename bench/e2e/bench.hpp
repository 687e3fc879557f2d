// Shared vocabulary of the end-to-end pipeline benchmark: workload specs,
// the report every workload fills, span probes around public calls, and the
// trajectory check against the flat SimNetwork reference.
//
// Every probe sits in the benchmark's own loop, around a public call into a
// layer; nothing here reaches inside the library.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/sketch_detector.hpp"
#include "net/scenario.hpp"
#include "rand/projection_source.hpp"

namespace spca::e2e {

enum class WorkloadKind { kSim, kTcp, kReplay };

/// One pinned workload. Every world parameter is a NetScenarioConfig field,
/// so the same world can be replayed through spca_nocd / spca_monitord.
struct Workload {
  std::string name;
  WorkloadKind kind = WorkloadKind::kSim;
  NetScenarioConfig scenario;
  /// Regional NOCs between monitors and root (sim only; 0 = flat).
  std::size_t regions = 0;
  /// Lanes of the global thread pool.
  std::size_t lanes = 1;
  /// Pull share at which intervals_per_s weighs the stale and pull paths:
  /// the seed-7 world's, measured over all of its evaluated intervals.
  double pull_share = 0.0;
  /// Evaluated intervals of each pass: a timed round (sim) and each --trace
  /// pass (sim and TCP).
  std::size_t pass_intervals = 0;
  /// replay-ingest: sub-records per (interval, flow) cell of the export.
  std::uint32_t records_per_cell = 0;
};

/// Command-line options shared by every workload.
struct Options {
  std::uint64_t seed = 7;
  double seconds = 8.0;
  bool trace = false;
  /// Self-test hook: flip one bit of one measured distance before the check.
  bool corrupt = false;
  /// Directory for scratch files (replay-ingest's record file).
  std::string work_dir = ".";
};

/// A `name value unit` line that is not a catalogue metric (sample counts,
/// error_rate).
struct Note {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run reports. Metric units live in the catalogue
/// (main.cpp); a workload only sets values.
struct Report {
  std::map<std::string, double> values;
  std::vector<Note> notes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Set when a self-check of the benchmark itself failed (a probe gap).
  std::string bench_error;

  void set(const std::string& name, double value) { values[name] = value; }
  void note(std::string name, double value, std::string unit) {
    notes.push_back({std::move(name), value, std::move(unit)});
  }
};

Report run_sim(const Workload& w, const Options& opt);
Report run_tcp(const Workload& w, const Options& opt);
Report run_replay(const Workload& w, const Options& opt);

// ---------------------------------------------------------------- timing

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Quantile q in [0, 1] of `samples` (linear interpolation); 0 when empty.
[[nodiscard]] double quantile(std::vector<double> samples, double q);

/// Per-interval latency samples split by path: intervals the stale model
/// cleared, and intervals whose verdict needed a lazy pull.
struct IntervalSamples {
  std::vector<double> stale_ms;
  std::vector<double> pull_ms;

  void add(double ms, bool pulled) {
    (pulled ? pull_ms : stale_ms).push_back(ms);
  }
  [[nodiscard]] double total_ms() const;
  /// Sets the latency metrics (pull_interval_p50_ms, interval_p95_ms over
  /// both paths) and intervals_per_s, and prints stale_interval_p50_ms as
  /// an extra line. The two metrics over both paths weigh them at
  /// `pull_share` (mean latencies for intervals_per_s, samples for the
  /// p95), so how many pulls the timed intervals held does not move them. A median per path, because the median over both lands wherever
  /// the pull share puts it in the stale distribution.
  void report(Report& out, double pull_share) const;
};

/// Peak resident set of this process, MiB (getrusage).
[[nodiscard]] double peak_rss_mib();

// ---------------------------------------------------------------- tracing

/// The layer boundaries the traced loop times. A layer's self time is its
/// span duration minus the spans it encloses.
enum class Layer : std::uint8_t {
  kMonitorIngest,  // LocalMonitor::ingest_volume over the owned flows
  kMonitorClose,   // LocalMonitor::end_interval
  kMonitorEmit,    // LocalMonitor::handle_mail during a pull
  kNocFeed,        // Noc::collect_volumes / assemble_volumes
  kNocRequest,     // Noc::request_sketches
  kNocIngest,      // Noc::ingest_sketch_response and the drain feeding it
  kNocDecide,      // Noc::detect_with_pull, enclosing the pull
  kRefit,          // Noc::refit
  kHierMerge,      // RegionalNoc pump / take_merged_* / forward + its send
  kHierUnwrap,     // the root's take + unwrap_aggregate
  kFuse,           // score take + parse_score_report + FusionEngine::fuse
  kCount,
};

/// Nested span timer. A null Tracer* makes every Probe a no-op, which is
/// how the untraced loop runs the same code.
class Tracer final {
 public:
  struct Totals {
    double self_s = 0.0;
    std::uint64_t calls = 0;
    std::vector<double> call_ms;  // span durations, kept for kRefit only
  };

  void begin(Layer layer);
  void end();

  [[nodiscard]] const Totals& totals(Layer layer) const {
    return totals_[static_cast<std::size_t>(layer)];
  }
  [[nodiscard]] double self_s(Layer layer) const {
    return totals(layer).self_s;
  }
  [[nodiscard]] double self_sum() const;

 private:
  struct Frame {
    Layer layer;
    Clock::time_point start;
    double child_s;
  };
  std::vector<Frame> stack_;
  Totals totals_[static_cast<std::size_t>(Layer::kCount)];
};

/// RAII span around one public call.
class Probe final {
 public:
  Probe(Tracer* tracer, Layer layer) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->begin(layer);
  }
  ~Probe() {
    if (tracer_ != nullptr) tracer_->end();
  }
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

 private:
  Tracer* tracer_;
};

// ---------------------------------------------------------------- checking

/// One measured verdict of an evaluated interval.
struct Verdict {
  std::int64_t t = 0;
  double distance = 0.0;
  bool alarm = false;
  double fused_statistic = 0.0;
  bool fused_alarm = false;
};

/// Runs the flat SimNetwork reference (run_scenario_reference) over the
/// first `intervals` intervals of `scenario` and compares every measured
/// verdict bit for bit: distance bits, alarm flag, and the fused
/// statistic/alarm when fusion is on. Evaluated intervals below `intervals`
/// that were never measured count as failures too. With `corrupt`, one
/// measured distance gets a flipped bit first, the self-test's proof that
/// the check bites. Returns the number of failures.
[[nodiscard]] std::uint64_t check_against_reference(
    const NetScenario& scenario, std::size_t intervals,
    std::vector<Verdict> measured, bool corrupt);

/// The verdicts a ScenarioRun holds for intervals first, first + 1, ...
[[nodiscard]] std::vector<Verdict> verdicts_of(const ScenarioRun& run,
                                               std::int64_t first);

/// The projection source every monitor of a scenario shares.
[[nodiscard]] ProjectionSource projection_of(const SketchDetectorConfig& det);

/// Median of three or more set-up timings.
void report_setup(Report& out, const std::vector<double>& setup_s);

}  // namespace spca::e2e
