// replay-ingest: one LocalMonitor owning every flow, fed by replay_records
// from a record file exported at set-up — the sketch layer as a bulk writer
// (absorb_block -> add_batch), with no NOC. Every workload must report every
// end-to-end metric, pull_interval_p50_ms and wire_bytes_per_pull included,
// so after the replay the monitor answers a fixed number of sketch pulls:
// emission timed on the same bulk-built state.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>

#include "bench.hpp"
#include "common/error.hpp"
#include "dist/local_monitor.hpp"
#include "dist/sim_network.hpp"
#include "ingest/record_file.hpp"
#include "ingest/replay.hpp"
#include "obs/metrics.hpp"

namespace spca::e2e {

namespace {

constexpr std::size_t kSetups = 3;
constexpr std::size_t kPulls = 64;
constexpr std::size_t kBlock = 8;
constexpr int kParsePasses = 3;

/// The exported record file; removed when the run ends.
class RecordFile final {
 public:
  explicit RecordFile(const Options& opt)
      : path_(opt.work_dir + "/replay-" + std::to_string(opt.seed) + "-" +
              std::to_string(::getpid()) + ".spcr") {}
  ~RecordFile() { std::remove(path_.c_str()); }
  RecordFile(const RecordFile&) = delete;
  RecordFile& operator=(const RecordFile&) = delete;
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Scenario build, record export, and reader open.
double set_up(const Workload& w, const Options& opt, const RecordFile& file,
              std::unique_ptr<NetScenario>& scenario) {
  const Clock::time_point start = Clock::now();
  NetScenarioConfig config = w.scenario;
  config.seed = opt.seed;
  scenario = std::make_unique<NetScenario>(build_scenario(config));
  RecordExportOptions options;
  options.records_per_cell = w.records_per_cell;
  export_records(scenario->trace, file.path(), options);
  const RecordFileReader reader(file.path());
  if (reader.header().num_flows != scenario->trace.num_flows()) {
    throw Error("replay: exported record file has the wrong shape");
  }
  return seconds_between(start, Clock::now());
}

LocalMonitor fresh_monitor(const NetScenario& s) {
  std::vector<FlowId> flows(s.trace.num_flows());
  for (std::size_t j = 0; j < flows.size(); ++j) {
    flows[j] = static_cast<FlowId>(j);
  }
  const SketchDetectorConfig& det = s.detector;
  return LocalMonitor(1, std::move(flows), det.window, det.epsilon,
                      det.sketch_rows, projection_of(det));
}

/// Watches the public spca.ingest.intervals counter from a mostly sleeping
/// thread and logs each step of it (one absorbed block) with its time.
class IntervalSampler final {
 public:
  struct Step {
    Clock::time_point at;
    std::uint64_t intervals;  // absorbed since the sampler started
  };

  IntervalSampler()
      : counter_(MetricsRegistry::global().counter("spca.ingest.intervals")),
        base_(counter_.value()),
        thread_([this] { loop(); }) {}
  ~IntervalSampler() { stop(); }
  IntervalSampler(const IntervalSampler&) = delete;
  IntervalSampler& operator=(const IntervalSampler&) = delete;

  /// Stops sampling and returns the steps seen.
  std::vector<Step> stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    return steps_;
  }

 private:
  void loop() {
    std::uint64_t last = base_;
    while (!stop_.load()) {
      const std::uint64_t value = counter_.value();
      if (value != last) {
        steps_.push_back({Clock::now(), value - base_});
        last = value;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }

  const Counter& counter_;
  std::uint64_t base_;
  std::atomic<bool> stop_{false};
  std::vector<Step> steps_;
  std::thread thread_;  // last: starts after the members it uses
};

/// The replay once the sliding window is full: filling it is cheaper per
/// interval, and how much of a run it takes depends on how many passes fit.
struct SteadyState {
  double intervals_per_s = 0.0;
  std::vector<double> cycle_ms;  // per-interval time of each later block
};

SteadyState steady_state(const std::vector<IntervalSampler::Step>& steps,
                         std::uint64_t window) {
  const auto full =
      std::find_if(steps.begin(), steps.end(), [window](const auto& s) {
        return s.intervals >= window;
      });
  if (full == steps.end() || full + 1 == steps.end()) {
    throw Error("replay: the timed phase ended before the window filled");
  }
  SteadyState out;
  for (auto s = full + 1; s != steps.end(); ++s) {
    out.cycle_ms.push_back(seconds_between((s - 1)->at, s->at) * 1e3 /
                           static_cast<double>(s->intervals -
                                               (s - 1)->intervals));
  }
  out.intervals_per_s =
      static_cast<double>(steps.back().intervals - full->intervals) /
      seconds_between(full->at, steps.back().at);
  return out;
}

/// Serves kPulls sketch pulls from `monitor`; returns their latencies, ms.
std::vector<double> serve_pulls(LocalMonitor& monitor, std::int64_t t,
                                SimNetwork& bus) {
  std::vector<double> ms;
  Message request;
  request.type = MessageType::kSketchRequest;
  request.from = kNocId;
  request.to = monitor.id();
  request.interval = t;
  for (std::size_t i = 0; i < kPulls; ++i) {
    const Clock::time_point start = Clock::now();
    bus.send(request);
    monitor.handle_mail(bus);
    ms.push_back(seconds_between(start, Clock::now()) * 1e3);
    const std::vector<Message> responses = bus.drain(kNocId);
    if (responses.size() != 1 ||
        responses.front().type != MessageType::kSketchResponse) {
      throw Error("replay: pull did not produce one sketch response");
    }
  }
  return ms;
}

/// A parity failure stops the stream at the first divergence and does not
/// say how many intervals were bad, so every replayed interval counts as
/// failed: error_rate reads 1, never a fraction that understates it.
void count_parity(Report& out, const ReplayStats& stats) {
  out.attempted = std::max<std::uint64_t>(stats.intervals, 1);
  out.failed = stats.parity_ok ? 0 : out.attempted;
  if (!stats.parity_ok) {
    std::fprintf(stderr, "replay parity: %s\n", stats.parity_error.c_str());
  }
}

ReplayConfig replay_config(const RecordFile& file, double min_seconds) {
  ReplayConfig config;
  config.record_path = file.path();
  config.interval_block = kBlock;
  config.min_seconds = min_seconds;
  config.check = ReplayCheck::kVolumes;
  return config;
}

Report run_default(const Workload& w, const Options& opt) {
  Report out;
  const RecordFile file(opt);
  std::unique_ptr<NetScenario> scenario;
  std::vector<double> setup_s;
  for (std::size_t i = 0; i < kSetups; ++i) {
    setup_s.push_back(set_up(w, opt, file, scenario));
  }
  report_setup(out, setup_s);

  LocalMonitor monitor = fresh_monitor(*scenario);
  IntervalSampler sampler;
  const ReplayStats stats =
      replay_records(monitor, replay_config(file, opt.seconds));
  const SteadyState steady =
      steady_state(sampler.stop(), scenario->config.window);

  out.set("intervals_per_s", steady.intervals_per_s);
  // A fixed multiple of intervals_per_s, so a line rather than a second
  // metric that could only move with the first.
  out.note("records_per_s",
           steady.intervals_per_s *
               static_cast<double>(scenario->trace.num_flows() *
                                   w.records_per_cell),
           "1/s");
  out.note("stale_interval_p50_ms", quantile(steady.cycle_ms, 0.50), "ms");
  out.set("interval_p95_ms", quantile(steady.cycle_ms, 0.95));
  out.note("interval_samples", static_cast<double>(steady.cycle_ms.size()),
           "count");
  out.set("monitor_state_kib",
          static_cast<double>(monitor.memory_bytes()) / 1024.0);

  SimNetwork bus;
  const std::vector<double> pull_ms = serve_pulls(
      monitor, static_cast<std::int64_t>(stats.intervals) - 1, bus);
  out.set("pull_interval_p50_ms", quantile(pull_ms, 0.50));
  out.note("pull_interval_samples", static_cast<double>(pull_ms.size()),
           "count");
  out.set("wire_bytes_per_pull",
          static_cast<double>(bus.stats().bytes) / static_cast<double>(kPulls));
  out.set("peak_rss_mib", peak_rss_mib());

  out.note("passes", static_cast<double>(stats.passes), "count");
  count_parity(out, stats);
  return out;
}

// --trace: each stage of the ingest path timed on its own.
Report run_traced(const Workload& w, const Options& opt) {
  Report out;
  const RecordFile file(opt);
  std::unique_ptr<NetScenario> scenario;
  (void)set_up(w, opt, file, scenario);

  // Reader alone: RecordFileReader::next_batch over the whole file.
  std::uint64_t records = 0;
  const Clock::time_point parse_start = Clock::now();
  for (int pass = 0; pass < kParsePasses; ++pass) {
    RecordFileReader reader(file.path());
    RecordBatch batch;
    while (reader.next_batch(batch) > 0) records += batch.count;
  }
  out.set("ingest.parse_records_per_s",
          static_cast<double>(records) /
              seconds_between(parse_start, Clock::now()));

  // Sketch writes alone: absorb_block in blocks of kBlock over the
  // pre-aggregated matrix.
  {
    const TraceSet golden = import_records(file.path());
    LocalMonitor monitor = fresh_monitor(*scenario);
    const std::size_t ni = golden.num_intervals();
    const std::size_t m = golden.num_flows();
    const Clock::time_point start = Clock::now();
    for (std::size_t first = 0; first < ni; first += kBlock) {
      const std::size_t count = std::min(kBlock, ni - first);
      monitor.absorb_block(
          static_cast<std::int64_t>(first), count,
          std::span<const double>(golden.volumes().row_span(first).data(),
                                  count * m));
    }
    out.set("sketch.absorb_intervals_per_s",
            static_cast<double>(ni) / seconds_between(start, Clock::now()));
  }

  // The pipeline for one pass, then the pulls.
  LocalMonitor monitor = fresh_monitor(*scenario);
  const ReplayStats stats = replay_records(monitor, replay_config(file, 0.0));
  out.set("ingest.producer_block_ratio",
          stats.batches == 0 ? 0.0
                             : static_cast<double>(stats.producer_blocks) /
                                   static_cast<double>(stats.batches));
  SimNetwork bus;
  const std::vector<double> pull_ms = serve_pulls(
      monitor, static_cast<std::int64_t>(stats.intervals) - 1, bus);
  double emit_ms = 0.0;
  for (const double ms : pull_ms) emit_ms += ms;
  out.set("dist.monitor_emit_s", emit_ms / 1e3);
  out.set("dist.monitor_emit_us_per_flow",
          emit_ms * 1e3 / static_cast<double>(kPulls * monitor.flows().size()));

  count_parity(out, stats);
  return out;
}

}  // namespace

Report run_replay(const Workload& w, const Options& opt) {
  if (opt.corrupt) {
    throw InputError("--corrupt needs a workload with a detection trajectory");
  }
  return opt.trace ? run_traced(w, opt) : run_default(w, opt);
}

}  // namespace spca::e2e
