// flat-week and hier-200: the monitor -> (region) -> NOC pipeline over a
// SimNetwork, one interval at a time; the trajectory must equal the flat
// reference bit for bit.
//
// flat-week's default mode drives the library's deployment facade,
// DistributedDetector::observe. hier-200 has no such per-interval entry
// point (run_hier_scenario_sim runs a whole world), so it runs SimPipeline:
// the layers' public calls in exactly run_hier_scenario_sim's order. Every
// --trace pass runs SimPipeline too, since only a loop of the benchmark's
// own can put a probe around each call.
#include <functional>
#include <memory>
#include <numeric>
#include <optional>

#include "bench.hpp"
#include "common/error.hpp"
#include "detect/fusion.hpp"
#include "detect/score_codec.hpp"
#include "dist/aggregate.hpp"
#include "dist/distributed_detector.hpp"
#include "dist/local_monitor.hpp"
#include "dist/noc.hpp"
#include "dist/sim_network.hpp"
#include "hier/regional_noc.hpp"
#include "par/thread_pool.hpp"

namespace spca::e2e {

namespace {

/// What one interval produced.
struct Step {
  bool evaluated = false;
  bool pulled = false;
  Verdict verdict;
};

/// One interval in, one verdict out.
class Pipeline {
 public:
  virtual ~Pipeline() = default;
  /// Runs interval t; a non-null `tr` times each layer call.
  virtual Step step(std::int64_t t, Tracer* tr) = 0;
  [[nodiscard]] virtual const NetworkStats& stats() const = 0;
  /// Payload bytes the lazy pulls have moved so far.
  [[nodiscard]] virtual std::uint64_t pull_bytes() const = 0;
  [[nodiscard]] virtual std::size_t monitor_bytes() const = 0;
};

/// The flat deployment as the library runs it. Not traceable: its layer
/// calls happen inside observe().
class FlatDeployment final : public Pipeline {
 public:
  explicit FlatDeployment(const NetScenario& scenario)
      : s_(scenario),
        detector_(scenario.trace.num_flows(), scenario.config.monitors,
                  scenario.detector) {
    if (scenario.config.fusion != "off") {
      FusionConfig config;
      config.rule = parse_fusion_rule(scenario.config.fusion);
      detector_.enable_fusion(config);
    }
  }

  Step step(std::int64_t t, Tracer* tr) override {
    if (tr != nullptr) throw Error("FlatDeployment cannot be traced");
    const std::uint64_t pulls = detector_.noc().sketch_pulls();
    const Detection det =
        detector_.observe(t, s_.trace.row(static_cast<std::size_t>(t)));
    Step step;
    if (!det.ready) return step;
    const FusedDecision& fused = detector_.last_fused();
    step.evaluated = true;
    step.pulled = detector_.noc().sketch_pulls() != pulls;
    step.verdict = {t, det.distance, det.alarm, fused.statistic, fused.alarm};
    return step;
  }

  [[nodiscard]] const NetworkStats& stats() const override {
    return detector_.network_stats();
  }
  [[nodiscard]] std::uint64_t pull_bytes() const override {
    const NetworkStats& s = stats();
    return s.bytes_by_type[static_cast<std::size_t>(
               MessageType::kSketchRequest)] +
           s.bytes_by_type[static_cast<std::size_t>(
               MessageType::kSketchResponse)];
  }
  [[nodiscard]] std::size_t monitor_bytes() const override {
    return detector_.monitor_memory_bytes();
  }

 private:
  const NetScenario& s_;
  DistributedDetector detector_;
};

/// The pipeline as a loop of the benchmark's own, with a probe around every
/// public layer call.
class SimPipeline final : public Pipeline {
 public:
  SimPipeline(const NetScenario& scenario, std::size_t regions)
      : s_(scenario),
        m_(scenario.trace.num_flows()),
        regions_(regions),
        rows_(scenario.detector.sketch_rows),
        noc_(m_, noc_config_from(scenario.detector, /*host_sketches=*/false)) {
    const std::size_t k = scenario.config.monitors;
    const SketchDetectorConfig& det = scenario.detector;
    const ProjectionSource source = projection_of(det);
    std::vector<std::vector<FlowId>> ownership(k);
    for (std::size_t j = 0; j < m_; ++j) {
      ownership[j % k].push_back(static_cast<FlowId>(j));
    }
    monitors_.reserve(k);
    for (std::size_t i = 0; i < k; ++i) {
      const auto id = static_cast<NodeId>(i + 1);
      monitors_.emplace_back(id, ownership[i], det.window, det.epsilon,
                             det.sketch_rows, source);
      if (regions_ > 0) {
        monitors_.back().set_upstream(
            region_node_id(region_of_monitor(k, regions_, id)));
      }
    }
    if (scenario.config.fusion != "off") {
      FusionConfig config;
      config.rule = parse_fusion_rule(scenario.config.fusion);
      fusion_.emplace(config);
      for (LocalMonitor& monitor : monitors_) monitor.enable_first_line();
    }
    for (std::size_t r = 0; r < regions_; ++r) {
      tier_.emplace_back(r, region_monitor_ids(k, regions_, r), rows_);
    }
    children_ =
        regions_ > 0 ? region_node_ids(regions_) : scenario_monitor_ids(k);
  }

  Step step(std::int64_t t, Tracer* tr) override {
    const Vector x = s_.trace.row(static_cast<std::size_t>(t));
    for (LocalMonitor& monitor : monitors_) {
      {
        const Probe p(tr, Layer::kMonitorIngest);
        for (const FlowId flow : monitor.flows()) {
          monitor.ingest_volume(flow, x[flow]);
        }
      }
      const Probe p(tr, Layer::kMonitorClose);
      monitor.end_interval(t, bus_);
    }
    std::vector<MonitorScore> scores;
    const Vector assembled = regions_ > 0 ? collect_hier(t, tr, scores)
                                          : collect_flat(t, tr, scores);

    Step step;
    if (static_cast<std::size_t>(t) + 1 < s_.config.window) {  // warm-up
      if (fusion_) {
        const Probe p(tr, Layer::kFuse);
        (void)fusion_->fuse(t, Detection{}, scores);
      }
      return step;
    }
    const std::function<void()> pull = [&] {
      const std::uint64_t before = bus_.stats().bytes;
      if (regions_ > 0) {
        pull_hier(t, tr);
      } else {
        pull_flat(t, tr);
      }
      pull_bytes_ += bus_.stats().bytes - before;
      step.pulled = true;
    };
    Detection det;
    {
      const Probe p(tr, Layer::kNocDecide);
      det = noc_.detect_with_pull(t, assembled, pull, bus_);
    }
    step.evaluated = true;
    step.verdict.t = t;
    step.verdict.distance = det.distance;
    step.verdict.alarm = det.alarm;
    if (fusion_) {
      const Probe p(tr, Layer::kFuse);
      const FusedDecision fused = fusion_->fuse(t, det, scores);
      step.verdict.fused_statistic = fused.statistic;
      step.verdict.fused_alarm = fused.alarm;
    }
    return step;
  }

  [[nodiscard]] const NetworkStats& stats() const override {
    return bus_.stats();
  }
  [[nodiscard]] std::uint64_t pull_bytes() const override {
    return pull_bytes_;
  }
  [[nodiscard]] std::size_t monitor_bytes() const override {
    std::size_t bytes = 0;
    for (const LocalMonitor& monitor : monitors_) {
      bytes += monitor.memory_bytes();
    }
    return bytes;
  }

 private:
  // Flat: score reports leave the NOC mailbox before collect_volumes, whose
  // drain would otherwise swallow them.
  Vector collect_flat(std::int64_t t, Tracer* tr,
                      std::vector<MonitorScore>& scores) {
    if (fusion_) {
      const Probe p(tr, Layer::kFuse);
      for (const Message& msg : bus_.take(kNocId, MessageType::kScoreReport)) {
        for (const MonitorScore& s : parse_score_report(msg)) {
          scores.push_back(s);
        }
      }
    }
    const Probe p(tr, Layer::kNocFeed);
    return noc_.collect_volumes(t, bus_);
  }

  // Hier: each region merges its shard into one aggregate per payload kind;
  // the root splits them by shape and unwraps through the flat path.
  Vector collect_hier(std::int64_t t, Tracer* tr,
                      std::vector<MonitorScore>& scores) {
    {
      const Probe p(tr, Layer::kHierMerge);
      for (RegionalNoc& region : tier_) {
        region.pump(bus_);
        if (region.reports_ready() != t) {
          throw Error("hier: region reports incomplete");
        }
        bus_.send(region.take_merged_reports(kNocId));
        if (fusion_) {
          if (region.scores_ready() != t) {
            throw Error("hier: region scores incomplete");
          }
          bus_.send(region.take_merged_scores(kNocId));
        }
      }
    }
    std::vector<Message> reports;
    std::vector<Message> score_reports;
    {
      const Probe p(tr, Layer::kHierUnwrap);
      for (const Message& agg : bus_.take(kNocId, MessageType::kAggregate)) {
        if (fusion_ &&
            aggregate_shape_is(agg, MessageType::kScoreReport, rows_)) {
          score_reports.push_back(
              unwrap_aggregate(agg, MessageType::kScoreReport, rows_));
        } else {
          reports.push_back(
              unwrap_aggregate(agg, MessageType::kVolumeReport, rows_));
        }
      }
    }
    if (fusion_) {
      const Probe p(tr, Layer::kFuse);
      for (const Message& msg : score_reports) {
        const auto part = parse_score_report(msg);
        scores.insert(scores.end(), part.begin(), part.end());
      }
    }
    const Probe p(tr, Layer::kNocFeed);
    return noc_.assemble_volumes(t, reports);
  }

  // Noc::detect's pull, one public call per probe.
  void pull_flat(std::int64_t t, Tracer* tr) {
    {
      const Probe p(tr, Layer::kNocRequest);
      noc_.request_sketches(t, children_, bus_);
    }
    {
      const Probe p(tr, Layer::kMonitorEmit);
      for (LocalMonitor& monitor : monitors_) monitor.handle_mail(bus_);
    }
    {
      const Probe p(tr, Layer::kNocIngest);
      for (const Message& msg : bus_.drain(kNocId)) {
        noc_.ingest_sketch_response(msg);
      }
    }
    const Probe p(tr, Layer::kRefit);
    noc_.refit();
  }

  void pull_hier(std::int64_t t, Tracer* tr) {
    {
      const Probe p(tr, Layer::kNocRequest);
      noc_.request_sketches(t, children_, bus_);
    }
    {
      const Probe p(tr, Layer::kHierMerge);
      for (RegionalNoc& region : tier_) {
        region.pump(bus_);
        const auto request = region.take_sketch_request();
        if (request != t) throw Error("hier: sketch request lost");
        region.forward_sketch_request(*request, bus_);
      }
    }
    {
      const Probe p(tr, Layer::kMonitorEmit);
      for (LocalMonitor& monitor : monitors_) monitor.handle_mail(bus_);
    }
    {
      const Probe p(tr, Layer::kHierMerge);
      for (RegionalNoc& region : tier_) {
        region.pump(bus_);
        if (region.responses_ready() != t) {
          throw Error("hier: region responses incomplete");
        }
        bus_.send(region.take_merged_responses(kNocId));
      }
    }
    std::vector<Message> responses;
    {
      const Probe p(tr, Layer::kHierUnwrap);
      for (const Message& agg : bus_.take(kNocId, MessageType::kAggregate)) {
        responses.push_back(
            unwrap_aggregate(agg, MessageType::kSketchResponse, rows_));
      }
    }
    {
      const Probe p(tr, Layer::kNocIngest);
      for (const Message& msg : responses) noc_.ingest_sketch_response(msg);
    }
    const Probe p(tr, Layer::kRefit);
    noc_.refit();
  }

  const NetScenario& s_;
  std::size_t m_;
  std::size_t regions_;
  std::size_t rows_;
  SimNetwork bus_;
  std::vector<LocalMonitor> monitors_;
  std::vector<RegionalNoc> tier_;
  std::vector<NodeId> children_;
  Noc noc_;
  std::optional<FusionEngine> fusion_;
  std::uint64_t pull_bytes_ = 0;
};

/// A built world plus a pipeline that has absorbed the warm-up (the first
/// n - 1 intervals); everything up to here counts as set-up.
struct Setup {
  std::unique_ptr<NetScenario> scenario;
  std::unique_ptr<Pipeline> pipeline;
  double seconds = 0.0;
};

/// Replaces `s` with a fresh set-up, freeing the old world first so two
/// never coexist. `probed` picks SimPipeline even for a flat world.
void set_up(Setup& s, const Workload& w, const Options& opt, bool probed) {
  s.pipeline.reset();
  s.scenario.reset();
  const Clock::time_point start = Clock::now();
  NetScenarioConfig config = w.scenario;
  config.seed = opt.seed;
  s.scenario = std::make_unique<NetScenario>(build_scenario(config));
  if (probed || w.regions > 0) {
    s.pipeline = std::make_unique<SimPipeline>(*s.scenario, w.regions);
  } else {
    s.pipeline = std::make_unique<FlatDeployment>(*s.scenario);
  }
  const auto warm = static_cast<std::int64_t>(config.window) - 1;
  for (std::int64_t t = 0; t < warm; ++t) (void)s.pipeline->step(t, nullptr);
  s.seconds = seconds_between(start, Clock::now());
}

/// What one pass over the evaluated intervals measured.
struct Pass {
  std::vector<double> interval_ms;  // per evaluated interval, in order
  std::vector<bool> pulled;         // likewise: did its verdict pull?
  std::vector<Verdict> verdicts;
  std::size_t end = 0;  // one past the last interval run
  std::uint64_t pulls = 0;
  std::uint64_t alarms = 0;

  [[nodiscard]] double total_ms() const {
    return std::accumulate(interval_ms.begin(), interval_ms.end(), 0.0);
  }
};

/// Runs the first `max_intervals` evaluated intervals from n - 1, or up to
/// the end of the world.
Pass run_pass(const NetScenario& scenario, Pipeline& pipeline, Tracer* tr,
              std::size_t max_intervals) {
  Pass pass;
  const std::size_t first = scenario.config.window - 1;
  const std::size_t end =
      first + std::min(max_intervals, scenario.config.intervals - first);
  for (std::size_t t = first; t < end; ++t) {
    const Clock::time_point start = Clock::now();
    const Step step = pipeline.step(static_cast<std::int64_t>(t), tr);
    pass.interval_ms.push_back(seconds_between(start, Clock::now()) * 1e3);
    pass.pulled.push_back(step.pulled);
    pass.verdicts.push_back(step.verdict);
    pass.pulls += step.pulled ? 1 : 0;
    pass.alarms += step.verdict.alarm ? 1 : 0;
  }
  pass.end = end;
  return pass;
}

/// Each interval's median latency over rounds that ran the same intervals of
/// the same world, so a burst of host load in one round does not show.
IntervalSamples median_over(const std::vector<Pass>& rounds) {
  const Pass& first = rounds.front();
  IntervalSamples out;
  std::vector<double> ms(rounds.size());
  for (std::size_t i = 0; i < first.interval_ms.size(); ++i) {
    for (std::size_t r = 0; r < rounds.size(); ++r) {
      if (rounds[r].pulled[i] != first.pulled[i]) {
        throw Error("rounds of one world disagree on which intervals pulled");
      }
      ms[r] = rounds[r].interval_ms[i];
    }
    out.add(quantile(ms, 0.5), first.pulled[i]);
  }
  return out;
}

constexpr std::size_t kMinSetups = 3;

// The timed phase is rounds of the same first K evaluated intervals, each
// from a fresh set-up, until --seconds of interval time have run. A fixed K
// keeps the work a seed defines independent of the host's speed: a
// time-bounded prefix held more or fewer pulls, and refits of different
// cost, as the host sped up or slowed down.
Report run_default(const Workload& w, const Options& opt) {
  Report out;
  std::vector<double> setup_s;
  std::vector<Pass> rounds;
  std::vector<Verdict> verdicts;
  double timed_s = 0.0;
  std::size_t state_bytes = 0;  // after warm-up
  Setup setup;
  while (rounds.empty() || timed_s < opt.seconds) {
    set_up(setup, w, opt, /*probed=*/false);
    setup_s.push_back(setup.seconds);
    state_bytes = setup.pipeline->monitor_bytes();
    rounds.push_back(run_pass(*setup.scenario, *setup.pipeline, nullptr,
                              w.pass_intervals));
    timed_s += rounds.back().total_ms() / 1e3;
    verdicts.insert(verdicts.end(), rounds.back().verdicts.begin(),
                    rounds.back().verdicts.end());
  }
  const Pass& last = rounds.back();
  out.note("rounds", static_cast<double>(rounds.size()), "count");
  out.set("monitor_state_kib", static_cast<double>(state_bytes) / 1024.0);
  out.set("wire_bytes_per_pull",
          last.pulls == 0 ? 0.0
                          : static_cast<double>(setup.pipeline->pull_bytes()) /
                                static_cast<double>(last.pulls));
  median_over(rounds).report(out, w.pull_share);

  // When fewer rounds filled --seconds, bare set-ups make up the count.
  while (setup_s.size() < kMinSetups) {
    set_up(setup, w, opt, /*probed=*/false);
    setup_s.push_back(setup.seconds);
  }
  report_setup(out, setup_s);
  out.set("peak_rss_mib", peak_rss_mib());

  setup.pipeline.reset();
  out.attempted = verdicts.size();
  out.failed = check_against_reference(*setup.scenario, last.end,
                                       std::move(verdicts), opt.corrupt);
  return out;
}

// --trace: the same evaluated intervals three times over — untraced, traced
// at the workload's lanes, and traced at one lane — each from a fresh set-up.
Report run_traced(const Workload& w, const Options& opt) {
  Report out;
  const std::size_t k = w.pass_intervals;
  std::vector<Verdict> verdicts;
  const auto keep = [&verdicts](const Pass& pass) {
    verdicts.insert(verdicts.end(), pass.verdicts.begin(), pass.verdicts.end());
  };

  Setup setup;
  set_up(setup, w, opt, /*probed=*/true);
  const Pass untraced =
      run_pass(*setup.scenario, *setup.pipeline, nullptr, k);
  keep(untraced);

  set_up(setup, w, opt, /*probed=*/true);
  Tracer tracer;
  const NetworkStats before = setup.pipeline->stats();
  const Pass traced = run_pass(*setup.scenario, *setup.pipeline, &tracer, k);
  keep(traced);
  const NetworkStats after = setup.pipeline->stats();

  set_up(setup, w, opt, /*probed=*/true);
  Tracer serial;
  set_global_threads(1);
  const Pass one_lane = run_pass(*setup.scenario, *setup.pipeline, &serial, k);
  set_global_threads(w.lanes);
  keep(one_lane);
  setup.pipeline.reset();

  const auto intervals = static_cast<double>(traced.interval_ms.size());
  const double m = static_cast<double>(setup.scenario->trace.num_flows());
  const auto flow_us = [&](Layer layer, double per) {
    return per == 0.0 ? 0.0 : tracer.self_s(layer) / per * 1e6;
  };
  const auto pulls = static_cast<double>(traced.pulls);
  out.set("dist.monitor_ingest_s", tracer.self_s(Layer::kMonitorIngest));
  out.set("dist.monitor_close_s", tracer.self_s(Layer::kMonitorClose));
  out.set("dist.monitor_close_us_per_flow",
          flow_us(Layer::kMonitorClose, intervals * m));
  out.set("dist.monitor_emit_s", tracer.self_s(Layer::kMonitorEmit));
  out.set("dist.monitor_emit_us_per_flow",
          flow_us(Layer::kMonitorEmit, pulls * m));
  out.set("dist.noc_feed_s", tracer.self_s(Layer::kNocFeed));
  out.set("dist.noc_request_s", tracer.self_s(Layer::kNocRequest));
  out.set("dist.noc_ingest_s", tracer.self_s(Layer::kNocIngest));
  out.set("dist.noc_decide_self_s", tracer.self_s(Layer::kNocDecide));
  out.set("pca.refit_s", tracer.self_s(Layer::kRefit));
  out.set("pca.refit_p50_ms",
          quantile(tracer.totals(Layer::kRefit).call_ms, 0.5));
  out.set("pca.refits",
          static_cast<double>(tracer.totals(Layer::kRefit).calls));
  out.set("hier.merge_s", tracer.self_s(Layer::kHierMerge));
  out.set("hier.unwrap_s", tracer.self_s(Layer::kHierUnwrap));
  out.set("detect.fuse_s", tracer.self_s(Layer::kFuse));
  out.set("lazy.pulls", pulls);
  out.set("lazy.stale_passes", intervals - pulls);
  out.set("lazy.useful_pull_ratio",
          pulls == 0.0 ? 0.0 : static_cast<double>(traced.alarms) / pulls);
  const auto bytes_of = [&](MessageType type) {
    const auto i = static_cast<std::size_t>(type);
    return static_cast<double>(after.bytes_by_type[i] -
                               before.bytes_by_type[i]) /
           intervals;
  };
  out.set("net.sim_bytes.volume_report", bytes_of(MessageType::kVolumeReport));
  out.set("net.sim_bytes.sketch_request",
          bytes_of(MessageType::kSketchRequest));
  out.set("net.sim_bytes.sketch_response",
          bytes_of(MessageType::kSketchResponse));
  out.set("net.sim_bytes.aggregate", bytes_of(MessageType::kAggregate));
  out.set("net.sim_bytes.score_report", bytes_of(MessageType::kScoreReport));
  const auto speedup = [&](Layer layer) {
    const double lanes_s = tracer.self_s(layer);
    return lanes_s == 0.0 ? 0.0 : serial.self_s(layer) / lanes_s;
  };
  out.set("par.close_speedup", speedup(Layer::kMonitorClose));
  out.set("par.emit_speedup", speedup(Layer::kMonitorEmit));
  out.set("par.refit_speedup", speedup(Layer::kRefit));

  const double traced_s = traced.total_ms() / 1e3;
  const double unaccounted = 1.0 - tracer.self_sum() / traced_s;
  out.set("trace.unaccounted_frac", unaccounted);
  out.set("trace.overhead_frac",
          traced.total_ms() / untraced.total_ms() - 1.0);
  if (unaccounted > 0.05) {
    out.bench_error = "trace.unaccounted_frac above 0.05: a probe is missing";
  }

  out.attempted = verdicts.size();
  out.failed = check_against_reference(*setup.scenario, traced.end,
                                       std::move(verdicts), opt.corrupt);
  return out;
}

}  // namespace

Report run_sim(const Workload& w, const Options& opt) {
  return opt.trace ? run_traced(w, opt) : run_default(w, opt);
}

}  // namespace spca::e2e
