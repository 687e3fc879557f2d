#include <sys/resource.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <set>
#include <utility>

#include "bench.hpp"
#include "common/error.hpp"

namespace spca::e2e {

namespace {

double mean(const std::vector<double>& samples) {
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

/// Quantile q of the mix that draws a pull interval with probability
/// `pull_share`: the pull samples together weigh `pull_share`, the stale
/// ones the rest. Both paths must have samples.
double mix_quantile(const std::vector<double>& stale,
                    const std::vector<double>& pull, double pull_share,
                    double q) {
  std::vector<std::pair<double, double>> weighted;  // (ms, weight)
  weighted.reserve(stale.size() + pull.size());
  for (const double ms : stale) {
    weighted.emplace_back(ms, (1.0 - pull_share) /
                                  static_cast<double>(stale.size()));
  }
  for (const double ms : pull) {
    weighted.emplace_back(ms, pull_share / static_cast<double>(pull.size()));
  }
  std::sort(weighted.begin(), weighted.end());
  double cumulative = 0.0;
  for (const auto& [ms, weight] : weighted) {
    cumulative += weight;
    if (cumulative >= q) return ms;
  }
  return weighted.back().first;
}

}  // namespace

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double IntervalSamples::total_ms() const {
  return std::accumulate(stale_ms.begin(), stale_ms.end(), 0.0) +
         std::accumulate(pull_ms.begin(), pull_ms.end(), 0.0);
}

void IntervalSamples::report(Report& out, double pull_share) const {
  std::vector<double> all = stale_ms;
  all.insert(all.end(), pull_ms.begin(), pull_ms.end());
  if (all.empty()) throw Error("no interval completed in the timed phase");
  // A path without samples (a short smoke run that never pulled again after
  // the first fit) falls back to the overall mean.
  const double stale = stale_ms.empty() ? mean(all) : mean(stale_ms);
  const double pull = pull_ms.empty() ? mean(all) : mean(pull_ms);
  const double interval_ms = (1.0 - pull_share) * stale + pull_share * pull;
  out.set("intervals_per_s", 1e3 / interval_ms);
  out.note("stale_interval_p50_ms",
           quantile(stale_ms.empty() ? all : stale_ms, 0.50), "ms");
  out.set("interval_p95_ms",
          stale_ms.empty() || pull_ms.empty()
              ? quantile(all, 0.95)
              : mix_quantile(stale_ms, pull_ms, pull_share, 0.95));
  out.set("pull_interval_p50_ms", quantile(pull_ms, 0.50));
  out.note("stale_interval_samples", static_cast<double>(stale_ms.size()),
           "count");
  out.note("pull_interval_samples", static_cast<double>(pull_ms.size()),
           "count");
  out.note("interval_samples", static_cast<double>(all.size()), "count");
  out.note("measured_pull_share",
           static_cast<double>(pull_ms.size()) /
               static_cast<double>(all.size()),
           "frac");
  out.note("pinned_pull_share", pull_share, "frac");
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Tracer::begin(Layer layer) {
  stack_.push_back(Frame{layer, Clock::now(), 0.0});
}

void Tracer::end() {
  const Frame frame = stack_.back();
  stack_.pop_back();
  const double span_s = seconds_between(frame.start, Clock::now());
  Totals& totals = totals_[static_cast<std::size_t>(frame.layer)];
  totals.self_s += span_s - frame.child_s;
  ++totals.calls;
  if (frame.layer == Layer::kRefit) totals.call_ms.push_back(span_s * 1e3);
  if (!stack_.empty()) stack_.back().child_s += span_s;
}

double Tracer::self_sum() const {
  double sum = 0.0;
  for (const Totals& t : totals_) sum += t.self_s;
  return sum;
}

std::vector<Verdict> verdicts_of(const ScenarioRun& run, std::int64_t first) {
  const std::set<std::int64_t> alarms(run.alarm_intervals.begin(),
                                      run.alarm_intervals.end());
  const std::set<std::int64_t> fused_alarms(run.fused_alarm_intervals.begin(),
                                            run.fused_alarm_intervals.end());
  std::vector<Verdict> out;
  out.reserve(run.distances.size());
  for (std::size_t i = 0; i < run.distances.size(); ++i) {
    Verdict v;
    v.t = first + static_cast<std::int64_t>(i);
    v.distance = run.distances[i];
    v.alarm = alarms.count(v.t) != 0;
    if (i < run.fused_statistics.size()) {
      v.fused_statistic = run.fused_statistics[i];
    }
    v.fused_alarm = fused_alarms.count(v.t) != 0;
    out.push_back(v);
  }
  return out;
}

std::uint64_t check_against_reference(const NetScenario& scenario,
                                      std::size_t intervals,
                                      std::vector<Verdict> measured,
                                      bool corrupt) {
  const std::size_t m = scenario.trace.num_flows();
  const std::size_t n = scenario.config.window;
  if (intervals < n) return measured.size();  // nothing was evaluated

  // The reference world is the scenario cut at `intervals`: the rows the
  // measured run saw, unchanged, so its trajectory is the reference prefix.
  Matrix rows(intervals, m);
  for (std::size_t t = 0; t < intervals; ++t) {
    for (std::size_t j = 0; j < m; ++j) {
      rows(t, j) = scenario.trace.volumes()(t, j);
    }
  }
  NetScenario cut{scenario.config,
                  TraceSet(std::move(rows), scenario.trace.interval_seconds(),
                           scenario.trace.flow_names()),
                  scenario.detector};
  cut.config.intervals = intervals;
  const auto first = static_cast<std::int64_t>(n) - 1;
  const std::vector<Verdict> reference =
      verdicts_of(run_scenario_reference(cut), first);
  const bool fusion = scenario.config.fusion != "off";

  if (corrupt && !measured.empty()) {
    double& d = measured[measured.size() / 2].distance;
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    bits ^= 1;
    std::memcpy(&d, &bits, sizeof bits);
  }

  const auto same_bits = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof a) == 0;
  };
  std::uint64_t failed = 0;
  std::vector<bool> seen(reference.size(), false);
  for (const Verdict& v : measured) {
    const std::int64_t i = v.t - first;
    if (i < 0 || i >= static_cast<std::int64_t>(reference.size())) {
      ++failed;
      continue;
    }
    const Verdict& want = reference[static_cast<std::size_t>(i)];
    seen[static_cast<std::size_t>(i)] = true;
    const bool ok =
        same_bits(v.distance, want.distance) && v.alarm == want.alarm &&
        (!fusion || (same_bits(v.fused_statistic, want.fused_statistic) &&
                     v.fused_alarm == want.fused_alarm));
    if (!ok) ++failed;
  }
  failed += static_cast<std::uint64_t>(
      std::count(seen.begin(), seen.end(), false));
  return failed;
}

ProjectionSource projection_of(const SketchDetectorConfig& det) {
  return det.projection == ProjectionKind::kVerySparse
             ? ProjectionSource::very_sparse(det.seed, det.window)
             : ProjectionSource(det.projection, det.seed, det.sparsity);
}

void report_setup(Report& out, const std::vector<double>& setup_s) {
  out.set("setup_s", quantile(setup_s, 0.5));
  out.note("setup_samples", static_cast<double>(setup_s.size()), "count");
}

}  // namespace spca::e2e
