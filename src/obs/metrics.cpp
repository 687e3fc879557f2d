#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "obs/jsonl.hpp"
#include "obs/metric_catalog.hpp"

namespace spca {

namespace {

constexpr double kEmptyMin = std::numeric_limits<double>::infinity();
constexpr double kEmptyMax = -std::numeric_limits<double>::infinity();

void atomic_store_min(std::atomic<double>& target, double value) noexcept {
  double current = target.load(std::memory_order_relaxed);
  while (value < current &&
         !target.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
  }
}

void atomic_store_max(std::atomic<double>& target, double value) noexcept {
  double current = target.load(std::memory_order_relaxed);
  while (value > current &&
         !target.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
  }
}

/// Prometheus metric names allow [a-zA-Z0-9_:] only; everything else
/// (notably the '.' separators of spca.* names) maps to '_'.
[[nodiscard]] std::string prometheus_name(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  if (!out.empty() && out[0] >= '0' && out[0] <= '9') out.insert(0, 1, '_');
  return out;
}

void append_prometheus_header(std::string& out, const std::string& name,
                              const std::string& exposition_name,
                              const char* type) {
  if (const MetricInfo* info = find_metric(name); info != nullptr) {
    out += "# HELP " + exposition_name + ' ' + info->help + '\n';
  }
  out += "# TYPE " + exposition_name + ' ' + type + '\n';
}

}  // namespace

void Histogram::record(double value) noexcept {
  count_.fetch_add(1, std::memory_order_relaxed);
  detail::atomic_add(sum_, value);
  atomic_store_min(min_, value);
  atomic_store_max(max_, value);
  buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
}

double Histogram::min() const noexcept {
  if (count() == 0) return 0.0;
  const double v = min_.load(std::memory_order_relaxed);
  return std::isfinite(v) ? v : 0.0;
}

double Histogram::max() const noexcept {
  if (count() == 0) return 0.0;
  const double v = max_.load(std::memory_order_relaxed);
  return std::isfinite(v) ? v : 0.0;
}

std::size_t Histogram::bucket_index(double value) noexcept {
  if (!(value > kMinTracked)) return 0;
  // value / kMinTracked can overflow to infinity for huge values; compare in
  // floating point before the integer cast (casting inf is undefined).
  const double scaled = std::log2(value / kMinTracked) *
                        static_cast<double>(kBucketsPerOctave);
  if (!(scaled < static_cast<double>(kBucketCount - 1))) {
    return kBucketCount - 1;
  }
  return static_cast<std::size_t>(scaled);
}

double Histogram::quantile(double q) const noexcept {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  if (q <= 0.0) return min();
  if (q >= 1.0) return max();
  const auto target = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n))));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    cumulative += buckets_[i].load(std::memory_order_relaxed);
    if (cumulative >= target) {
      // Geometric midpoint of the bucket, clamped to the observed range.
      const double mid =
          kMinTracked *
          std::exp2((static_cast<double>(i) + 0.5) /
                    static_cast<double>(kBucketsPerOctave));
      return std::clamp(mid, min(), max());
    }
  }
  return max();
}

void Histogram::reset() noexcept {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(kEmptyMin, std::memory_order_relaxed);
  max_.store(kEmptyMax, std::memory_order_relaxed);
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

Counter& MetricsRegistry::counter(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

void MetricsRegistry::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

std::string MetricsRegistry::render_text() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  for (const auto& [name, c] : counters_) {
    out += name + " count=" + std::to_string(c->value()) + '\n';
  }
  for (const auto& [name, g] : gauges_) {
    out += name + " value=";
    append_json_number(out, g->value());
    out += '\n';
  }
  for (const auto& [name, h] : histograms_) {
    out += name + " count=" + std::to_string(h->count());
    const std::pair<const char*, double> stats[] = {
        {"sum", h->sum()},          {"min", h->min()},
        {"p50", h->quantile(0.50)}, {"p95", h->quantile(0.95)},
        {"p99", h->quantile(0.99)}, {"max", h->max()}};
    for (const auto& [stat, value] : stats) {
      out += ' ' + std::string(stat) + '=';
      append_json_number(out, value);
    }
    out += '\n';
  }
  return out;
}

std::string MetricsRegistry::render_json() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ':' + std::to_string(c->value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ':';
    append_json_number(out, g->value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ":{\"count\":" + std::to_string(h->count()) + ",\"sum\":";
    append_json_number(out, h->sum());
    const std::pair<const char*, double> stats[] = {
        {"mean", h->mean()},        {"min", h->min()},
        {"p50", h->quantile(0.50)}, {"p90", h->quantile(0.90)},
        {"p95", h->quantile(0.95)}, {"p99", h->quantile(0.99)},
        {"max", h->max()}};
    for (const auto& [stat, value] : stats) {
      out += ",\"" + std::string(stat) + "\":";
      // `null` while empty: 0.0 would read as a real observation.
      if (h->count() == 0) {
        out += "null";
      } else {
        append_json_number(out, value);
      }
    }
    out += '}';
  }
  out += "}}";
  return out;
}

std::string MetricsRegistry::render_prometheus() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  for (const auto& [name, c] : counters_) {
    const std::string exposition = prometheus_name(name);
    append_prometheus_header(out, name, exposition, "counter");
    out += exposition + ' ' + std::to_string(c->value()) + '\n';
  }
  for (const auto& [name, g] : gauges_) {
    const std::string exposition = prometheus_name(name);
    append_prometheus_header(out, name, exposition, "gauge");
    out += exposition + ' ';
    append_json_number(out, g->value());
    out += '\n';
  }
  for (const auto& [name, h] : histograms_) {
    const std::string exposition = prometheus_name(name);
    append_prometheus_header(out, name, exposition, "summary");
    // Quantile series only make sense once something was observed; _sum and
    // _count are always well defined.
    if (h->count() > 0) {
      struct QuantilePoint {
        const char* label;
        double q;
      };
      static constexpr QuantilePoint kQuantiles[] = {
          {"0.5", 0.50}, {"0.9", 0.90}, {"0.95", 0.95}, {"0.99", 0.99}};
      for (const QuantilePoint& point : kQuantiles) {
        out += exposition + "{quantile=\"" + point.label + "\"} ";
        append_json_number(out, h->quantile(point.q));
        out += '\n';
      }
    }
    out += exposition + "_sum ";
    append_json_number(out, h->sum());
    out += '\n' + exposition + "_count " + std::to_string(h->count()) + '\n';
  }
  return out;
}

namespace {

template <typename Map>
[[nodiscard]] std::vector<std::string> keys_of(const Map& map) {
  std::vector<std::string> out;
  out.reserve(map.size());
  for (const auto& [name, value] : map) out.push_back(name);
  return out;  // std::map iterates sorted
}

}  // namespace

std::vector<std::string> MetricsRegistry::counter_names() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return keys_of(counters_);
}

std::vector<std::string> MetricsRegistry::gauge_names() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return keys_of(gauges_);
}

std::vector<std::string> MetricsRegistry::histogram_names() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return keys_of(histograms_);
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace spca
