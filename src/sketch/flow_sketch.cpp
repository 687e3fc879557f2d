#include "sketch/flow_sketch.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace spca {

namespace {

/// The payload [x·r_1..x·r_l, r_1..r_l] of a one-element bucket holding
/// volume `x`, exactly as Fig. 3 Step 2 adds it.
void rebuild_payload(double x, const double* r, std::size_t l,
                     double* payload) {
  for (std::size_t k = 0; k < l; ++k) {
    payload[k] = x * r[k];
    payload[l + k] = r[k];
  }
}

void add_payload(std::size_t l, const double* __restrict payload,
                 double* __restrict z_sum, double* __restrict r_sum) {
  for (std::size_t k = 0; k < l; ++k) {
    z_sum[k] += payload[k];
    r_sum[k] += payload[l + k];
  }
}

void add_rebuilt_payload(std::size_t l, double x, const double* __restrict r,
                         double* __restrict z_sum, double* __restrict r_sum) {
  for (std::size_t k = 0; k < l; ++k) {
    z_sum[k] += x * r[k];
    r_sum[k] += r[k];
  }
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

FlowSketch::FlowSketch(const ProjectionWindow& window)
    : rows_(window.sketch_rows()),
      span_(window.span()),
      histogram_(window.window(), window.epsilon(), 2 * rows_) {}

void FlowSketch::save_state(ByteWriter& out,
                            const ProjectionWindow& window) const {
  out.put(histogram_.now());
  out.put(static_cast<std::uint64_t>(histogram_.buckets().size()));
  std::vector<double> rebuilt;
  for (const VhBucket& b : histogram_.buckets()) {
    out.put(b.timestamp);
    out.put(b.count);
    out.put(b.mean);
    out.put(b.variance);
    if (b.payload.empty()) {
      const double* r = window.row(b.timestamp);
      SPCA_EXPECTS(r != nullptr);
      rebuilt.resize(2 * rows_);
      rebuild_payload(b.mean, r, rows_, rebuilt.data());
      out.put_all(rebuilt);
    } else {
      out.put_all(b.payload);
    }
  }
}

void FlowSketch::validate_config(std::uint64_t window, double epsilon,
                                 std::size_t sketch_rows,
                                 std::uint8_t projection, double sparsity) {
  constexpr auto kVerySparse =
      static_cast<std::uint8_t>(ProjectionKind::kVerySparse);
  if (window < 2 || !(epsilon > 0.0 && epsilon < 1.0) || sketch_rows == 0 ||
      projection > kVerySparse ||
      (projection != kVerySparse && !(sparsity >= 1.0))) {
    throw ProtocolError("checkpoint: bad sketch config");
  }
}

std::vector<FlowSketch> FlowSketch::restore_states(ByteReader& in,
                                                   std::size_t count,
                                                   ProjectionWindow& window) {
  struct Saved {
    std::int64_t now = 0;
    std::vector<VhBucket> buckets;
  };
  std::vector<Saved> saved(count);
  for (Saved& s : saved) {
    s.now = in.get<std::int64_t>();
    // A bucket is at least its four scalars plus the payload length word.
    s.buckets.resize(in.get_count(5 * sizeof(std::uint64_t)));
    for (VhBucket& bucket : s.buckets) {
      bucket.timestamp = in.get<std::int64_t>();
      bucket.count = in.get<std::uint64_t>();
      bucket.mean = in.get<double>();
      bucket.variance = in.get<double>();
      bucket.payload = in.get_all<double>();
    }
  }

  // Every flow of an owner is fed the same intervals, so the newest R
  // buckets of the first sketch name the window's rows (oldest first).
  const std::size_t span = window.span();
  std::vector<std::int64_t> rows;
  if (!saved.empty()) {
    const std::vector<VhBucket>& first = saved.front().buckets;
    for (std::size_t i = std::min(span, first.size()); i-- > 0;) {
      if (!rows.empty() && first[i].timestamp <= rows.back()) {
        throw ProtocolError("checkpoint: sketch buckets out of order");
      }
      rows.push_back(first[i].timestamp);
    }
  }
  window.refill(rows);

  const std::size_t l = window.sketch_rows();
  std::vector<FlowSketch> sketches;
  sketches.reserve(count);
  for (Saved& s : saved) {
    for (std::size_t i = 0; i < s.buckets.size(); ++i) {
      VhBucket& b = s.buckets[i];
      if (b.payload.size() != 2 * l) {
        throw ProtocolError("checkpoint: bad sketch payload length");
      }
      if (i >= span) continue;
      // A window singleton: drop its payload after checking it is the one
      // the window rebuilds.
      const double* r = window.row(b.timestamp);
      if (b.count != 1 || r == nullptr) {
        throw ProtocolError("checkpoint: bad window singleton");
      }
      for (std::size_t k = 0; k < l; ++k) {
        if (!same_bits(b.payload[k], b.mean * r[k]) ||
            !same_bits(b.payload[l + k], r[k])) {
          throw ProtocolError(
              "checkpoint: window singleton payload differs from the "
              "projection window");
        }
      }
      b.payload = std::vector<double>();
    }
    FlowSketch sketch(window);
    sketch.histogram_ = VarianceHistogram::from_state(
        window.window(), window.epsilon(), 2 * l, std::move(s.buckets), s.now);
    sketches.push_back(std::move(sketch));
  }
  return sketches;
}

void FlowSketch::push(std::int64_t t, double volume,
                      const ProjectionWindow& window) {
  SPCA_EXPECTS(window.row(t) != nullptr);
  // This update pushes the R-th newest element out of the window: write its
  // payload into the bucket now, before compaction may merge it. One that
  // expires with this update needs none.
  const std::size_t leaving = span_ - 1;
  const auto& buckets = histogram_.buckets();
  if (buckets.size() > leaving && buckets[leaving].payload.empty() &&
      buckets[leaving].timestamp >
          t - static_cast<std::int64_t>(histogram_.window())) {
    const VhBucket& b = buckets[leaving];
    const double* r = window.row(b.timestamp);
    SPCA_EXPECTS(r != nullptr && b.count == 1);
    const double x = b.mean;
    rebuild_payload(x, r, rows_, histogram_.attach_payload(leaving).data());
  }
  histogram_.add_without_payload(t, volume);
}

void FlowSketch::add(std::int64_t t, double volume,
                     const ProjectionWindow& window) {
  // Resolved once per process; two relaxed atomic increments per update.
  static Counter& updates =
      MetricsRegistry::global().counter("spca.sketch.updates");
  static Counter& merges =
      MetricsRegistry::global().counter("spca.sketch.bucket_merges");

  const std::uint64_t merges_before = histogram_.merge_count();
  push(t, volume, window);
  updates.inc();
  merges.inc(histogram_.merge_count() - merges_before);
}

void FlowSketch::add_batch(std::span<const SketchUpdate> batch,
                           const ProjectionWindow& window) {
  static Counter& updates =
      MetricsRegistry::global().counter("spca.sketch.updates");
  static Counter& merges =
      MetricsRegistry::global().counter("spca.sketch.bucket_merges");
  static Counter& batches =
      MetricsRegistry::global().counter("spca.sketch.batches");

  if (batch.empty()) return;
  const std::uint64_t merges_before = histogram_.merge_count();
  for (const SketchUpdate& u : batch) push(u.t, u.volume, window);
  updates.inc(batch.size());
  batches.inc();
  merges.inc(histogram_.merge_count() - merges_before);
}

Vector FlowSketch::sketch(const ProjectionWindow& window) const {
  Vector z(rows_);
  (void)report_into(z, window);
  return z;
}

FlowSketch::Report FlowSketch::report_into(
    Vector& z, const ProjectionWindow& window) const {
  const VhBucket all = histogram_.aggregate();
  if (z.size() != rows_) z = Vector(rows_);
  std::fill(z.begin(), z.end(), 0.0);
  if (all.count == 0) return {};
  // Z sums accumulate in z itself, R sums beside it; both fold the buckets
  // oldest-first, so each sum sees the additions of Fig. 3 in stream order.
  double* z_sum = z.begin();
  std::vector<double> r_sum(rows_, 0.0);
  const auto& buckets = histogram_.buckets();
  for (auto it = buckets.rbegin(); it != buckets.rend(); ++it) {
    if (!it->payload.empty()) {
      add_payload(rows_, it->payload.data(), z_sum, r_sum.data());
      continue;
    }
    const double* r = window.row(it->timestamp);
    SPCA_EXPECTS(r != nullptr);
    add_rebuilt_payload(rows_, it->mean, r, z_sum, r_sum.data());
  }
  const double inv_sqrt_l = 1.0 / std::sqrt(static_cast<double>(rows_));
  for (std::size_t k = 0; k < rows_; ++k) {
    z[k] = inv_sqrt_l * (z_sum[k] - all.mean * r_sum[k]);  // eq. (17)
  }
  return {all.mean, all.count};
}

double FlowSketch::mean() const { return histogram_.aggregate().mean; }

std::uint64_t FlowSketch::count() const {
  return histogram_.aggregate().count;
}

double FlowSketch::variance_estimate() const {
  return histogram_.variance_estimate();
}

}  // namespace spca
