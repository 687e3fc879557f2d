#include "sketch/flow_sketch.hpp"

#include <cmath>
#include <vector>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "sketch/projection_batch.hpp"

namespace spca {

namespace {

/// Fills the 2l payload block for one (t, volume) update: the batched kernel
/// for tug-of-war, the generic per-coefficient path otherwise. Both agree
/// bit for bit with ProjectionSource::value.
void fill_payload(const ProjectionSource& projection, std::int64_t t,
                  double volume, std::size_t l, double* payload) {
  if (projection.kind() == ProjectionKind::kTugOfWar) {
    fill_tow_payload(projection.seed(), t, volume, l, payload);
    return;
  }
  for (std::size_t k = 0; k < l; ++k) {
    const double r = projection.value(t, k);
    payload[k] = volume * r;   // Z contribution (Fig. 3 Step 2)
    payload[l + k] = r;        // R contribution
  }
}

}  // namespace

FlowSketch::FlowSketch(std::uint64_t window, double epsilon,
                       std::size_t sketch_rows,
                       const ProjectionSource& projection)
    : rows_(sketch_rows),
      projection_(projection),
      histogram_(window, epsilon, 2 * sketch_rows) {
  SPCA_EXPECTS(sketch_rows >= 1);
}

void FlowSketch::save_state(ByteWriter& out) const {
  out.put(histogram_.now());
  out.put(static_cast<std::uint64_t>(histogram_.buckets().size()));
  for (const VhBucket& b : histogram_.buckets()) {
    out.put(b.timestamp);
    out.put(b.count);
    out.put(b.mean);
    out.put(b.variance);
    out.put_all(b.payload);
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

FlowSketch FlowSketch::restore_state(ByteReader& in, std::uint64_t window,
                                     double epsilon, std::size_t sketch_rows,
                                     const ProjectionSource& projection) {
  const auto now = in.get<std::int64_t>();
  // A bucket is at least its four scalars plus the payload length word.
  std::vector<VhBucket> buckets(in.get_count(5 * sizeof(std::uint64_t)));
  for (VhBucket& bucket : buckets) {
    bucket.timestamp = in.get<std::int64_t>();
    bucket.count = in.get<std::uint64_t>();
    bucket.mean = in.get<double>();
    bucket.variance = in.get<double>();
    bucket.payload = in.get_all<double>();
  }
  FlowSketch sketch(window, epsilon, sketch_rows, projection);
  sketch.histogram_ = VarianceHistogram::from_state(
      window, epsilon, 2 * sketch_rows, std::move(buckets), now);
  return sketch;
}

void FlowSketch::add(std::int64_t t, double volume) {
  // Resolved once per process; two relaxed atomic increments per update.
  static Counter& updates =
      MetricsRegistry::global().counter("spca.sketch.updates");
  static Counter& merges =
      MetricsRegistry::global().counter("spca.sketch.bucket_merges");

  payload_scratch_.resize(2 * rows_);  // no-op after the first call
  fill_payload(projection_, t, volume, rows_, payload_scratch_.data());
  const std::uint64_t merges_before = histogram_.merge_count();
  histogram_.add(t, volume, payload_scratch_);
  updates.inc();
  merges.inc(histogram_.merge_count() - merges_before);
}

void FlowSketch::add_batch(std::span<const SketchUpdate> batch) {
  static Counter& updates =
      MetricsRegistry::global().counter("spca.sketch.updates");
  static Counter& merges =
      MetricsRegistry::global().counter("spca.sketch.bucket_merges");
  static Counter& batches =
      MetricsRegistry::global().counter("spca.sketch.batches");

  if (batch.empty()) return;
  payload_scratch_.resize(2 * rows_);
  const std::uint64_t merges_before = histogram_.merge_count();
  for (const SketchUpdate& u : batch) {
    fill_payload(projection_, u.t, u.volume, rows_, payload_scratch_.data());
    histogram_.add(u.t, u.volume, payload_scratch_);
  }
  updates.inc(batch.size());
  batches.inc();
  merges.inc(histogram_.merge_count() - merges_before);
}

Vector FlowSketch::sketch() const {
  Vector z(rows_);
  sketch_into(z);
  return z;
}

void FlowSketch::sketch_into(Vector& out) const {
  (void)report_into(out);
}

FlowSketch::Report FlowSketch::report_into(Vector& z) const {
  histogram_.aggregate_into(aggregate_scratch_);
  const VhBucket& all = aggregate_scratch_;
  if (z.size() != rows_) z = Vector(rows_);
  if (all.count == 0) {
    for (std::size_t k = 0; k < rows_; ++k) z[k] = 0.0;
    return {};
  }
  const double inv_sqrt_l = 1.0 / std::sqrt(static_cast<double>(rows_));
  for (std::size_t k = 0; k < rows_; ++k) {
    const double z_all = all.payload[k];
    const double r_all = all.payload[rows_ + k];
    z[k] = inv_sqrt_l * (z_all - all.mean * r_all);  // eq. (17), see header
  }
  return {all.mean, all.count};
}

double FlowSketch::mean() const {
  histogram_.aggregate_into(aggregate_scratch_);
  return aggregate_scratch_.mean;
}

std::uint64_t FlowSketch::count() const {
  histogram_.aggregate_into(aggregate_scratch_);
  return aggregate_scratch_.count;
}

double FlowSketch::variance_estimate() const {
  return histogram_.variance_estimate();
}

}  // namespace spca
