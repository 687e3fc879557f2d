// Checkpoint format of the SketchDetector (versioned, little-endian):
//
//   u32 magic 'SPCA' | u32 version (4)
//   config: u64 window | f64 epsilon | u64 sketch_rows | f64 alpha
//           | rank policy (see write_rank_policy: u8 kind | u64 fixed_rank
//             | f64 energy_fraction | f64 ksigma_k | f64 scree_knee)
//           | u8 projection_kind | f64 sparsity | u64 seed | u8 lazy
//           | u8 backend kind
//   u64 dimensions | u64 observed | u64 model_computations
//   model: u8 fitted; if fitted: PcaModel::save_state (u64 sample_count
//          | f64[] singular_values (k) | f64[] components (row-major m*k)
//          | f64[] means (m)) | u64 rank | f64 threshold_squared,
//          k = min(sketch_rows, m)
//   backend state (kind-specific, see ModelBackend::save_state; the warm
//   basis is k*k)
//   per flow (dimensions times, see FlowSketch::save_state):
//     i64 now | u64 bucket_count
//     per bucket: i64 timestamp | u64 count | f64 mean | f64 variance
//                 | f64[] payload (a window singleton's as rebuilt from the
//                   projection window, which restore refills and checks)
//
// Restore range-checks every field the detector would otherwise trip over
// later (as a ContractViolation, an allocation failure, or a silently dead
// detector) and rejects it as ProtocolError instead.
//
// Version history: v1 had no backend section; v2 carried the full tuning
// config of four backends and a truncated-basis width in the model; v3
// stored m components and an m x m warm basis whatever the sketch length.
// None is readable any more (restore throws ProtocolError on the version
// word).
#include <algorithm>
#include <cmath>
#include <utility>

#include "common/serialize.hpp"
#include "core/sketch_detector.hpp"

namespace spca {

namespace {
constexpr std::uint32_t kMagic = 0x53504341;  // "SPCA"
constexpr std::uint32_t kVersion = 4;
// A flow's sketch state is at least i64 now and the bucket count word.
constexpr std::size_t kMinFlowStateBytes = 8 + 8;
}  // namespace

std::vector<std::byte> SketchDetector::save_state() const {
  ByteWriter out;
  out.put(kMagic);
  out.put(kVersion);

  out.put(static_cast<std::uint64_t>(config_.window));
  out.put(config_.epsilon);
  out.put(static_cast<std::uint64_t>(config_.sketch_rows));
  out.put(config_.alpha);
  write_rank_policy(out, config_.rank_policy);
  out.put(static_cast<std::uint8_t>(config_.projection));
  out.put(config_.sparsity);
  out.put(config_.seed);
  out.put(static_cast<std::uint8_t>(config_.lazy ? 1 : 0));
  write_backend_kind(out, config_.backend);

  out.put(static_cast<std::uint64_t>(m_));
  out.put(observed_);
  out.put(model_computations_);

  out.put(static_cast<std::uint8_t>(model_.fitted() ? 1 : 0));
  if (model_.fitted()) {
    model_.save_state(out);
    out.put(static_cast<std::uint64_t>(rank_));
    out.put(threshold_squared_);
  }
  backend_->save_state(out);

  for (const FlowSketch& flow : flows_) flow.save_state(out, window_);
  return std::move(out).take();
}

SketchDetector SketchDetector::restore_state(
    const std::vector<std::byte>& blob,
    std::optional<ModelBackendKind> expected_backend) {
  ByteReader in(blob);
  if (in.get<std::uint32_t>() != kMagic) {
    throw ProtocolError("SketchDetector::restore_state: bad magic");
  }
  if (in.get<std::uint32_t>() != kVersion) {
    throw ProtocolError("SketchDetector::restore_state: unknown version");
  }

  SketchDetectorConfig config;
  config.window = static_cast<std::size_t>(in.get<std::uint64_t>());
  config.epsilon = in.get<double>();
  config.sketch_rows = static_cast<std::size_t>(in.get<std::uint64_t>());
  config.alpha = in.get<double>();
  config.rank_policy = read_rank_policy(in);
  const auto projection = in.get<std::uint8_t>();
  config.projection = static_cast<ProjectionKind>(projection);
  config.sparsity = in.get<double>();
  config.seed = in.get<std::uint64_t>();
  config.lazy = in.get<std::uint8_t>() != 0;
  config.backend = read_backend_kind(in);
  FlowSketch::validate_config(config.window, config.epsilon,
                              config.sketch_rows, projection, config.sparsity);
  if (!(config.alpha > 0.0 && config.alpha < 1.0)) {
    throw ProtocolError("SketchDetector::restore_state: bad alpha");
  }
  if (expected_backend && config.backend != *expected_backend) {
    throw ProtocolError(
        std::string("SketchDetector::restore_state: checkpoint written by "
                    "the '") +
        to_string(config.backend) + "' model backend, expected '" +
        to_string(*expected_backend) + "'");
  }

  const std::size_t m = in.get_count(kMinFlowStateBytes);
  if (m < 2) {
    throw ProtocolError("SketchDetector::restore_state: bad flow count");
  }
  SketchDetector detector(m, config);
  detector.observed_ = in.get<std::uint64_t>();
  detector.model_computations_ = in.get<std::uint64_t>();

  if (in.get<std::uint8_t>() != 0) {
    const std::size_t k = std::min(config.sketch_rows, m);
    detector.model_ = PcaModel::restore_state(in, m, k);
    detector.rank_ = static_cast<std::size_t>(in.get<std::uint64_t>());
    detector.threshold_squared_ = in.get<double>();
    // RankPolicy::select only ever picks a rank in [1, k-1]; rank k would
    // leave no residual subspace, so the detector could never alarm.
    if (detector.rank_ < 1 || detector.rank_ > RankPolicy::max_rank(k) ||
        !std::isfinite(detector.threshold_squared_) ||
        detector.threshold_squared_ < 0.0) {
      throw ProtocolError(
          "SketchDetector::restore_state: bad rank or threshold");
    }
  }
  detector.backend_->restore_state(in);

  detector.flows_ = FlowSketch::restore_states(in, m, detector.window_);
  if (!in.exhausted()) {
    throw ProtocolError("SketchDetector::restore_state: trailing bytes");
  }
  return detector;
}

}  // namespace spca
