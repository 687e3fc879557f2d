// Checkpoint format of the Noc (versioned, little-endian):
//
//   u32 magic 'SPCN' | u32 version (4)
//   config: u64 window | u64 sketch_rows | f64 alpha
//           | rank policy (see write_rank_policy: u8 kind | u64 fixed_rank
//             | f64 energy_fraction | f64 ksigma_k | f64 scree_knee)
//           | u8 lazy | u8 host_sketches | f64 epsilon
//           | u8 projection_kind | f64 sparsity | u64 seed
//           | u8 backend kind
//   u64 m | u64 sketch_pulls | u64 alarms_sent
//   per flow (m times): f64 mean | u64 count | u8 seen | f64[] sketch
//   u64 hosted_count (0 or m); per hosted sketch (see
//     FlowSketch::save_state): i64 now | u64 bucket_count
//     per bucket: i64 timestamp | u64 count | f64 mean | f64 variance
//                 | f64[] payload (a window singleton's as rebuilt from the
//                   projection window, which restore refills and checks)
//   model: u8 fitted; if fitted: PcaModel::save_state (u64 sample_count
//          | f64[] singular_values (k) | f64[] components (row-major m*k)
//          | f64[] means (m)) | u64 rank | f64 threshold_squared,
//          k = min(sketch_rows, m)
//   backend state (kind-specific, see ModelBackend::save_state; the warm
//   basis is k*k)
//
// Restore range-checks every field the NOC would otherwise trip over later
// (as a ContractViolation, an allocation failure, or a silently dead
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
#include "dist/noc.hpp"

namespace spca {

namespace {
constexpr std::uint32_t kMagic = 0x4E435053;  // "SPCN"
constexpr std::uint32_t kVersion = 4;
// A flow's state is at least f64 mean, u64 count, u8 seen and the sketch
// length word.
constexpr std::size_t kMinFlowStateBytes = 8 + 8 + 1 + 8;
}  // namespace

std::vector<std::byte> Noc::save_state() const {
  ByteWriter out;
  out.put(kMagic);
  out.put(kVersion);

  out.put(static_cast<std::uint64_t>(config_.window));
  out.put(static_cast<std::uint64_t>(config_.sketch_rows));
  out.put(config_.alpha);
  write_rank_policy(out, config_.rank_policy);
  out.put(static_cast<std::uint8_t>(config_.lazy ? 1 : 0));
  out.put(static_cast<std::uint8_t>(config_.host_sketches ? 1 : 0));
  out.put(config_.epsilon);
  out.put(static_cast<std::uint8_t>(config_.projection));
  out.put(config_.sparsity);
  out.put(config_.seed);
  write_backend_kind(out, config_.backend);

  out.put(static_cast<std::uint64_t>(m_));
  out.put(sketch_pulls_);
  out.put(alarms_sent_);

  for (const FlowState& state : flow_state_) {
    out.put(state.mean);
    out.put(state.count);
    out.put(static_cast<std::uint8_t>(state.seen ? 1 : 0));
    out.put_all(state.sketch);
  }

  out.put(static_cast<std::uint64_t>(hosted_sketches_.size()));
  for (const FlowSketch& sketch : hosted_sketches_) {
    sketch.save_state(out, hosted_window_);
  }

  out.put(static_cast<std::uint8_t>(model_.has_value() ? 1 : 0));
  if (model_.has_value()) {
    model_->save_state(out);
    out.put(static_cast<std::uint64_t>(rank_));
    out.put(threshold_squared_);
  }
  backend_->save_state(out);
  return std::move(out).take();
}

Noc Noc::restore_state(const std::vector<std::byte>& blob,
                       std::optional<ModelBackendKind> expected_backend) {
  ByteReader in(blob);
  if (in.get<std::uint32_t>() != kMagic) {
    throw ProtocolError("Noc::restore_state: bad magic");
  }
  if (in.get<std::uint32_t>() != kVersion) {
    throw ProtocolError("Noc::restore_state: unknown version");
  }

  NocConfig config;
  config.window = static_cast<std::size_t>(in.get<std::uint64_t>());
  config.sketch_rows = static_cast<std::size_t>(in.get<std::uint64_t>());
  config.alpha = in.get<double>();
  config.rank_policy = read_rank_policy(in);
  config.lazy = in.get<std::uint8_t>() != 0;
  config.host_sketches = in.get<std::uint8_t>() != 0;
  config.epsilon = in.get<double>();
  const auto projection = in.get<std::uint8_t>();
  config.projection = static_cast<ProjectionKind>(projection);
  config.sparsity = in.get<double>();
  config.seed = in.get<std::uint64_t>();
  config.backend = read_backend_kind(in);
  // The sketch fields are the deployment's (noc_config_from copies them
  // from the shared detector config), so they are checked even when the
  // NOC hosts no sketches itself.
  FlowSketch::validate_config(config.window, config.epsilon,
                              config.sketch_rows, projection, config.sparsity);
  if (!(config.alpha > 0.0 && config.alpha < 1.0)) {
    throw ProtocolError("Noc::restore_state: bad alpha");
  }
  if (expected_backend && config.backend != *expected_backend) {
    throw ProtocolError(
        std::string("Noc::restore_state: checkpoint written by the '") +
        to_string(config.backend) + "' model backend, expected '" +
        to_string(*expected_backend) + "'");
  }

  const std::size_t m = in.get_count(kMinFlowStateBytes);
  if (m < 2) throw ProtocolError("Noc::restore_state: bad flow count");
  Noc noc(m, config);
  noc.sketch_pulls_ = in.get<std::uint64_t>();
  noc.alarms_sent_ = in.get<std::uint64_t>();

  for (FlowState& state : noc.flow_state_) {
    state.mean = in.get<double>();
    state.count = in.get<std::uint64_t>();
    state.seen = in.get<std::uint8_t>() != 0;
    state.sketch = in.get_all<double>();
    if (state.seen && state.sketch.size() != config.sketch_rows) {
      throw ProtocolError("Noc::restore_state: bad sketch shape");
    }
  }

  const auto hosted_count = in.get<std::uint64_t>();
  if (hosted_count != noc.hosted_sketches_.size()) {
    throw ProtocolError("Noc::restore_state: hosted sketch count mismatch");
  }
  noc.hosted_sketches_ =
      FlowSketch::restore_states(in, hosted_count, noc.hosted_window_);

  if (in.get<std::uint8_t>() != 0) {
    const std::size_t k = std::min(config.sketch_rows, m);
    noc.model_ = PcaModel::restore_state(in, m, k);
    noc.rank_ = static_cast<std::size_t>(in.get<std::uint64_t>());
    noc.threshold_squared_ = in.get<double>();
    // RankPolicy::select only ever picks a rank in [1, k-1]; rank k would
    // leave no residual subspace, so the NOC could never alarm or pull.
    if (noc.rank_ < 1 || noc.rank_ > RankPolicy::max_rank(k) ||
        !std::isfinite(noc.threshold_squared_) ||
        noc.threshold_squared_ < 0.0) {
      throw ProtocolError("Noc::restore_state: bad rank or threshold");
    }
  }
  noc.backend_->restore_state(in);
  if (!in.exhausted()) {
    throw ProtocolError("Noc::restore_state: trailing bytes");
  }
  return noc;
}

}  // namespace spca
