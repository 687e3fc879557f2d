// Pluggable NOC model backends: strategies for turning window/covariance
// state into a fitted PcaModel.
//
// The refit is the NOC's dominant cost at scale (BM_EigenSymmetric/121 is
// ~21 ms per refit). Two interchangeable strategies produce the same
// verdicts:
//
//   exact  cold Jacobi / one-sided-Jacobi SVD — the accuracy reference
//   warm   warm-started Jacobi on the min(l, m) side of the l x m sketch,
//          seeded by the previous basis, with a drift-triggered cold
//          restart (the default)
//
// Determinism rules: both backends are bit-reproducible across runs, thread
// counts, and checkpoint restore; warm checkpoints its basis.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>

#include "common/serialize.hpp"
#include "linalg/matrix.hpp"
#include "pca/pca_model.hpp"

namespace spca {

/// The available model-fitting strategies. Values are stable: they are
/// serialized into SPCN/SPCA checkpoint blobs.
enum class ModelBackendKind : std::uint8_t {
  kExact = 0,
  kWarm = 1,
};

/// Parses "exact" | "warm"; throws InputError otherwise.
[[nodiscard]] ModelBackendKind parse_model_backend(std::string_view name);
[[nodiscard]] const char* to_string(ModelBackendKind kind);

/// Serialization helpers shared by the SPCN/SPCA checkpoint codecs: one
/// u8 kind; an unknown value is rejected as ProtocolError.
void write_backend_kind(ByteWriter& out, ModelBackendKind kind);
[[nodiscard]] ModelBackendKind read_backend_kind(ByteReader& in);

/// One model-fitting strategy with whatever internal state it carries
/// between refits (the warm basis). Owned by a single detector/NOC; not
/// thread-safe.
class ModelBackend {
 public:
  virtual ~ModelBackend() = default;

  [[nodiscard]] ModelBackendKind kind() const noexcept { return kind_; }

  /// Fits from an l x m row matrix (the sketch matrix Z-hat, already
  /// centered by construction) a model of min(l, m) components.
  /// `column_means` and `sample_count` carry the window centering/scaling
  /// information exactly as PcaModel::from_sketch takes them.
  [[nodiscard]] virtual PcaModel fit_rows(const Matrix& rows,
                                          Vector column_means,
                                          std::uint64_t sample_count) = 0;

  /// Fits from an m x m centered Gram/covariance matrix (the Lakhina
  /// incremental path).
  [[nodiscard]] virtual PcaModel fit_gram(const Matrix& centered_gram,
                                          Vector column_means,
                                          std::uint64_t sample_count) = 0;

  /// Serializes/restores the backend's inter-refit state. The format is
  /// kind-specific; the caller frames it inside its own versioned blob and
  /// must only restore into a backend of the same kind and shape.
  virtual void save_state(ByteWriter& out) const;
  virtual void restore_state(ByteReader& in);

  /// Heap bytes of the inter-refit state (the warm basis).
  [[nodiscard]] virtual std::size_t memory_bytes() const noexcept {
    return 0;
  }

 protected:
  explicit ModelBackend(ModelBackendKind kind) : kind_(kind) {}

 private:
  ModelBackendKind kind_;
};

/// Builds the backend of `kind` for `dimensions`-flow data whose fit_rows
/// calls pass `rows`-row matrices (the sketch length l); an owner that
/// fits m x m Gram matrices passes rows = dimensions. The warm basis is
/// min(rows, dimensions) square.
[[nodiscard]] std::unique_ptr<ModelBackend> make_model_backend(
    ModelBackendKind kind, std::size_t dimensions, std::size_t rows);

}  // namespace spca
