#include "pca/backend/model_backend.hpp"

#include <string>

#include "common/error.hpp"

namespace spca {

ModelBackendKind parse_model_backend(std::string_view name) {
  if (name == "exact") return ModelBackendKind::kExact;
  if (name == "warm") return ModelBackendKind::kWarm;
  throw InputError("unknown model backend '" + std::string(name) +
                   "' (expected exact|warm)");
}

const char* to_string(ModelBackendKind kind) {
  switch (kind) {
    case ModelBackendKind::kExact:
      return "exact";
    case ModelBackendKind::kWarm:
      return "warm";
  }
  return "unknown";
}

void write_backend_kind(ByteWriter& out, ModelBackendKind kind) {
  out.put(static_cast<std::uint8_t>(kind));
}

ModelBackendKind read_backend_kind(ByteReader& in) {
  const auto kind = in.get<std::uint8_t>();
  if (kind > static_cast<std::uint8_t>(ModelBackendKind::kWarm)) {
    throw ProtocolError("model backend: unknown backend kind");
  }
  return static_cast<ModelBackendKind>(kind);
}

void ModelBackend::save_state(ByteWriter& out) const { (void)out; }

void ModelBackend::restore_state(ByteReader& in) { (void)in; }

}  // namespace spca
