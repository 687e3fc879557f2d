#include <algorithm>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "core/detector.hpp"

namespace spca {

std::size_t RankPolicy::select(const PcaModel& model,
                               const Matrix& fitted_data) const {
  SPCA_EXPECTS(model.fitted());
  std::size_t r = 0;
  switch (kind) {
    case Kind::kFixed:
      r = fixed_rank;
      break;
    case Kind::kEnergy:
      r = select_rank_by_energy(model.singular_values(), energy_fraction);
      break;
    case Kind::kKSigma:
      SPCA_EXPECTS(!fitted_data.empty());
      r = select_rank_by_ksigma(fitted_data, model, ksigma_k);
      break;
    case Kind::kScree:
      r = select_rank_by_scree(model.singular_values(), scree_knee);
      break;
  }
  // A sketch model keeps k = min(l, m) components: at r >= l the residual
  // spectrum would be rounding noise, and the Q threshold built from it
  // meaningless.
  return std::clamp<std::size_t>(r, 1, max_rank(model.component_count()));
}

void write_rank_policy(ByteWriter& out, const RankPolicy& policy) {
  out.put(static_cast<std::uint8_t>(policy.kind));
  out.put(static_cast<std::uint64_t>(policy.fixed_rank));
  out.put(policy.energy_fraction);
  out.put(policy.ksigma_k);
  out.put(policy.scree_knee);
}

RankPolicy read_rank_policy(ByteReader& in) {
  const auto kind = in.get<std::uint8_t>();
  RankPolicy policy;
  policy.kind = static_cast<RankPolicy::Kind>(kind);
  policy.fixed_rank = static_cast<std::size_t>(in.get<std::uint64_t>());
  policy.energy_fraction = in.get<double>();
  policy.ksigma_k = in.get<double>();
  policy.scree_knee = in.get<double>();
  if (kind > static_cast<std::uint8_t>(RankPolicy::Kind::kScree) ||
      !(policy.energy_fraction > 0.0 && policy.energy_fraction <= 1.0) ||
      !(policy.ksigma_k > 0.0) ||
      !(policy.scree_knee > 0.0 && policy.scree_knee <= 1.0)) {
    throw ProtocolError("rank policy: invalid value in checkpoint");
  }
  return policy;
}

}  // namespace spca
