// Shared bench machinery: run a detector once over a trace and recover the
// alarm decision for EVERY candidate normal-subspace size r simultaneously.
//
// Both detectors expose distance_profile() (residual distance as a function
// of r for the last observation) and their fitted model's spectrum, so one
// streaming pass yields the full r-sweep of Figs. 7-9 instead of max_rank
// separate runs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/detector.hpp"
#include "pca/pca_model.hpp"
#include "pca/q_statistic.hpp"
#include "traffic/trace.hpp"

namespace spca::bench {

/// Alarm decisions for every rank r = 1..max_rank over one trace run.
struct RankSweepResult {
  /// alarms[r-1][t] is the verdict at rank r for interval t.
  std::vector<std::vector<char>> alarms;
  /// First interval with a verdict.
  std::size_t first_ready = 0;
};

/// Streams `trace` through `detector`, deriving each rank's verdict from the
/// distance profile and the Q-statistic threshold at that rank.
/// `model_of(detector)` must return `const PcaModel*` (nullptr while the
/// model is not yet fitted).
template <typename Detector, typename ModelOf>
RankSweepResult run_rank_sweep(Detector& detector, const TraceSet& trace,
                               std::size_t max_rank, double alpha,
                               ModelOf model_of) {
  RankSweepResult result;
  result.alarms.assign(max_rank,
                       std::vector<char>(trace.num_intervals(), 0));
  result.first_ready = trace.num_intervals();

  for (std::size_t t = 0; t < trace.num_intervals(); ++t) {
    const Detection det =
        detector.observe(static_cast<std::int64_t>(t), trace.row(t));
    if (!det.ready) continue;
    if (result.first_ready == trace.num_intervals()) result.first_ready = t;
    const PcaModel* model = model_of(detector);
    if (model == nullptr) continue;
    const Vector profile = detector.distance_profile();
    if (profile.size() == 0) continue;
    for (std::size_t r = 1; r <= max_rank; ++r) {
      // The profile stops at the model's largest rank (min(l, m) - 1 for a
      // sketch); a larger r is clamped to it, as RankPolicy::select does.
      const std::size_t rank = std::min(r, profile.size());
      const double threshold2 = q_statistic_threshold_squared(
          model->singular_values(), rank, model->sample_count(), alpha);
      const double d = profile[rank - 1];
      result.alarms[r - 1][t] = d * d > threshold2 ? 1 : 0;
    }
  }
  return result;
}

/// Type I / II errors of `run` against `reference` at one rank, evaluated on
/// intervals where both were ready.
struct TypeErrors {
  double type1 = 0.0;
  double type2 = 0.0;
  std::uint64_t evaluated = 0;
};

inline TypeErrors type_errors(const std::vector<char>& run_alarms,
                              const std::vector<char>& ref_alarms,
                              std::size_t first_eval) {
  std::uint64_t fp = 0, fn = 0, tp = 0, tn = 0;
  for (std::size_t t = first_eval; t < run_alarms.size(); ++t) {
    const bool truth = ref_alarms[t] != 0;
    const bool predicted = run_alarms[t] != 0;
    if (truth && predicted) ++tp;
    if (truth && !predicted) ++fn;
    if (!truth && predicted) ++fp;
    if (!truth && !predicted) ++tn;
  }
  TypeErrors e;
  e.evaluated = tp + fn + fp + tn;
  e.type1 = (fp + tn) == 0 ? 0.0
                           : static_cast<double>(fp) /
                                 static_cast<double>(fp + tn);
  e.type2 = (tp + fn) == 0 ? 0.0
                           : static_cast<double>(fn) /
                                 static_cast<double>(tp + fn);
  return e;
}

}  // namespace spca::bench
