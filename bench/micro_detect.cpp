// Microbenchmarks of the detector hot paths: per-interval observe cost for
// the sketch method vs the exact baseline, at Abilene scale (m = 81).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "core/lakhina_detector.hpp"
#include "core/sketch_detector.hpp"
#include "obs/bench_main.hpp"
#include "pca/backend/model_backend.hpp"
#include "rand/distributions.hpp"
#include "rand/xoshiro256.hpp"
#include "synth/traffic_model.hpp"

namespace {

using namespace spca;

const TraceSet& shared_trace() {
  static const TraceSet trace = [] {
    TrafficModelConfig config;
    config.num_intervals = 2048;
    config.seed = 3;
    return generate_traffic(abilene_topology(), config);
  }();
  return trace;
}

void BM_SketchObserve(benchmark::State& state) {
  const TraceSet& trace = shared_trace();
  SketchDetectorConfig config;
  config.window = 512;
  config.sketch_rows = static_cast<std::size_t>(state.range(0));
  config.rank_policy = RankPolicy::fixed(6);
  SketchDetector detector(trace.num_flows(), config);
  std::int64_t t = 0;
  // Warm through the window first so observe() includes detection work.
  for (; t < 512; ++t) {
    (void)detector.observe(t, trace.row(static_cast<std::size_t>(t) %
                                        trace.num_intervals()));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.observe(
        t, trace.row(static_cast<std::size_t>(t) % trace.num_intervals())));
    ++t;
  }
}
BENCHMARK(BM_SketchObserve)->Arg(50)->Arg(200)->Unit(benchmark::kMicrosecond);

void BM_LakhinaObserve(benchmark::State& state) {
  const TraceSet& trace = shared_trace();
  LakhinaConfig config;
  config.window = 512;
  config.rank_policy = RankPolicy::fixed(6);
  config.recompute_period = static_cast<std::size_t>(state.range(0));
  LakhinaDetector detector(trace.num_flows(), config);
  std::int64_t t = 0;
  for (; t < 512; ++t) {
    (void)detector.observe(t, trace.row(static_cast<std::size_t>(t) %
                                        trace.num_intervals()));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.observe(
        t, trace.row(static_cast<std::size_t>(t) % trace.num_intervals())));
    ++t;
  }
}
BENCHMARK(BM_LakhinaObserve)->Arg(1)->Arg(8)->Unit(benchmark::kMicrosecond);

void BM_NocRefitBackend(benchmark::State& state, ModelBackendKind kind) {
  // One NOC model refit at the lazy protocol's sketch shape (l = 200 rows,
  // m flows): the dominant recurring cost of a network-wide deployment.
  // Successive refits see slowly drifting rows, the steady-traffic regime
  // where the warm backend stays on its warm-start path; exact re-solves
  // cold every time, so the ratio at equal m is the speedup the default
  // buys. m = 121 is the tier-1 topology above Abilene (11x11 OD pairs).
  const auto m = static_cast<std::size_t>(state.range(0));
  const std::size_t l = 200;
  Xoshiro256 gen(2);
  Matrix base(l, m);
  for (std::size_t i = 0; i < l; ++i) {
    for (std::size_t j = 0; j < m; ++j) base(i, j) = standard_normal(gen);
  }
  constexpr std::size_t kVariants = 4;
  std::vector<Matrix> drifted;
  drifted.reserve(kVariants);
  for (std::size_t v = 0; v < kVariants; ++v) {
    Matrix z = base;
    for (std::size_t i = 0; i < l; ++i) {
      for (std::size_t j = 0; j < m; ++j) z(i, j) += 1e-4 * standard_normal(gen);
    }
    drifted.push_back(std::move(z));
  }
  const auto backend = make_model_backend(kind, m, l);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(backend->fit_rows(
        drifted[i % kVariants], Vector(m), static_cast<std::uint64_t>(2 * m)));
    ++i;
  }
}
BENCHMARK_CAPTURE(BM_NocRefitBackend, exact, ModelBackendKind::kExact)
    ->Arg(81)->Arg(121)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_NocRefitBackend, warm, ModelBackendKind::kWarm)
    ->Arg(81)->Arg(121)->Unit(benchmark::kMillisecond);

}  // namespace

SPCA_BENCHMARK_MAIN_WITH_OBSERVABILITY();
