// Microbenchmarks of the per-flow sketch: the O(l) update of Fig. 3 Step 2
// and the sketch emission of eq. (17).
#include <benchmark/benchmark.h>

#include <vector>

#include "obs/bench_main.hpp"
#include "par/thread_pool.hpp"
#include "rand/distributions.hpp"
#include "rand/xoshiro256.hpp"
#include "sketch/flow_sketch.hpp"
#include "sketch/random_projection.hpp"

namespace {

using namespace spca;

// One flow per window: each iteration also computes the interval's
// coefficient row, which an owner of w flows pays once for all w.
void BM_FlowSketchAdd(benchmark::State& state) {
  const auto l = static_cast<std::size_t>(state.range(0));
  const ProjectionSource source(ProjectionKind::kTugOfWar, 1);
  ProjectionWindow window(source, l, 4032, 0.01);
  FlowSketch sketch(window);
  Xoshiro256 gen(2);
  std::int64_t t = 0;
  for (auto _ : state) {
    window.advance(t);
    sketch.add(t++, 1e8 + 1e7 * standard_normal(gen), window);
  }
}
BENCHMARK(BM_FlowSketchAdd)->Arg(10)->Arg(50)->Arg(200)->Arg(400);

void BM_FlowSketchAddGaussian(benchmark::State& state) {
  // The Gaussian scheme evaluates two hashes + Box-Muller per coefficient.
  const auto l = static_cast<std::size_t>(state.range(0));
  const ProjectionSource source(ProjectionKind::kGaussian, 1);
  ProjectionWindow window(source, l, 4032, 0.01);
  FlowSketch sketch(window);
  Xoshiro256 gen(3);
  std::int64_t t = 0;
  for (auto _ : state) {
    window.advance(t);
    sketch.add(t++, 1e8 + 1e7 * standard_normal(gen), window);
  }
}
BENCHMARK(BM_FlowSketchAddGaussian)->Arg(50)->Arg(200);

void BM_FlowSketchEmit(benchmark::State& state) {
  const auto l = static_cast<std::size_t>(state.range(0));
  const ProjectionSource source(ProjectionKind::kTugOfWar, 1);
  ProjectionWindow window(source, l, 4032, 0.05);
  FlowSketch sketch(window);
  Xoshiro256 gen(4);
  for (std::int64_t t = 0; t < 4032; ++t) {
    window.advance(t);
    sketch.add(t, 1e8 + 1e7 * standard_normal(gen), window);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sketch.sketch(window));
  }
  state.counters["buckets"] = static_cast<double>(sketch.bucket_count());
}
BENCHMARK(BM_FlowSketchEmit)->Arg(50)->Arg(200)->Arg(400);

void BM_MonitorIntervalClose(benchmark::State& state) {
  // The LocalMonitor interval-close hot path: a bank of w per-flow sketch
  // updates fanned out across the pool. Arg pair = (flows, threads); the
  // threads sweep is what the BENCH_micro.json speedup column reads.
  const auto flows = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  const std::size_t saved = global_threads();
  set_global_threads(threads);
  const ProjectionSource source(ProjectionKind::kTugOfWar, 1);
  ProjectionWindow window(source, 50, 4032, 0.01);
  std::vector<FlowSketch> bank(flows, FlowSketch(window));
  Xoshiro256 gen(5);
  Vector volumes(flows);
  for (std::size_t i = 0; i < flows; ++i) {
    volumes[i] = 1e8 + 1e7 * standard_normal(gen);
  }
  std::int64_t t = 0;
  for (auto _ : state) {
    const std::int64_t now = t++;
    window.advance(now);
    global_pool().parallel_for(0, flows, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        bank[i].add(now, volumes[i], window);
      }
    });
  }
  set_global_threads(saved);
}
BENCHMARK(BM_MonitorIntervalClose)
    ->Args({64, 1})
    ->Args({64, 2})
    ->Args({64, 4})
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({256, 4});

void BM_SketchResponseEmit(benchmark::State& state) {
  // The sketch-response emission path: w report_into calls with per-lane
  // scratch, parallelized the same way LocalMonitor::make_sketch_response is.
  const auto flows = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  const std::size_t saved = global_threads();
  set_global_threads(threads);
  constexpr std::size_t kRows = 50;
  const ProjectionSource source(ProjectionKind::kTugOfWar, 1);
  ProjectionWindow window(source, kRows, 4032, 0.05);
  std::vector<FlowSketch> bank(flows, FlowSketch(window));
  Xoshiro256 gen(6);
  for (std::int64_t t = 0; t < 1024; ++t) {
    window.advance(t);
    for (std::size_t i = 0; i < flows; ++i) {
      bank[i].add(t, 1e8 + 1e7 * standard_normal(gen), window);
    }
  }
  const std::size_t block = kRows + 2;
  std::vector<double> payload(flows * block);
  for (auto _ : state) {
    global_pool().parallel_for(0, flows, [&](std::size_t lo, std::size_t hi) {
      Vector z;
      for (std::size_t i = lo; i < hi; ++i) {
        double* out = payload.data() + i * block;
        const FlowSketch::Report report = bank[i].report_into(z, window);
        out[0] = report.mean;
        out[1] = static_cast<double>(report.count);
        for (std::size_t k = 0; k < kRows; ++k) out[2 + k] = z[k];
      }
    });
    benchmark::DoNotOptimize(payload.data());
  }
  set_global_threads(saved);
}
BENCHMARK(BM_SketchResponseEmit)->Args({256, 1})->Args({256, 2})->Args({256, 4});

void BM_ProjectionCoefficient(benchmark::State& state) {
  const auto kind = static_cast<ProjectionKind>(state.range(0));
  const ProjectionSource source(kind, 9, 3.0);
  std::int64_t t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(source.value(t++, 3));
  }
}
BENCHMARK(BM_ProjectionCoefficient)
    ->Arg(static_cast<int>(ProjectionKind::kGaussian))
    ->Arg(static_cast<int>(ProjectionKind::kTugOfWar))
    ->Arg(static_cast<int>(ProjectionKind::kSparse));

}  // namespace

SPCA_BENCHMARK_MAIN_WITH_OBSERVABILITY();
