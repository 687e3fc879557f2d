// Microbenchmarks of the linear-algebra kernels on the PCA hot path.
#include <benchmark/benchmark.h>

#include "linalg/eigen_sym.hpp"
#include "linalg/qr.hpp"
#include "linalg/svd.hpp"
#include "obs/bench_main.hpp"
#include "par/thread_pool.hpp"
#include "rand/distributions.hpp"
#include "rand/xoshiro256.hpp"

namespace {

using namespace spca;

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Xoshiro256 gen(seed);
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) m(i, j) = standard_normal(gen);
  }
  return m;
}

void BM_Gram(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto m = static_cast<std::size_t>(state.range(1));
  const Matrix a = random_matrix(n, m, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gram(a));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n * m * m));
}
BENCHMARK(BM_Gram)->Args({256, 81})->Args({1024, 81})->Args({4032, 81});

void BM_EigenSymmetric(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const Matrix g = gram(random_matrix(2 * m, m, 2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(eigen_symmetric(g));
  }
}
BENCHMARK(BM_EigenSymmetric)->Arg(16)->Arg(41)->Arg(81)->Arg(121);

void BM_EigenSymmetricWarm(benchmark::State& state) {
  // The streaming refresh case: warm-start from the basis of a slightly
  // older matrix. Compare against BM_EigenSymmetric (cold) at equal m.
  const auto m = static_cast<std::size_t>(state.range(0));
  const Matrix g = gram(random_matrix(2 * m, m, 2));
  Matrix perturbed = g;
  Xoshiro256 gen(7);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = i; j < m; ++j) {
      const double d = 1e-4 * standard_normal(gen) * g(0, 0);
      perturbed(i, j) += d;
      perturbed(j, i) = perturbed(i, j);
    }
  }
  const EigenSym base = eigen_symmetric(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eigen_symmetric_warm(perturbed, base.vectors));
  }
}
BENCHMARK(BM_EigenSymmetricWarm)->Arg(41)->Arg(81)->Arg(121);

void BM_SvdSketchShape(benchmark::State& state) {
  // The NOC decomposition: l x m sketch matrices.
  const auto l = static_cast<std::size_t>(state.range(0));
  const Matrix z = random_matrix(l, 81, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(svd(z, /*want_left=*/false));
  }
}
BENCHMARK(BM_SvdSketchShape)->Arg(10)->Arg(50)->Arg(200)->Arg(400);

void BM_SvdWindowShape(benchmark::State& state) {
  // The Lakhina decomposition: n x m window matrices.
  const auto n = static_cast<std::size_t>(state.range(0));
  const Matrix y = random_matrix(n, 81, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(svd(y, /*want_left=*/false));
  }
}
BENCHMARK(BM_SvdWindowShape)->Arg(576)->Arg(2016)->Unit(benchmark::kMillisecond);

void BM_BlockedMultiply(benchmark::State& state) {
  // The cache-tiled matmul kernel across the threads sweep. Square shapes
  // large enough to clear the kernel's inline-grain threshold.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  const std::size_t saved = global_threads();
  set_global_threads(threads);
  const Matrix a = random_matrix(n, n, 8);
  const Matrix b = random_matrix(n, n, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(multiply(a, b));
  }
  set_global_threads(saved);
}
BENCHMARK(BM_BlockedMultiply)
    ->Args({192, 1})
    ->Args({192, 2})
    ->Args({192, 4})
    ->Args({384, 1})
    ->Args({384, 2})
    ->Args({384, 4});

void BM_QrThreads(benchmark::State& state) {
  // Householder QR with parallel trailing updates, threads sweep.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  const std::size_t saved = global_threads();
  set_global_threads(threads);
  const Matrix a = random_matrix(n, n / 2, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(qr(a));
  }
  set_global_threads(saved);
}
BENCHMARK(BM_QrThreads)->Args({512, 1})->Args({512, 2})->Args({512, 4});

void BM_GramThreads(benchmark::State& state) {
  // gram() across the threads sweep at the fig. 7 trace shape.
  const auto threads = static_cast<std::size_t>(state.range(0));
  const std::size_t saved = global_threads();
  set_global_threads(threads);
  const Matrix a = random_matrix(4032, 81, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gram(a));
  }
  set_global_threads(saved);
}
BENCHMARK(BM_GramThreads)->Arg(1)->Arg(2)->Arg(4);

void BM_MatVec(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const Matrix a = random_matrix(m, m, 5);
  Xoshiro256 gen(6);
  Vector x(m);
  for (std::size_t j = 0; j < m; ++j) x[j] = standard_normal(gen);
  for (auto _ : state) {
    benchmark::DoNotOptimize(multiply(a, x));
  }
}
BENCHMARK(BM_MatVec)->Arg(81)->Arg(256);

}  // namespace

SPCA_BENCHMARK_MAIN_WITH_OBSERVABILITY();
