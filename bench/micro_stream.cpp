// Microbenchmarks of the streaming summaries: the per-element costs that
// Theorem 1 claims are O(l) amortized at a local monitor — plus the ingest
// front end (trace readers, the SPSC ring, and the batched sketch path)
// whose per-record costs bound the replay driver's sustainable rate.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ingest/record_file.hpp"
#include "ingest/spsc_ring.hpp"
#include "obs/bench_main.hpp"
#include "rand/distributions.hpp"
#include "rand/xoshiro256.hpp"
#include "sketch/flow_sketch.hpp"
#include "stream/exponential_histogram.hpp"
#include "stream/variance_histogram.hpp"
#include "traffic/trace.hpp"

namespace {

using namespace spca;

void BM_VarianceHistogramAdd(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const double epsilon = static_cast<double>(state.range(1)) / 100.0;
  VarianceHistogram vh(n, epsilon);
  Xoshiro256 gen(1);
  std::int64_t t = 0;
  for (auto _ : state) {
    vh.add(t++, 1e8 + 1e7 * standard_normal(gen));
  }
  state.counters["buckets"] = static_cast<double>(vh.bucket_count());
}
BENCHMARK(BM_VarianceHistogramAdd)
    ->Args({4032, 1})
    ->Args({4032, 10})
    ->Args({20160, 10})
    ->Args({65536, 20});

void BM_VarianceHistogramAggregate(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  VarianceHistogram vh(n, 0.1, /*payload_size=*/32);
  Xoshiro256 gen(2);
  std::vector<double> payload(32);
  for (std::int64_t t = 0; t < static_cast<std::int64_t>(n); ++t) {
    for (auto& p : payload) p = standard_normal(gen);
    vh.add(t, 1e8 + 1e7 * standard_normal(gen), payload);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(vh.aggregate());
  }
}
BENCHMARK(BM_VarianceHistogramAggregate)->Arg(4032)->Arg(20160);

void BM_ExponentialHistogramAdd(benchmark::State& state) {
  ExponentialHistogram eh(static_cast<std::uint64_t>(state.range(0)), 0.1);
  std::int64_t t = 0;
  for (auto _ : state) {
    eh.add(t++);
  }
  state.counters["buckets"] = static_cast<double>(eh.bucket_count());
}
BENCHMARK(BM_ExponentialHistogramAdd)->Arg(4096)->Arg(65536);

/// A deterministic 64-flow x 256-interval trace for the reader benches.
TraceSet bench_trace() {
  const std::size_t n = 256;
  const std::size_t w = 64;
  Matrix volumes(n, w);
  Xoshiro256 gen(11);
  std::vector<std::string> names;
  names.reserve(w);
  for (std::size_t j = 0; j < w; ++j) names.push_back("f" + std::to_string(j));
  for (std::size_t t = 0; t < n; ++t) {
    for (std::size_t j = 0; j < w; ++j) {
      volumes(t, j) = 1e8 + 1e7 * standard_normal(gen);
    }
  }
  return TraceSet(std::move(volumes), 300.0, std::move(names));
}

/// Per-batch cost of pulling RecordBatches off a trace file. Arg 0 selects
/// the format (0 = binary, 1 = CSV); the reader is reopened at EOF so the
/// steady state is parse work, not setup.
void BM_ReaderParse(benchmark::State& state) {
  const RecordFormat format =
      state.range(0) == 0 ? RecordFormat::kBinary : RecordFormat::kCsv;
  const std::string path =
      (std::filesystem::temp_directory_path() /
       (format == RecordFormat::kBinary ? "spca_bench_reader.spcr"
                                        : "spca_bench_reader.csv"))
          .string();
  RecordExportOptions options;
  options.format = format;
  options.records_per_cell = 2;
  export_records(bench_trace(), path, options);

  auto reader = std::make_unique<RecordFileReader>(path);
  RecordBatch batch;
  std::uint64_t records = 0;
  for (auto _ : state) {
    std::size_t got = reader->next_batch(batch);
    if (got == 0) {
      state.PauseTiming();
      reader = std::make_unique<RecordFileReader>(path);
      state.ResumeTiming();
      got = reader->next_batch(batch);
    }
    records += got;
    benchmark::DoNotOptimize(batch.records[0].bytes);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
  std::filesystem::remove(path);
}
BENCHMARK(BM_ReaderParse)->Arg(0)->Arg(1);

/// Per-item cost of the lock-free handoff with a live producer thread on
/// the other side of the ring (the replay driver's steady state).
void BM_SpscRing(benchmark::State& state) {
  SpscRing<std::uint64_t> ring(static_cast<std::size_t>(state.range(0)));
  std::thread producer([&ring] {
    std::uint64_t i = 0;
    while (ring.push(std::uint64_t(i))) ++i;
  });
  std::uint64_t item = 0;
  for (auto _ : state) {
    if (!ring.pop(item)) break;
    benchmark::DoNotOptimize(item);
  }
  ring.close();
  // Drain so a producer blocked on a full ring observes the close.
  while (ring.try_pop(item)) {
  }
  producer.join();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SpscRing)->Arg(64)->Arg(1024);

/// Per-call cost of add_batch at a given batch size, plus the block's
/// window rows (SIMD-filled; an owner computes them once for all its
/// flows): the hot path the ingest consumer drives.
void BM_SketchAddBatch(benchmark::State& state) {
  const auto batch_size = static_cast<std::size_t>(state.range(0));
  const ProjectionSource projection(ProjectionKind::kTugOfWar, 7);
  ProjectionWindow window(projection, /*sketch_rows=*/16, /*window=*/4032,
                          /*epsilon=*/0.1);
  window.reserve_block(batch_size);
  FlowSketch sketch(window);
  Xoshiro256 gen(3);
  std::vector<SketchUpdate> updates(batch_size);
  std::int64_t t = 0;
  for (auto _ : state) {
    state.PauseTiming();
    for (auto& u : updates) {
      u.t = t++;
      u.volume = 1e8 + 1e7 * standard_normal(gen);
    }
    state.ResumeTiming();
    // The block's rows enter the window first, as in absorb_block.
    for (const SketchUpdate& u : updates) window.advance(u.t);
    sketch.add_batch(updates, window);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(batch_size));
}
BENCHMARK(BM_SketchAddBatch)->Arg(1)->Arg(64)->Arg(512);

}  // namespace

SPCA_BENCHMARK_MAIN_WITH_OBSERVABILITY();
