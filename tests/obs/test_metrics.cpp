// Instrument semantics of the obs layer: counter/gauge/histogram behavior,
// quantile accuracy on known distributions, thread-safety of the hot-path
// operations, and registry rendering.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace spca {
namespace {

TEST(Counter, IncrementsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, SetAddReset) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(3.5);
  EXPECT_EQ(g.value(), 3.5);
  g.add(-1.25);
  EXPECT_EQ(g.value(), 2.25);
  g.set(7.0);  // last write wins over accumulated state
  EXPECT_EQ(g.value(), 7.0);
  g.reset();
  EXPECT_EQ(g.value(), 0.0);
}

TEST(Histogram, EmptyHistogramReportsZeros) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.quantile(0.5), 0.0);
}

TEST(Histogram, TracksExactCountSumMinMax) {
  Histogram h;
  h.record(0.010);
  h.record(0.002);
  h.record(0.500);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_NEAR(h.sum(), 0.512, 1e-12);
  EXPECT_NEAR(h.mean(), 0.512 / 3.0, 1e-12);
  EXPECT_EQ(h.min(), 0.002);
  EXPECT_EQ(h.max(), 0.500);
}

TEST(Histogram, BucketIndexIsMonotone) {
  std::size_t prev = 0;
  for (double v = Histogram::kMinTracked; v < 1.0; v *= 1.3) {
    const std::size_t idx = Histogram::bucket_index(v);
    EXPECT_GE(idx, prev);
    prev = idx;
  }
  EXPECT_EQ(Histogram::bucket_index(0.0), 0u);
  EXPECT_EQ(Histogram::bucket_index(1e300), Histogram::kBucketCount - 1);
  // 8 buckets per octave: doubling a value advances the index by 8.
  EXPECT_EQ(Histogram::bucket_index(2e-3),
            Histogram::bucket_index(1e-3) + Histogram::kBucketsPerOctave);
}

TEST(Histogram, QuantilesOfUniformDistributionWithinBucketResolution) {
  Histogram h;
  // 1 ms .. 1000 ms uniformly: the q-quantile is ~q * 1s.
  for (int i = 1; i <= 1000; ++i) h.record(i * 1e-3);
  for (const double q : {0.10, 0.50, 0.90, 0.95, 0.99}) {
    const double expected = q * 1.0;
    // Geometric buckets are ~9% wide; allow one full bucket of slack.
    EXPECT_NEAR(h.quantile(q), expected, expected * 0.10) << "q=" << q;
  }
  // Extreme quantiles clamp to the exact observed range.
  EXPECT_EQ(h.quantile(0.0), 1e-3);
  EXPECT_EQ(h.quantile(1.0), 1.0);
}

TEST(Histogram, QuantileOfPointMassIsExact) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.record(0.125);
  // All mass in one bucket, clamped to [min, max] = [0.125, 0.125].
  EXPECT_EQ(h.quantile(0.5), 0.125);
  EXPECT_EQ(h.quantile(0.99), 0.125);
}

TEST(Histogram, ResetRestoresEmptyState) {
  Histogram h;
  h.record(1.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  h.record(0.25);
  EXPECT_EQ(h.min(), 0.25);
  EXPECT_EQ(h.max(), 0.25);
}

TEST(MetricsRegistry, ResolvingTheSameNameYieldsTheSameInstrument) {
  MetricsRegistry registry;
  Counter& a = registry.counter("x.count");
  Counter& b = registry.counter("x.count");
  EXPECT_EQ(&a, &b);
  a.inc(5);
  EXPECT_EQ(b.value(), 5u);
  // Distinct kinds with the same name are distinct instruments.
  Gauge& g = registry.gauge("x.count");
  g.set(1.0);
  EXPECT_EQ(a.value(), 5u);
}

TEST(MetricsRegistry, ConcurrentIncrementsAreLossless) {
  MetricsRegistry registry;
  Counter& c = registry.counter("hits");
  Gauge& g = registry.gauge("level");
  Histogram& h = registry.histogram("latency");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        c.inc();
        g.add(1.0);
        h.record(1e-3);
      }
    });
  }
  for (auto& t : workers) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(g.value(), static_cast<double>(kThreads) * kPerThread);
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_NEAR(h.sum(), kThreads * kPerThread * 1e-3, 1e-6);
  EXPECT_EQ(h.min(), 1e-3);
  EXPECT_EQ(h.max(), 1e-3);
}

TEST(MetricsRegistry, RenderTextListsEveryInstrument) {
  MetricsRegistry registry;
  registry.counter("z.total").inc(3);
  registry.gauge("a.bytes").set(128.0);
  registry.histogram("m.seconds").record(0.5);
  const std::string text = registry.render_text();
  EXPECT_NE(text.find("z.total"), std::string::npos);
  EXPECT_NE(text.find("a.bytes"), std::string::npos);
  EXPECT_NE(text.find("m.seconds"), std::string::npos);
}

TEST(MetricsRegistry, RenderJsonCarriesValuesAndQuantiles) {
  MetricsRegistry registry;
  registry.counter("pulls").inc(7);
  registry.gauge("bytes").set(42.5);
  for (int i = 0; i < 10; ++i) registry.histogram("svd").record(0.25);
  const std::string json = registry.render_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"pulls\":7"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"bytes\":42.5"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"svd\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":10"), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(MetricsRegistry, ResetZeroesWithoutInvalidatingReferences) {
  MetricsRegistry registry;
  Counter& c = registry.counter("n");
  Histogram& h = registry.histogram("t");
  c.inc(9);
  h.record(1.0);
  registry.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  c.inc();
  EXPECT_EQ(registry.counter("n").value(), 1u);
}

TEST(MetricsRegistry, GlobalRegistryIsASingleton) {
  EXPECT_EQ(&MetricsRegistry::global(), &MetricsRegistry::global());
}

TEST(MetricsRegistry, EmptyHistogramRendersNullStatsInJson) {
  MetricsRegistry registry;
  (void)registry.histogram("never.recorded");
  const std::string json = registry.render_json();
  EXPECT_NE(json.find("\"count\":0"), std::string::npos);
  EXPECT_NE(json.find("\"mean\":null"), std::string::npos);
  EXPECT_NE(json.find("\"min\":null"), std::string::npos);
  EXPECT_NE(json.find("\"max\":null"), std::string::npos);
  EXPECT_NE(json.find("\"p50\":null"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":null"), std::string::npos);
  // A single observation flips every stat to a real number.
  registry.histogram("never.recorded").record(0.5);
  const std::string after = registry.render_json();
  EXPECT_EQ(after.find("null"), std::string::npos);
}

TEST(MetricsRegistry, RenderJsonEscapesMetricNames) {
  MetricsRegistry registry;
  registry.counter("weird\"name\\with\nnasties").inc();
  const std::string json = registry.render_json();
  EXPECT_NE(json.find("weird\\\"name\\\\with\\nnasties"), std::string::npos);
  // The rendered text must not contain a raw newline inside the name.
  EXPECT_EQ(json.find("with\nnasties"), std::string::npos);
}

TEST(MetricsRegistry, RenderPrometheusMapsNamesAndEmitsTypes) {
  MetricsRegistry registry;
  registry.counter("spca.noc.sketch_pulls").inc(4);
  registry.gauge("spca.sketch.memory_bytes").set(2048.0);
  for (int i = 0; i < 8; ++i) {
    registry.histogram("spca.noc.detect_seconds").record(0.25);
  }
  const std::string text = registry.render_prometheus();
  EXPECT_NE(text.find("# TYPE spca_noc_sketch_pulls counter"),
            std::string::npos);
  EXPECT_NE(text.find("spca_noc_sketch_pulls 4"), std::string::npos);
  EXPECT_NE(text.find("# TYPE spca_sketch_memory_bytes gauge"),
            std::string::npos);
  EXPECT_NE(text.find("spca_sketch_memory_bytes 2048"), std::string::npos);
  EXPECT_NE(text.find("# TYPE spca_noc_detect_seconds summary"),
            std::string::npos);
  EXPECT_NE(text.find("spca_noc_detect_seconds{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("spca_noc_detect_seconds_sum"), std::string::npos);
  EXPECT_NE(text.find("spca_noc_detect_seconds_count 8"), std::string::npos);
  // Documented names carry their catalog help line.
  EXPECT_NE(text.find("# HELP spca_noc_sketch_pulls"), std::string::npos);
}

TEST(MetricsRegistry, RenderPrometheusSkipsQuantilesOfEmptyHistograms) {
  MetricsRegistry registry;
  (void)registry.histogram("spca.noc.refit_seconds");
  const std::string text = registry.render_prometheus();
  EXPECT_EQ(text.find("quantile"), std::string::npos);
  // _sum and _count still appear so the series exists from first scrape.
  EXPECT_NE(text.find("spca_noc_refit_seconds_sum 0"), std::string::npos);
  EXPECT_NE(text.find("spca_noc_refit_seconds_count 0"), std::string::npos);
}

TEST(MetricsRegistry, NameAccessorsReportRegisteredInstrumentsSorted) {
  MetricsRegistry registry;
  (void)registry.counter("b.count");
  (void)registry.counter("a.count");
  (void)registry.gauge("g.value");
  (void)registry.histogram("h.seconds");
  const std::vector<std::string> counters = registry.counter_names();
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0], "a.count");
  EXPECT_EQ(counters[1], "b.count");
  EXPECT_EQ(registry.gauge_names(),
            std::vector<std::string>{std::string("g.value")});
  EXPECT_EQ(registry.histogram_names(),
            std::vector<std::string>{std::string("h.seconds")});
}

TEST(MetricsRegistry, ConcurrentWritersAndRenderingReaderAreRaceFree) {
  // Exercised under TSan in CI: writers hammer all three instrument kinds
  // (and keep registering fresh names) while a reader renders every
  // exposition format — the documented "mutex guards registration and
  // rendering only" contract must hold under real contention.
  MetricsRegistry registry;
  std::atomic<bool> stop{false};
  // The writers start once the reader has rendered: on a loaded host the
  // reader thread could otherwise first run after every writer finished.
  std::atomic<bool> reading{false};
  (void)registry.counter("stress.count");
  (void)registry.gauge("stress.level");
  (void)registry.histogram("stress.seconds");
  constexpr int kWriters = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&registry, &reading, w] {
      while (!reading.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      Counter& c = registry.counter("stress.count");
      Gauge& g = registry.gauge("stress.level");
      Histogram& h = registry.histogram("stress.seconds");
      for (int i = 0; i < kPerThread; ++i) {
        c.inc();
        g.add(1.0);
        h.record(1e-3 * (1 + (i % 7)));
        if (i % 512 == 0) {
          (void)registry.counter("stress.dynamic." + std::to_string(w) + "." +
                                 std::to_string(i));
        }
      }
    });
  }
  std::thread reader([&registry, &stop, &reading] {
    std::size_t renders = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string json = registry.render_json();
      const std::string prom = registry.render_prometheus();
      const std::string text = registry.render_text();
      EXPECT_FALSE(json.empty());
      EXPECT_FALSE(prom.empty());
      EXPECT_FALSE(text.empty());
      ++renders;
      reading.store(true, std::memory_order_release);
    }
    EXPECT_GT(renders, 0u);
  });
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(registry.counter("stress.count").value(),
            static_cast<std::uint64_t>(kWriters) * kPerThread);
  EXPECT_EQ(registry.histogram("stress.seconds").count(),
            static_cast<std::uint64_t>(kWriters) * kPerThread);
}

}  // namespace
}  // namespace spca
