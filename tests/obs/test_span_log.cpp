// Interval tracing semantics: JSONL round trips (including multi-process
// concatenation), the ScopedSpan probe, the latency-histogram feed, and the
// structural signature the sim-vs-TCP parity tests compare. The ring under
// the span log is tested as BoundedRing.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/span_log.hpp"

namespace spca {
namespace {

Span make_span(const char* node, const char* stage, std::int64_t interval,
               double start = 100.0, double duration = 0.25) {
  Span span;
  span.node = node;
  span.stage = stage;
  span.interval = interval;
  span.start_unix_seconds = start;
  span.duration_seconds = duration;
  return span;
}

TEST(SpanLog, RecordsInOrderAndCountsLifetimeTotal) {
  SpanLog log(8);
  EXPECT_EQ(log.recorded(), 0u);
  EXPECT_TRUE(log.snapshot().empty());
  log.record(make_span("noc", kStageRefit, 3));
  log.record(make_span("monitor1", kStageWireTx, 3));
  const std::vector<Span> spans = log.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].node, "noc");
  EXPECT_EQ(spans[1].node, "monitor1");
  EXPECT_EQ(log.recorded(), 2u);
}

TEST(SpanLog, JsonlRoundTripIsLossless) {
  SpanLog log(16);
  log.record(make_span("monitor2", kStageIngestAbsorb, 7, 1e9 + 0.5, 1e-4));
  log.record(make_span("noc", kStageNocFeed, 7, 1e9 + 0.6, 2.5e-3));
  const std::string jsonl = log.to_jsonl();
  const std::vector<Span> parsed = SpanLog::parse_jsonl(jsonl);
  EXPECT_EQ(parsed, log.snapshot());
}

TEST(SpanLog, ParseJsonlSkipsBlankLinesSoFilesConcatenate) {
  SpanLog monitor_log(4);
  monitor_log.record(make_span("monitor1", kStageSketchClose, 2));
  SpanLog noc_log(4);
  noc_log.record(make_span("noc", kStageRefit, 2));
  const std::string merged =
      monitor_log.to_jsonl() + "\n" + noc_log.to_jsonl();
  const std::vector<Span> parsed = SpanLog::parse_jsonl(merged);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].node, "monitor1");
  EXPECT_EQ(parsed[1].node, "noc");
}

TEST(SpanLog, ParseJsonlRejectsMalformedLines) {
  EXPECT_THROW((void)SpanLog::parse_jsonl("{\"node\":\"noc\"}\n"),
               InputError);
  EXPECT_THROW((void)SpanLog::parse_jsonl("not json\n"), InputError);
}

TEST(SpanLog, RecordFeedsTheStageLatencyHistogram) {
  Histogram& h = MetricsRegistry::global().histogram(
      std::string("spca.latency.") + kStageSketchClose);
  const std::uint64_t before = h.count();
  SpanLog log(4);
  log.record(make_span("monitor1", kStageSketchClose, 0, 1.0, 0.125));
  EXPECT_EQ(h.count(), before + 1);
  EXPECT_GE(h.max(), 0.125);
}

TEST(ScopedSpan, RecordsIntoTheGlobalLogOnDestruction) {
  SpanLog& global = SpanLog::global();
  const std::uint64_t before = global.recorded();
  {
    const ScopedSpan span("test_node", kStageDecision, 42);
  }
  ASSERT_EQ(global.recorded(), before + 1);
  const std::vector<Span> spans = global.snapshot();
  const Span& last = spans.back();
  EXPECT_EQ(last.node, "test_node");
  EXPECT_EQ(last.stage, kStageDecision);
  EXPECT_EQ(last.interval, 42);
  EXPECT_GE(last.duration_seconds, 0.0);
  EXPECT_GT(last.start_unix_seconds, 0.0);
}

TEST(ScopedSpan, DismissCancelsTheRecording) {
  SpanLog& global = SpanLog::global();
  const std::uint64_t before = global.recorded();
  {
    ScopedSpan span("test_node", kStageRefit, 1);
    span.dismiss();
  }
  EXPECT_EQ(global.recorded(), before);
}

TEST(StructuralSignature, StripsTimingAndSortsDeterministically) {
  // Same stages recorded in different orders with different timings must
  // produce equal signatures — that is the sim-vs-TCP comparison.
  const std::vector<Span> a = {
      make_span("noc", kStageRefit, 12, 5.0, 0.1),
      make_span("monitor1", kStageWireTx, 12, 4.0, 0.2),
  };
  const std::vector<Span> b = {
      make_span("monitor1", kStageWireTx, 12, 99.0, 7.0),
      make_span("noc", kStageRefit, 12, 98.0, 8.0),
  };
  const std::vector<std::string> signature = structural_signature(a);
  EXPECT_EQ(signature, structural_signature(b));
  EXPECT_TRUE(std::is_sorted(signature.begin(), signature.end()));
  // A differing stage set must be visible.
  const std::vector<Span> c = {
      make_span("noc", kStageDecision, 12, 5.0, 0.1),
      make_span("monitor1", kStageWireTx, 12, 4.0, 0.2),
  };
  EXPECT_NE(structural_signature(a), structural_signature(c));
}

TEST(RenderBreakdown, GroupsByIntervalWithStageAndNode) {
  const std::vector<Span> spans = {
      make_span("monitor1", kStageSketchClose, 9, 10.0, 1e-4),
      make_span("noc", kStageRefit, 9, 10.1, 2e-3),
      make_span("noc", kStageDecision, 10, 11.0, 5e-5),
  };
  const std::string text = render_breakdown(spans);
  EXPECT_NE(text.find("interval 9"), std::string::npos);
  EXPECT_NE(text.find("interval 10"), std::string::npos);
  EXPECT_NE(text.find(kStageSketchClose), std::string::npos);
  EXPECT_NE(text.find("monitor1"), std::string::npos);
}

}  // namespace
}  // namespace spca
