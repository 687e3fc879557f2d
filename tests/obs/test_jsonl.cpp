// The shared JSON-lines codec: names carrying JSON's special characters
// survive both trace exports as one line each, and the number writer keeps
// the bytes every export has written so far.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "obs/event_trace.hpp"
#include "obs/jsonl.hpp"
#include "obs/span_log.hpp"
#include "rand/splitmix64.hpp"

namespace spca {
namespace {

TEST(JsonLine, NamesWithQuotesBackslashesAndControlBytesRoundTripOnOneLine) {
  const std::string name = "a\"b\\c\nd\te\x01" "f";

  EventTrace trace(4);
  DetectionEvent event;
  event.detector = name;
  event.interval = 3;
  trace.record(event);
  const std::string events = trace.to_jsonl();
  EXPECT_EQ(std::count(events.begin(), events.end(), '\n'), 1);
  const std::vector<DetectionEvent> parsed_events =
      EventTrace::parse_jsonl(events);
  ASSERT_EQ(parsed_events.size(), 1u);
  EXPECT_EQ(parsed_events[0], event);

  // The stage stays a real one: recording feeds spca.latency.<stage>, and
  // the registry must hold documented names only.
  SpanLog log(4);
  Span span;
  span.node = name;
  span.stage = kStageDecision;
  span.interval = 3;
  log.record(span);
  const std::string spans = log.to_jsonl();
  EXPECT_EQ(std::count(spans.begin(), spans.end(), '\n'), 1);
  const std::vector<Span> parsed_spans = SpanLog::parse_jsonl(spans);
  ASSERT_EQ(parsed_spans.size(), 1u);
  EXPECT_EQ(parsed_spans[0], span);
}

TEST(JsonLine, NumberWriterMatchesAStreamAtMaxDigits10) {
  std::vector<double> values = {0.0,
                                -0.0,
                                0.1,
                                1.0 / 3.0,
                                1e-300,
                                1e300,
                                998151833861420.25,
                                std::numeric_limits<double>::denorm_min(),
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity()};
  SplitMix64 rng(7);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t bits = rng();
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof(value));
    if (!std::isnan(value)) values.push_back(value);  // JSON has no NaN
  }
  for (const double value : values) {
    std::ostringstream expected;
    expected << std::setprecision(std::numeric_limits<double>::max_digits10)
             << value;
    std::string actual;
    append_json_number(actual, value);
    ASSERT_EQ(actual, expected.str());
  }
}

}  // namespace
}  // namespace spca
