// The detection-event trace's JSON-lines export format (the ring under it
// is tested as BoundedRing).
#include <gtest/gtest.h>

#include <cstdint>

#include "common/error.hpp"
#include "obs/event_trace.hpp"

namespace spca {
namespace {

DetectionEvent make_event(std::int64_t t) {
  DetectionEvent e;
  e.detector = "sketch-pca";
  e.interval = t;
  e.distance_squared = 1.5e9 + static_cast<double>(t);
  e.threshold_squared = 2.25e9;
  e.rank = 6;
  e.refreshed = (t % 3) == 0;
  e.alarm = (t % 2) == 0;
  return e;
}

TEST(EventTrace, JsonObjectHasTheDocumentedKeys) {
  const std::string json = to_json(make_event(7));
  for (const char* key : {"\"detector\"", "\"interval\"", "\"distance2\"",
                          "\"threshold2\"", "\"rank\"", "\"refreshed\"",
                          "\"alarm\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(EventTrace, JsonlRoundTripIsExact) {
  EventTrace trace(64);
  for (std::int64_t t = 0; t < 20; ++t) trace.record(make_event(t));
  // Doubles must survive the text round trip bit-for-bit (max_digits10).
  DetectionEvent awkward;
  awkward.detector = "noc";
  awkward.interval = -3;
  awkward.distance_squared = 0.1;  // not exactly representable
  awkward.threshold_squared = 998151833861420.25;
  awkward.rank = 1;
  trace.record(awkward);

  const auto parsed = EventTrace::parse_jsonl(trace.to_jsonl());
  const auto original = trace.snapshot();
  ASSERT_EQ(parsed.size(), original.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i], original[i]) << "event " << i;
  }
}

TEST(EventTrace, ParseSkipsBlankLines) {
  const std::string text = "\n" + to_json(make_event(1)) + "\n   \n" +
                           to_json(make_event(2)) + "\n\n";
  const auto events = EventTrace::parse_jsonl(text);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0], make_event(1));
  EXPECT_EQ(events[1], make_event(2));
}

TEST(EventTrace, ParseRejectsMalformedLines) {
  EXPECT_THROW((void)EventTrace::parse_jsonl("not json"), InputError);
  EXPECT_THROW((void)EventTrace::parse_jsonl("{\"detector\":\"x\""),
               InputError);
  EXPECT_THROW((void)EventTrace::parse_jsonl("{\"interval\":abc}"),
               InputError);
  EXPECT_THROW((void)EventTrace::parse_jsonl("{\"unknown\":1}"), InputError);
  EXPECT_THROW((void)EventTrace::parse_jsonl("{\"rank\":-1}"), InputError);
  EXPECT_THROW((void)EventTrace::parse_jsonl("{\"interval\":1e300}"),
               InputError);
  EXPECT_THROW(
      (void)EventTrace::parse_jsonl(to_json(make_event(1)) + " trailing"),
      InputError);
}

TEST(EventTrace, DetectorNamesWithQuotesRoundTrip) {
  DetectionEvent e = make_event(0);
  e.detector = "odd\"name\\with escapes";
  EventTrace trace(2);
  trace.record(e);
  const auto parsed = EventTrace::parse_jsonl(trace.to_jsonl());
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].detector, e.detector);
}

TEST(EventTrace, GlobalTraceIsASingleton) {
  EXPECT_EQ(&EventTrace::global(), &EventTrace::global());
}

}  // namespace
}  // namespace spca
