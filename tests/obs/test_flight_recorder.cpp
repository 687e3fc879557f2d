// Flight-recorder semantics: disabled-by-default no-ops, lifetime seq
// numbers across a ring wrap, the JSONL dump format (header line +
// oldest-first entries), the async-safe request/poll dump handshake, and
// entry serialization.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"

namespace spca {
namespace {

namespace fs = std::filesystem;

/// A fresh temp dump directory per test, removed on destruction.
class DumpDir {
 public:
  explicit DumpDir(const char* tag)
      : path_(fs::temp_directory_path() /
              (std::string("spca_flight_") + tag)) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~DumpDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] std::string str() const { return path_.string(); }
  [[nodiscard]] std::size_t files() const {
    std::size_t n = 0;
    for (const auto& entry : fs::directory_iterator(path_)) {
      (void)entry;
      ++n;
    }
    return n;
  }

 private:
  fs::path path_;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream oss;
  oss << in.rdbuf();
  return oss.str();
}

TEST(FlightRecorder, DisabledRecorderIgnoresEverything) {
  FlightRecorder recorder;
  EXPECT_FALSE(recorder.enabled());
  recorder.note("kill", 7, "monitor 1");
  recorder.capture_metrics("interval", 7);
  EXPECT_EQ(recorder.recorded(), 0u);
  EXPECT_EQ(recorder.dump("manual"), "");
  // request_dump is safe while disabled and the poll stays a no-op.
  recorder.request_dump();
  EXPECT_EQ(recorder.poll_dump_request(), "");
}

TEST(FlightRecorder, NotesAndMetricSnapshotsLandInTheRing) {
  DumpDir dir("ring");
  FlightRecorder recorder;
  recorder.configure(dir.str(), 8);
  EXPECT_TRUE(recorder.enabled());
  recorder.note("kill", 18, "monitor 2 (crash)");
  recorder.capture_metrics("noc_interval", 18);
  const std::vector<FlightEntry> entries = recorder.snapshot();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].kind, "event");
  EXPECT_EQ(entries[0].label, "kill");
  EXPECT_EQ(entries[0].interval, 18);
  EXPECT_EQ(entries[0].detail, "monitor 2 (crash)");
  EXPECT_GT(entries[0].unix_seconds, 0.0);
  EXPECT_EQ(entries[1].kind, "metrics");
  // The metrics entry embeds the full registry JSON.
  EXPECT_NE(entries[1].detail.find("\"counters\""), std::string::npos);
  // Sequence numbers are the lifetime order.
  EXPECT_EQ(entries[0].seq, 0u);
  EXPECT_EQ(entries[1].seq, 1u);
}

TEST(FlightRecorder, RingKeepsOnlyTheMostRecentEntries) {
  DumpDir dir("wrap");
  FlightRecorder recorder;
  recorder.configure(dir.str(), 4);
  for (int i = 0; i < 10; ++i) {
    recorder.note("tick", i);
  }
  // After the 4-slot ring wrapped, each survivor's seq is still its
  // lifetime index, which is the interval it noted.
  const std::vector<FlightEntry> entries = recorder.snapshot();
  ASSERT_EQ(entries.size(), 4u);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].seq, 6 + i);
    EXPECT_EQ(entries[i].seq,
              static_cast<std::uint64_t>(entries[i].interval));
  }
}

TEST(FlightRecorder, ReconfigureResizesAndEmptiesTheRing) {
  DumpDir dir("resize");
  FlightRecorder recorder;
  recorder.configure(dir.str(), 2);
  for (int i = 0; i < 3; ++i) {
    recorder.note("tick", i);
  }
  ASSERT_EQ(recorder.snapshot().size(), 2u);

  // A second configure() drops what the old ring held, restarts seq at 0
  // and keeps up to the new capacity.
  recorder.configure(dir.str(), 5);
  EXPECT_EQ(recorder.recorded(), 0u);
  EXPECT_TRUE(recorder.snapshot().empty());
  for (int i = 0; i < 7; ++i) {
    recorder.note("tock", i);
  }
  EXPECT_EQ(recorder.recorded(), 7u);
  const std::vector<FlightEntry> entries = recorder.snapshot();
  ASSERT_EQ(entries.size(), 5u);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].label, "tock");
    EXPECT_EQ(entries[i].seq, 2 + i);
    EXPECT_EQ(entries[i].interval, static_cast<std::int64_t>(2 + i));
  }
}

TEST(FlightRecorder, DumpWritesHeaderThenEntriesOldestFirst) {
  DumpDir dir("dump");
  FlightRecorder recorder;
  recorder.configure(dir.str(), 8);
  recorder.note("reset", 9, "monitor 1");
  recorder.note("divergence");
  const std::string path = recorder.dump("divergence");
  ASSERT_NE(path, "");
  EXPECT_TRUE(fs::exists(path));
  EXPECT_NE(path.find("divergence"), std::string::npos);

  const std::string text = slurp(path);
  std::istringstream lines(text);
  std::string header;
  ASSERT_TRUE(std::getline(lines, header));
  EXPECT_NE(header.find("\"reason\":\"divergence\""), std::string::npos);
  EXPECT_NE(header.find("\"entries\":2"), std::string::npos);
  std::string first, second;
  ASSERT_TRUE(std::getline(lines, first));
  ASSERT_TRUE(std::getline(lines, second));
  EXPECT_NE(first.find("\"label\":\"reset\""), std::string::npos);
  EXPECT_NE(first.find("\"interval\":9"), std::string::npos);
  EXPECT_NE(second.find("\"label\":\"divergence\""), std::string::npos);
}

TEST(FlightRecorder, ConsecutiveDumpsGetDistinctPaths) {
  DumpDir dir("multi");
  FlightRecorder recorder;
  recorder.configure(dir.str(), 8);
  recorder.note("a");
  const std::string first = recorder.dump("reason");
  const std::string second = recorder.dump("reason");
  ASSERT_NE(first, "");
  ASSERT_NE(second, "");
  EXPECT_NE(first, second);
  EXPECT_EQ(dir.files(), 2u);
}

TEST(FlightRecorder, PollDumpRequestFiresExactlyOncePerRequest) {
  DumpDir dir("poll");
  FlightRecorder recorder;
  recorder.configure(dir.str(), 8);
  recorder.note("running", 3);
  // No request pending: nothing happens.
  EXPECT_EQ(recorder.poll_dump_request(), "");
  recorder.request_dump();
  const std::string path = recorder.poll_dump_request();
  ASSERT_NE(path, "");
  EXPECT_TRUE(fs::exists(path));
  // The flag is consumed.
  EXPECT_EQ(recorder.poll_dump_request(), "");
}

TEST(FlightRecorder, ResetDisablesAndClears) {
  DumpDir dir("reset");
  FlightRecorder recorder;
  recorder.configure(dir.str(), 8);
  recorder.note("x");
  recorder.reset();
  EXPECT_FALSE(recorder.enabled());
  EXPECT_EQ(recorder.recorded(), 0u);
  recorder.note("ignored");
  EXPECT_EQ(recorder.recorded(), 0u);
}

TEST(FlightRecorder, DumpCountsIntoTheGlobalMetric) {
  DumpDir dir("metric");
  FlightRecorder recorder;
  recorder.configure(dir.str(), 8);
  recorder.note("x");
  Counter& dumps = MetricsRegistry::global().counter("spca.flight.dumps");
  const std::uint64_t before = dumps.value();
  ASSERT_NE(recorder.dump("count"), "");
  EXPECT_EQ(dumps.value(), before + 1);
}

TEST(FlightEntryJson, EscapesEventDetailAndEmbedsMetricsVerbatim) {
  FlightEntry event;
  event.seq = 5;
  event.unix_seconds = 12.5;
  event.kind = "event";
  event.label = "protocol_error";
  event.interval = -1;
  event.detail = "bad \"frame\"\nfrom peer";
  const std::string event_json = to_json(event);
  EXPECT_NE(event_json.find("\\\"frame\\\""), std::string::npos);
  EXPECT_NE(event_json.find("\\n"), std::string::npos);
  EXPECT_EQ(event_json.find('\n'), std::string::npos);

  FlightEntry metrics;
  metrics.kind = "metrics";
  metrics.label = "interval";
  metrics.interval = 3;
  metrics.detail = "{\"counters\":{}}";
  const std::string metrics_json = to_json(metrics);
  EXPECT_NE(metrics_json.find("\"metrics\":{\"counters\":{}}"),
            std::string::npos);
}

}  // namespace
}  // namespace spca
