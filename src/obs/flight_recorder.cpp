#include "obs/flight_recorder.hpp"

#include <unistd.h>

#include <csignal>
#include <ctime>
#include <filesystem>
#include <fstream>

#include "common/log.hpp"
#include "obs/jsonl.hpp"
#include "obs/metrics.hpp"

namespace spca {

namespace {

/// Dump reasons land in file names: keep [a-z0-9_-], map the rest to '_'.
[[nodiscard]] std::string sanitize_reason(const std::string& reason) {
  std::string out = reason.empty() ? std::string("manual") : reason;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) c = '_';
  }
  return out.substr(0, 48);
}

[[nodiscard]] std::string utc_stamp() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y%m%dT%H%M%SZ", &tm);
  return buf;
}

}  // namespace

std::string to_json(const FlightEntry& entry) {
  JsonLineWriter line;
  line.integer("seq", entry.seq)
      .number("unix_s", entry.unix_seconds)
      .string("kind", entry.kind)
      .string("label", entry.label)
      .integer("interval", entry.interval);
  if (entry.kind == "metrics") {
    // The detail is itself the registry's JSON rendering; embed it as a
    // value so the dump stays one parseable object per line.
    line.raw("metrics", entry.detail);
  } else {
    line.string("detail", entry.detail);
  }
  return line.finish();
}

void FlightRecorder::configure(std::string dump_dir, std::size_t capacity) {
  ring_.reset(capacity);
  std::error_code ec;
  std::filesystem::create_directories(dump_dir, ec);
  if (ec) {
    log_warn("flight recorder: cannot create dump dir '", dump_dir,
             "': ", ec.message());
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    dump_dir_ = std::move(dump_dir);
  }
  enabled_.store(true, std::memory_order_release);
}

bool FlightRecorder::enabled() const {
  return enabled_.load(std::memory_order_acquire);
}

void FlightRecorder::note(std::string label, std::int64_t interval,
                          std::string detail) {
  if (!enabled()) return;
  ring_.push({0, unix_now_seconds(), "event", std::move(label), interval,
              std::move(detail)});
}

void FlightRecorder::capture_metrics(std::string label, std::int64_t interval) {
  if (!enabled()) return;
  ring_.push({0, unix_now_seconds(), "metrics", std::move(label), interval,
              MetricsRegistry::global().render_json()});
}

BoundedRing<FlightEntry>::Snapshot FlightRecorder::numbered_snapshot() const {
  BoundedRing<FlightEntry>::Snapshot snap = ring_.snapshot();
  std::uint64_t seq = snap.recorded - snap.items.size();
  for (FlightEntry& entry : snap.items) entry.seq = seq++;
  return snap;
}

std::string FlightRecorder::dump(const std::string& reason) noexcept {
  try {
    if (!enabled()) return std::string();
    std::string dir;
    std::uint64_t dump_index = 0;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      dir = dump_dir_;
      dump_index = dumps_++;
    }
    const BoundedRing<FlightEntry>::Snapshot snap = numbered_snapshot();
    const std::string path = dir + "/flight-" + utc_stamp() + "-" +
                             std::to_string(::getpid()) + "-" +
                             std::to_string(dump_index) + "-" +
                             sanitize_reason(reason) + ".jsonl";
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
      log_warn("flight recorder: cannot open '", path, "' for writing");
      return std::string();
    }
    out << JsonLineWriter()
               .string("kind", "dump_header")
               .string("reason", reason)
               .number("unix_s", unix_now_seconds())
               .integer("pid", ::getpid())
               .integer("entries", snap.items.size())
               .integer("recorded", snap.recorded)
               .finish()
        << '\n'
        << to_json_lines(snap.items);
    out.flush();
    if (!out) {
      log_warn("flight recorder: failed writing '", path, "'");
      return std::string();
    }
    MetricsRegistry::global().counter("spca.flight.dumps").inc();
    log_info("flight recorder: dumped ", snap.items.size(), " entries to ",
             path, " (reason: ", reason, ")");
    return path;
  } catch (...) {
    return std::string();
  }
}

void FlightRecorder::request_dump() noexcept {
  dump_requested_.store(true, std::memory_order_release);
}

std::string FlightRecorder::poll_dump_request() {
  if (!dump_requested_.exchange(false, std::memory_order_acq_rel)) {
    return std::string();
  }
  return dump("signal");
}

std::vector<FlightEntry> FlightRecorder::snapshot() const {
  return numbered_snapshot().items;
}

std::uint64_t FlightRecorder::recorded() const { return ring_.recorded(); }

void FlightRecorder::reset() {
  enabled_.store(false, std::memory_order_release);
  dump_requested_.store(false, std::memory_order_release);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    dump_dir_.clear();
    dumps_ = 0;
  }
  ring_.clear();
}

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder recorder;
  return recorder;
}

namespace {

void usr1_handler(int) { FlightRecorder::global().request_dump(); }

std::atomic<bool> fatal_dump_in_progress{false};

void fatal_handler(int signo) {
  // Last-gasp best effort: dump() allocates and locks, which is not
  // async-signal-safe — acceptable here because the process is about to
  // die anyway and the recursion guard stops a handler-within-handler
  // loop. Default disposition is restored first so the re-raise kills the
  // process with the original signal even if dump() wedges a second fault.
  std::signal(signo, SIG_DFL);
  if (!fatal_dump_in_progress.exchange(true)) {
    FlightRecorder::global().dump("fatal-signal-" + std::to_string(signo));
  }
  std::raise(signo);
}

}  // namespace

void install_flight_recorder_signals() {
  static bool installed = false;
  if (installed) return;
  installed = true;
  struct sigaction usr1 {};
  usr1.sa_handler = usr1_handler;
  sigemptyset(&usr1.sa_mask);
  usr1.sa_flags = SA_RESTART;
  sigaction(SIGUSR1, &usr1, nullptr);
  for (const int signo : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL}) {
    struct sigaction fatal {};
    fatal.sa_handler = fatal_handler;
    sigemptyset(&fatal.sa_mask);
    fatal.sa_flags = 0;
    sigaction(signo, &fatal, nullptr);
  }
}

}  // namespace spca
