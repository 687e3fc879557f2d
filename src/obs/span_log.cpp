#include "obs/span_log.hpp"

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <sstream>

#include "common/error.hpp"
#include "obs/jsonl.hpp"
#include "obs/metrics.hpp"

namespace spca {

namespace {

/// Unlike an event line, a span line must carry every key.
[[nodiscard]] Span parse_span(std::string_view line) {
  Span span;
  const std::uint64_t seen =
      read_json_line(line, "SpanLog",
                     {{"node", &span.node},
                      {"stage", &span.stage},
                      {"interval", &span.interval},
                      {"start_unix_s", &span.start_unix_seconds},
                      {"duration_s", &span.duration_seconds}});
  if (seen != (1u << 5) - 1) {
    throw InputError("SpanLog: missing required span keys in JSON line");
  }
  return span;
}

}  // namespace

std::string to_json(const Span& span) {
  return JsonLineWriter()
      .string("node", span.node)
      .string("stage", span.stage)
      .integer("interval", span.interval)
      .number("start_unix_s", span.start_unix_seconds)
      .number("duration_s", span.duration_seconds)
      .finish();
}

void SpanLog::record(Span span) {
  MetricsRegistry::global()
      .histogram("spca.latency." + span.stage)
      .record(span.duration_seconds);
  ring_.push(std::move(span));
}

std::string SpanLog::to_jsonl() const { return to_json_lines(snapshot()); }

std::vector<Span> SpanLog::parse_jsonl(const std::string& text) {
  return parse_json_lines(text, parse_span);
}

SpanLog& SpanLog::global() {
  static SpanLog log;
  return log;
}

ScopedSpan::ScopedSpan(std::string node, const char* stage,
                       std::int64_t interval)
    : start_(std::chrono::steady_clock::now()) {
  span_.node = std::move(node);
  span_.stage = stage;
  span_.interval = interval;
  span_.start_unix_seconds = unix_now_seconds();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.duration_seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start_)
                               .count();
  SpanLog::global().record(std::move(span_));
}

std::vector<std::string> structural_signature(const std::vector<Span>& spans) {
  std::vector<std::string> out;
  out.reserve(spans.size());
  for (const Span& span : spans) {
    out.push_back(std::to_string(span.interval) + '/' + span.node + '/' +
                  span.stage);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string render_breakdown(const std::vector<Span>& spans) {
  std::vector<Span> sorted = spans;
  std::sort(sorted.begin(), sorted.end(), [](const Span& a, const Span& b) {
    if (a.interval != b.interval) return a.interval < b.interval;
    if (a.start_unix_seconds != b.start_unix_seconds) {
      return a.start_unix_seconds < b.start_unix_seconds;
    }
    if (a.node != b.node) return a.node < b.node;
    return a.stage < b.stage;
  });
  std::ostringstream oss;
  std::int64_t current = 0;
  bool open = false;
  for (const Span& span : sorted) {
    if (!open || span.interval != current) {
      if (open) oss << '\n';
      current = span.interval;
      open = true;
      oss << "interval " << current << '\n';
    }
    oss << "  " << std::left << std::setw(16) << span.stage << ' '
        << std::setw(12) << span.node << ' ' << std::right << std::fixed
        << std::setprecision(1) << span.duration_seconds * 1e6 << " us\n";
  }
  return oss.str();
}

}  // namespace spca
