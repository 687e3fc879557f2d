#include "obs/event_trace.hpp"

#include "obs/jsonl.hpp"

namespace spca {

namespace {

[[nodiscard]] DetectionEvent parse_event(std::string_view line) {
  DetectionEvent event;
  (void)read_json_line(line, "EventTrace",
                       {{"detector", &event.detector},
                        {"interval", &event.interval},
                        {"distance2", &event.distance_squared},
                        {"threshold2", &event.threshold_squared},
                        {"rank", &event.rank},
                        {"refreshed", &event.refreshed},
                        {"alarm", &event.alarm}});
  return event;
}

}  // namespace

std::string to_json(const DetectionEvent& event) {
  return JsonLineWriter()
      .string("detector", event.detector)
      .integer("interval", event.interval)
      .number("distance2", event.distance_squared)
      .number("threshold2", event.threshold_squared)
      .integer("rank", event.rank)
      .boolean("refreshed", event.refreshed)
      .boolean("alarm", event.alarm)
      .finish();
}

std::string EventTrace::to_jsonl() const { return to_json_lines(snapshot()); }

std::vector<DetectionEvent> EventTrace::parse_jsonl(const std::string& text) {
  return parse_json_lines(text, parse_event);
}

EventTrace& EventTrace::global() {
  static EventTrace trace;
  return trace;
}

}  // namespace spca
