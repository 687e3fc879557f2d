// The JSON codec of the obs trace plane: one string escaper, one number
// writer, and one reader of flat one-line objects that inverts them.
// EventTrace, SpanLog, FlightRecorder and MetricsRegistry's JSON rendering
// all write through it, so every export escapes and rounds the same way and
// every JSONL line stays one line.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace spca {

/// Appends `s` as a quoted JSON string. `"` and `\` are backslash-escaped,
/// and so is every control character (\b \f \n \r \t by name, the rest as
/// \u00XX), so the result never spans lines.
void append_json_string(std::string& out, std::string_view s);

/// Appends `value` with max_digits10 significant digits (printf's %.17g),
/// which reads back bit for bit.
void append_json_number(std::string& out, double value);

/// Builds one flat JSON object, field by field in call order.
class JsonLineWriter final {
 public:
  JsonLineWriter& string(std::string_view key, std::string_view value) {
    append_json_string(open(key), value);
    return *this;
  }
  JsonLineWriter& number(std::string_view key, double value) {
    append_json_number(open(key), value);
    return *this;
  }
  template <typename Integer>
  JsonLineWriter& integer(std::string_view key, Integer value) {
    open(key) += std::to_string(value);
    return *this;
  }
  JsonLineWriter& boolean(std::string_view key, bool value) {
    open(key) += value ? "true" : "false";
    return *this;
  }
  /// Embeds `json`, which must itself be one JSON value, verbatim.
  JsonLineWriter& raw(std::string_view key, std::string_view json) {
    open(key) += json;
    return *this;
  }

  /// Closes the object and returns it (no trailing newline). Call once.
  [[nodiscard]] std::string finish() {
    line_ += line_.empty() ? "{}" : "}";
    return std::move(line_);
  }

 private:
  std::string& open(std::string_view key) {
    line_ += line_.empty() ? '{' : ',';
    append_json_string(line_, key);
    line_ += ':';
    return line_;
  }

  std::string line_;
};

/// Where a JSON line's value for one key lands.
using JsonField = std::variant<std::string*, double*, std::int64_t*,
                               std::size_t*, bool*>;

/// Reads one flat JSON object line, `{"key":value,...}` whose values are
/// strings, numbers or booleans (the inverse of JsonLineWriter), storing
/// each value through the field its key names; integer fields take the
/// number truncated and reject one outside their range. Returns the keys
/// seen, bit i standing for fields[i].
/// An unknown key, a malformed value or anything after the closing brace
/// throws InputError whose message starts with `what`.
std::uint64_t read_json_line(
    std::string_view line, const char* what,
    std::initializer_list<std::pair<std::string_view, JsonField>> fields);

/// One `to_json(record)` line per record, in order.
template <typename Record>
[[nodiscard]] std::string to_json_lines(const std::vector<Record>& records) {
  std::string out;
  for (const Record& record : records) {
    out += to_json(record);
    out += '\n';
  }
  return out;
}

/// Parses every line of `text` that holds more than whitespace with
/// `parse_line(std::string_view)`. Skipping blank lines lets the exports of
/// several processes concatenate into one file that still parses.
template <typename ParseLine>
[[nodiscard]] auto parse_json_lines(std::string_view text,
                                    ParseLine parse_line) {
  std::vector<decltype(parse_line(text))> out;
  for (std::size_t start = 0; start <= text.size();) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(start, end - start);
    start = end + 1;
    if (line.find_first_not_of(" \t\r") != std::string_view::npos) {
      out.push_back(parse_line(line));
    }
  }
  return out;
}

/// Wall-clock seconds since the Unix epoch (system clock): the `unix_s`
/// stamps of spans and flight-recorder lines.
[[nodiscard]] double unix_now_seconds();

}  // namespace spca
