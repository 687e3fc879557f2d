#include "obs/jsonl.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <chrono>
#include <limits>
#include <type_traits>

#include "common/contracts.hpp"
#include "common/error.hpp"

namespace spca {

namespace {

/// The control characters JSON escapes by name, and their names.
constexpr std::string_view kNamedControls = "\b\f\n\r\t";
constexpr std::string_view kControlNames = "bfnrt";

/// Cursor over one line in the grammar `append_json_*` writes.
class LineReader final {
 public:
  LineReader(std::string_view line, const char* what)
      : line_(line), what_(what) {}

  /// Reads the next key (and its ':') after the opening brace or the
  /// previous value; false once the closing brace ends the line.
  bool next_key(std::string& key) {
    skip_whitespace();
    if (!opened_) {
      expect('{');
      opened_ = true;
    } else if (peek() != '}') {
      expect(',');
    }
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      skip_whitespace();
      if (pos_ != line_.size()) fail("trailing characters");
      return false;
    }
    key = read_string();
    skip_whitespace();
    expect(':');
    skip_whitespace();
    return true;
  }

  std::string read_string() {
    expect('"');
    std::string out;
    for (char c = take(); c != '"'; c = take()) {
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      const char escaped = take();
      if (escaped == '"' || escaped == '\\' || escaped == '/') {
        out.push_back(escaped);
      } else if (const std::size_t named = kControlNames.find(escaped);
                 named != std::string_view::npos) {
        out.push_back(kNamedControls[named]);
      } else if (escaped == 'u') {
        // The writer emits \u00XX for control characters only; a code
        // point past ASCII would need a UTF-8 encoder no export calls for.
        unsigned code = 0;
        const char* first = line_.data() + pos_;
        const auto [end, ec] = std::from_chars(
            first, line_.data() + std::min(pos_ + 4, line_.size()), code, 16);
        if (ec != std::errc{} || end != first + 4 || code > 0x7F) {
          fail("unsupported \\u escape");
        }
        pos_ += 4;
        out.push_back(static_cast<char>(code));
      } else {
        fail("unknown escape");
      }
    }
    return out;
  }

  double read_number() {
    const std::size_t start = pos_;
    while (pos_ < line_.size() &&
           (std::isdigit(static_cast<unsigned char>(line_[pos_])) != 0 ||
            line_[pos_] == '-' || line_[pos_] == '+' || line_[pos_] == '.' ||
            line_[pos_] == 'e' || line_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a number");
    double value = 0.0;
    const char* end = line_.data() + pos_;
    const auto [ptr, ec] = std::from_chars(line_.data() + start, end, value);
    if (ec != std::errc{} || ptr != end) fail("malformed number");
    return value;
  }

  bool read_bool() {
    for (const bool value : {true, false}) {
      const std::string_view word = value ? "true" : "false";
      if (line_.substr(pos_, word.size()) == word) {
        pos_ += word.size();
        return value;
      }
    }
    fail("expected a boolean");
  }

  [[noreturn]] void fail(const std::string& why) const {
    throw InputError(std::string(what_) + ": " + why + " in JSON line");
  }

 private:
  [[nodiscard]] char peek() const {
    if (pos_ >= line_.size()) fail("truncated");
    return line_[pos_];
  }

  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (take() != c) fail(std::string("expected '") + c + "'");
  }

  void skip_whitespace() {
    while (pos_ < line_.size() &&
           std::isspace(static_cast<unsigned char>(line_[pos_])) != 0) {
      ++pos_;
    }
  }

  std::string_view line_;
  const char* what_;
  std::size_t pos_ = 0;
  bool opened_ = false;
};

}  // namespace

void append_json_string(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  for (const char c : s) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (byte >= 0x20) {
      out += c;
    } else if (const std::size_t named = kNamedControls.find(c);
               named != std::string_view::npos) {
      out += '\\';
      out += kControlNames[named];
    } else {
      out += "\\u00";
      out += kHex[byte >> 4];
      out += kHex[byte & 0xF];
    }
  }
  out += '"';
}

void append_json_number(std::string& out, double value) {
  // %.17g needs at most 24 characters ("-1.2345678901234567e-308").
  char buf[32];
  const auto result =
      std::to_chars(buf, buf + sizeof(buf), value, std::chars_format::general,
                    std::numeric_limits<double>::max_digits10);
  out.append(buf, result.ptr);
}

std::uint64_t read_json_line(
    std::string_view line, const char* what,
    std::initializer_list<std::pair<std::string_view, JsonField>> fields) {
  SPCA_EXPECTS(fields.size() <= 64);  // one bit of `seen` per field
  LineReader in(line, what);
  std::uint64_t seen = 0;
  std::string key;
  while (in.next_key(key)) {
    const auto* field =
        std::find_if(fields.begin(), fields.end(),
                     [&key](const auto& f) { return f.first == key; });
    if (field == fields.end()) in.fail("unknown key '" + key + "'");
    seen |= std::uint64_t{1} << (field - fields.begin());
    std::visit(
        [&in](auto* target) {
          using T = std::remove_pointer_t<decltype(target)>;
          if constexpr (std::is_same_v<T, std::string>) {
            *target = in.read_string();
          } else if constexpr (std::is_same_v<T, bool>) {
            *target = in.read_bool();
          } else if constexpr (std::is_same_v<T, double>) {
            *target = in.read_number();
          } else {
            // Converting a double the integer cannot hold is undefined.
            const double value = in.read_number();
            using Limits = std::numeric_limits<T>;
            if (!(value > static_cast<double>(Limits::min()) - 1.0 &&
                  value < static_cast<double>(Limits::max()) + 1.0)) {
              in.fail("integer out of range");
            }
            *target = static_cast<T>(value);
          }
        },
        field->second);
  }
  return seen;
}

double unix_now_seconds() {
  const auto now = std::chrono::system_clock::now().time_since_epoch();
  return std::chrono::duration<double>(now).count();
}

}  // namespace spca
