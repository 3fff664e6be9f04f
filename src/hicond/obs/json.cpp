#include "hicond/obs/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <system_error>

#include "hicond/util/common.hpp"

namespace hicond::obs {

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

void JsonWriter::comma() {
  if (need_comma_) out_ += ',';
  need_comma_ = false;
}

JsonWriter& JsonWriter::begin_object() {
  comma();
  out_ += '{';
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  out_ += '}';
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  comma();
  out_ += '[';
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  out_ += ']';
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  comma();
  out_ += '"';
  out_ += json_escape(name);
  out_ += "\":";
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  comma();
  out_ += '"';
  out_ += json_escape(s);
  out_ += '"';
  need_comma_ = true;
  return *this;
}

void JsonWriter::append_double(double d) {
  if (!std::isfinite(d)) {
    out_ += "null";
    return;
  }
  // Shortest round-trip form, at most 24 characters
  // ("-2.2250738585072014e-308").
  char buf[32];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof buf, d);
  out_.append(buf, r.ptr);
}

JsonWriter& JsonWriter::value(double d) {
  comma();
  append_double(d);
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::values(std::span<const double> xs) {
  begin_array();
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) out_ += ',';
    append_double(xs[i]);
  }
  return end_array();
}

JsonWriter& JsonWriter::value(std::int64_t i) {
  comma();
  out_ += std::to_string(i);
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(bool b) {
  comma();
  out_ += b ? "true" : "false";
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::null() {
  comma();
  out_ += "null";
  need_comma_ = true;
  return *this;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

namespace {

class Parser {
 public:
  /// `pack`: arrays of numbers parse into Kind::number_array (see
  /// parse_json_packed); otherwise every array is a DOM array.
  Parser(std::string_view text, bool pack) : text_(text), pack_(pack) {}

  /// Containers nested deeper than this are rejected. The parser recurses
  /// once per level, so the limit is what bounds stack usage on adversarial
  /// input ("[[[[..."); 128 is far beyond anything the exporters emit.
  static constexpr int kMaxDepth = 128;

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw invalid_argument_error("JSON parse error at byte " +
                                 std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::string;
        v.string = parse_string();
        return v;
      }
      case 't': {
        if (!consume_literal("true")) fail("bad literal");
        JsonValue v;
        v.kind = JsonValue::Kind::boolean;
        v.boolean = true;
        return v;
      }
      case 'f': {
        if (!consume_literal("false")) fail("bad literal");
        JsonValue v;
        v.kind = JsonValue::Kind::boolean;
        return v;
      }
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue{};
      default: {
        JsonValue v;
        v.kind = JsonValue::Kind::number;
        v.number = parse_number();
        return v;
      }
    }
  }

  /// True when parse_value() would read the value at `c` as a number: every
  /// character that starts no other value goes to parse_number(), which
  /// rejects what the number grammar does not admit.
  static bool starts_number(char c) {
    return c != '{' && c != '[' && c != '"' && c != 't' && c != 'f' &&
           c != 'n';
  }

  JsonValue parse_object() {
    expect('{');
    if (++depth_ > kMaxDepth) fail("nesting deeper than 128 levels");
    JsonValue v;
    v.kind = JsonValue::Kind::object;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      --depth_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string name = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(name), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      --depth_;
      return v;
    }
  }

  JsonValue parse_array() {
    expect('[');
    if (++depth_ > kMaxDepth) fail("nesting deeper than 128 levels");
    JsonValue v;
    v.kind = JsonValue::Kind::array;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      --depth_;
      return v;
    }
    if (pack_) {
      // Read entries as plain doubles while they are numbers. The steps
      // are the DOM loop's below, so errors match it byte for byte; the
      // first entry that is not a number turns the run into DOM nodes.
      while (true) {
        skip_ws();
        if (!starts_number(peek())) break;
        v.numbers.push_back(parse_number());
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect(']');
        --depth_;
        v.kind = JsonValue::Kind::number_array;
        return v;
      }
      v.array.resize(v.numbers.size());
      for (std::size_t i = 0; i < v.numbers.size(); ++i) {
        v.array[i].kind = JsonValue::Kind::number;
        v.array[i].number = v.numbers[i];
      }
      v.numbers = {};
    }
    while (true) {
      v.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      --depth_;
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad hex digit in \\u escape");
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs unsupported;
          // the exporters never emit them).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  // RFC 8259 number grammar: optional '-' (no '+'), mandatory integer part,
  // fraction and exponent each require at least one digit. The scanned text
  // is then converted in place.
  double parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    auto digits = [&] {
      std::size_t count = 0;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        ++count;
      }
      return count;
    };
    if (digits() == 0) fail("expected a value");
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (digits() == 0) fail("digits required after decimal point");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
        ++pos_;
      }
      if (digits() == 0) fail("digits required in exponent");
    }
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    double value = 0.0;
    // The grammar scan admitted only what from_chars reads in full.
    if (std::from_chars(first, last, value).ec ==
        std::errc::result_out_of_range) {
      // from_chars leaves `value` unset out of range. strtod rounds an
      // underflow ("1e-400") to a zero of its sign and an overflow to
      // +/-inf, which is rejected below.
      value = std::strtod(std::string(first, last).c_str(), nullptr);
    }
    // JSON has no non-finite numbers and every downstream consumer assumes
    // finite values.
    if (!std::isfinite(value)) fail("number out of double range");
    return value;
  }

  std::string_view text_;
  bool pack_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

const JsonValue* JsonValue::find(std::string_view name) const noexcept {
  if (kind != Kind::object) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == name) return &v;
  }
  return nullptr;
}

JsonValue* JsonValue::find(std::string_view name) noexcept {
  return const_cast<JsonValue*>(std::as_const(*this).find(name));
}

const JsonValue& JsonValue::at(std::string_view name) const {
  const JsonValue* v = find(name);
  HICOND_CHECK(v != nullptr, "missing JSON member '" + std::string(name) + "'");
  return *v;
}

JsonValue parse_json(std::string_view text) {
  return Parser(text, /*pack=*/false).parse_document();
}

JsonValue parse_json_packed(std::string_view text) {
  return Parser(text, /*pack=*/true).parse_document();
}

void write_json(JsonWriter& w, const JsonValue& v) {
  switch (v.kind) {
    case JsonValue::Kind::null:
      w.null();
      return;
    case JsonValue::Kind::boolean:
      w.value(v.boolean);
      return;
    case JsonValue::Kind::number:
      w.value(v.number);
      return;
    case JsonValue::Kind::string:
      w.value(v.string);
      return;
    case JsonValue::Kind::array:
      w.begin_array();
      for (const JsonValue& item : v.array) {
        write_json(w, item);
      }
      w.end_array();
      return;
    case JsonValue::Kind::number_array:
      w.values(v.numbers);
      return;
    case JsonValue::Kind::object:
      w.begin_object();
      for (const auto& [key, value] : v.object) {
        w.key(key);
        write_json(w, value);
      }
      w.end_object();
      return;
  }
}

}  // namespace hicond::obs
