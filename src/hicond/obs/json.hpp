// Minimal JSON support for the observability subsystem.
//
// All obs exporters (Chrome trace events, metrics registry, solver reports,
// the paper_claims ledger) emit JSON through the one JsonWriter here, so
// escaping and number formatting live in a single place; the companion
// recursive-descent parser reads serve requests and the shard router's
// worker responses, and the tests use it to assert well-formedness of every
// exporter. Deliberately not a general-purpose JSON library: no streaming,
// documents are kept in memory, object keys preserve insertion order.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hicond::obs {

/// Incremental JSON document writer. The caller is responsible for calling
/// begin/end in a balanced way; key() must precede every value inside an
/// object. Non-finite doubles are emitted as null (JSON has no Inf/NaN).
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  JsonWriter& key(std::string_view name);
  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(double d);
  JsonWriter& value(std::int64_t i);
  JsonWriter& value(int i) { return value(static_cast<std::int64_t>(i)); }
  JsonWriter& value(std::size_t u) {
    return value(static_cast<std::int64_t>(u));
  }
  JsonWriter& value(bool b);
  JsonWriter& null();

  /// Convenience: key + scalar value in one call.
  template <typename T>
  JsonWriter& kv(std::string_view name, T v) {
    key(name);
    return value(v);
  }

  [[nodiscard]] const std::string& str() const noexcept { return out_; }

 private:
  void comma();

  std::string out_;
  bool need_comma_ = false;
};

/// Escape `s` for inclusion inside a JSON string literal (no quotes added).
[[nodiscard]] std::string json_escape(std::string_view s);

/// A parsed JSON value (tagged union, document held by value).
struct JsonValue {
  enum class Kind { null, boolean, number, string, array, object };

  Kind kind = Kind::null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;  ///< insertion order

  [[nodiscard]] bool is_object() const noexcept {
    return kind == Kind::object;
  }
  [[nodiscard]] bool is_array() const noexcept { return kind == Kind::array; }
  [[nodiscard]] bool is_number() const noexcept {
    return kind == Kind::number;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return kind == Kind::string;
  }

  /// Member lookup on an object; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view name) const noexcept;

  /// Member that must exist (invalid_argument_error otherwise).
  [[nodiscard]] const JsonValue& at(std::string_view name) const;
};

/// Parse a complete JSON document. Throws invalid_argument_error with a
/// byte offset on malformed input or trailing garbage.
[[nodiscard]] JsonValue parse_json(std::string_view text);

/// Re-emit a parsed value through `w` (object keys keep insertion order,
/// doubles print %.17g, so parse -> write_json round-trips numerically).
/// Used by aggregators that embed one JSON document inside another, e.g.
/// the shard router merging per-worker stats responses.
void write_json(JsonWriter& w, const JsonValue& v);

}  // namespace hicond::obs
