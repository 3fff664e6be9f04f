// Minimal JSON support for the observability subsystem.
//
// All obs exporters (Chrome trace events, solver reports, the paper_claims
// ledger) and the serve responses emit JSON through the one JsonWriter here,
// so escaping and number formatting live in a single place.
// A double prints in its shortest round-trip form (std::to_chars): the
// fewest digits that parse back to the same bits, so 0.1 is "0.1". The
// companion recursive-descent parser reads serve requests and the shard
// router's worker responses, and the tests use it to assert well-formedness
// of every exporter; it converts numbers in place with std::from_chars.
// Deliberately not a general-purpose JSON library: no streaming, documents
// are kept in memory, object keys preserve insertion order.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hicond::obs {

/// Incremental JSON document writer. The caller is responsible for calling
/// begin/end in a balanced way; key() must precede every value inside an
/// object. Doubles print in their shortest round-trip form; non-finite ones
/// are emitted as null (JSON has no Inf/NaN).
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
  /// A whole array of doubles, each as value(double) writes it.
  JsonWriter& values(std::span<const double> xs);

  /// Convenience: key + scalar value in one call.
  template <typename T>
  JsonWriter& kv(std::string_view name, T v) {
    key(name);
    return value(v);
  }

  [[nodiscard]] const std::string& str() const noexcept { return out_; }

 private:
  void comma();
  void append_double(double d);

  std::string out_;
  bool need_comma_ = false;
};

/// Escape `s` for inclusion inside a JSON string literal (no quotes added).
[[nodiscard]] std::string json_escape(std::string_view s);

/// A parsed JSON value (tagged union, document held by value).
///
/// Kind::number_array exists only in documents from parse_json_packed(): a
/// non-empty array whose entries are all numbers, held as one vector of
/// doubles rather than a node per entry. It is not is_array(), so code that
/// expects a DOM array rejects it instead of reading an empty `array`.
struct JsonValue {
  enum class Kind {
    null,
    boolean,
    number,
    string,
    array,
    object,
    number_array
  };

  Kind kind = Kind::null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;  ///< insertion order
  std::vector<double> numbers;  ///< Kind::number_array entries

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
  [[nodiscard]] bool is_number_array() const noexcept {
    return kind == Kind::number_array;
  }

  /// Entries of an array of either kind (0 for anything else).
  [[nodiscard]] std::size_t size() const noexcept {
    return kind == Kind::number_array ? numbers.size() : array.size();
  }

  /// Member lookup on an object; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view name) const noexcept;
  [[nodiscard]] JsonValue* find(std::string_view name) noexcept;

  /// Member that must exist (invalid_argument_error otherwise).
  [[nodiscard]] const JsonValue& at(std::string_view name) const;
};

/// Parse a complete JSON document. Throws invalid_argument_error with a
/// byte offset on malformed input or trailing garbage.
[[nodiscard]] JsonValue parse_json(std::string_view text);

/// parse_json with one difference: every non-empty array whose entries are
/// all numbers parses into a Kind::number_array. The grammar, the numbers
/// and every error message (byte offset included) are parse_json's. The
/// serve request envelope parses this way, so a shipped vector costs one
/// std::vector<double>, not a node per entry.
[[nodiscard]] JsonValue parse_json_packed(std::string_view text);

/// Re-emit a parsed value through `w` (object keys keep insertion order,
/// doubles print shortest round-trip, so parse -> write_json -> parse gives
/// back every number bit for bit; a number_array writes as a plain array).
/// Used by aggregators that embed one JSON document inside another, e.g.
/// the shard router merging per-worker stats responses.
void write_json(JsonWriter& w, const JsonValue& v);

}  // namespace hicond::obs
