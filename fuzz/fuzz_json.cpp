// Fuzz target: obs::parse_json on arbitrary bytes. The parser's contract is
// to either return a document or throw invalid_argument_error -- any other
// exception, crash, hang, or sanitizer report is a bug (historically: stack
// overflow on deeply nested input before the recursion-depth limit).
//
// Two properties ride on every input:
//
//   1. Round trip: a document that parses re-emits through write_json and
//      re-parses to the same document, every number bit for bit (the
//      writer prints shortest round-trip doubles).
//   2. Packed = DOM: parse_json_packed accepts exactly what parse_json
//      accepts, fails with the identical message (byte offset included),
//      and its number arrays hold the DOM's numbers bit for bit.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>

#include "hicond/obs/json.hpp"
#include "hicond/util/common.hpp"

namespace {

using hicond::obs::JsonValue;

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// `packed` is `dom` with all-number arrays packed (dom == packed when
/// both are DOM documents).
bool same_document(const JsonValue& dom, const JsonValue& packed) {
  if (packed.kind == JsonValue::Kind::number_array) {
    if (dom.kind != JsonValue::Kind::array ||
        dom.array.size() != packed.numbers.size()) {
      return false;
    }
    for (std::size_t i = 0; i < dom.array.size(); ++i) {
      if (!dom.array[i].is_number() ||
          !same_bits(dom.array[i].number, packed.numbers[i])) {
        return false;
      }
    }
    return true;
  }
  if (dom.kind != packed.kind) return false;
  switch (dom.kind) {
    case JsonValue::Kind::null: return true;
    case JsonValue::Kind::boolean: return dom.boolean == packed.boolean;
    case JsonValue::Kind::number: return same_bits(dom.number, packed.number);
    case JsonValue::Kind::string: return dom.string == packed.string;
    case JsonValue::Kind::array:
      if (dom.array.size() != packed.array.size()) return false;
      for (std::size_t i = 0; i < dom.array.size(); ++i) {
        if (!same_document(dom.array[i], packed.array[i])) return false;
      }
      return true;
    case JsonValue::Kind::object:
      if (dom.object.size() != packed.object.size()) return false;
      for (std::size_t i = 0; i < dom.object.size(); ++i) {
        if (dom.object[i].first != packed.object[i].first ||
            !same_document(dom.object[i].second, packed.object[i].second)) {
          return false;
        }
      }
      return true;
    case JsonValue::Kind::number_array: return false;
  }
  return false;
}

/// The document, or the message it was rejected with.
template <typename Parse>
std::optional<JsonValue> parse(Parse&& fn, std::string_view text,
                               std::string& error) {
  try {
    return fn(text);
  } catch (const hicond::invalid_argument_error& e) {
    error = e.what();  // the documented rejection path
  }
  return std::nullopt;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  std::string dom_error;
  std::string packed_error;
  const std::optional<JsonValue> dom =
      parse(hicond::obs::parse_json, text, dom_error);
  const std::optional<JsonValue> packed =
      parse(hicond::obs::parse_json_packed, text, packed_error);
  if (dom.has_value() != packed.has_value() || dom_error != packed_error) {
    __builtin_trap();
  }
  if (!dom.has_value()) return 0;
  if (!same_document(*dom, *packed)) __builtin_trap();

  hicond::obs::JsonWriter w;
  hicond::obs::write_json(w, *dom);
  // Re-parsing the writer's own output cannot fail.
  if (!same_document(hicond::obs::parse_json(w.str()), *dom)) {
    __builtin_trap();
  }
  return 0;
}
