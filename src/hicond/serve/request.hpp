// The request envelope shared by the worker server and the router.
//
// Every NDJSON request line is one JSON object carrying a string "op" and
// two optional envelope fields: "id", echoed on the response, and
// "deadline_ms". parse_envelope() checks a line against that shape once, at
// the outermost boundary, and error_response() renders the
// {"id","ok":false,"error","message"} document both engines answer with, so
// serve/server.cpp and serve/shard/router.cpp agree on both by
// construction.
//
// integer_field() is the one place a wire number becomes an integer. JSON
// numbers arrive as doubles, and a static_cast of a double outside the
// target type's range is undefined behaviour ([conv.fpint]); the helper
// accepts only an integer-valued number in [lo, hi] and throws otherwise.
// Its result is still untrusted: the hicond-tidy untrusted-size check treats
// it as a taint source, so an allocation size must still pass a cap.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "hicond/obs/json.hpp"

namespace hicond::serve {

/// 2^53: up to here a JSON double represents every integer exactly. The
/// envelope accepts ids in [0, 2^53], and seeds read off the wire have the
/// same range.
inline constexpr std::int64_t kMaxWireInteger = std::int64_t{1} << 53;

/// A request line that passed parse_envelope().
struct Envelope {
  /// The whole parsed line, every all-number array packed
  /// (obs::parse_json_packed): a shipped vector is one std::vector<double>.
  obs::JsonValue request;
  std::string op;
  std::int64_t id = -1;       ///< -1 when the line carries no "id"
  double deadline_ms = -1.0;  ///< < 0: no deadline
};

/// Parse one request line into `out`. Returns the rendered `parse_error`
/// response when the line is not a JSON object, has no string "op", carries
/// an "id" that is not an integer in [0, kMaxWireInteger], or a non-numeric
/// "deadline_ms"; the response echoes the id when the id itself was valid.
/// A line without "deadline_ms" inherits `default_deadline_ms` (<= 0: none).
[[nodiscard]] std::optional<std::string> parse_envelope(
    const std::string& line, double default_deadline_ms, Envelope& out);

/// {"id":ID,"ok":false,"error":CODE,"message":MESSAGE}; the id is omitted
/// when negative (the request carried none).
[[nodiscard]] std::string error_response(std::int64_t id,
                                         std::string_view code,
                                         std::string_view message);

/// Field `name` of `object` as an integer in [lo, hi]. An absent field
/// yields `fallback`, or throws when `fallback` is nullopt (the field is
/// required). A present field that is not a number, not integer-valued, or
/// outside [lo, hi] throws invalid_argument_error naming the field. The
/// bounds themselves must lie within [-2^53, 2^53], where doubles are exact.
[[nodiscard]] std::int64_t integer_field(
    const obs::JsonValue& object, std::string_view name, std::int64_t lo,
    std::int64_t hi, std::optional<std::int64_t> fallback = std::nullopt);

}  // namespace hicond::serve
