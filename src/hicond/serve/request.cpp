#include "hicond/serve/request.hpp"

#include <cmath>
#include <exception>

#include "hicond/util/common.hpp"

namespace hicond::serve {

std::optional<std::string> parse_envelope(const std::string& line,
                                          double default_deadline_ms,
                                          Envelope& out) {
  out.id = -1;
  out.deadline_ms = default_deadline_ms > 0.0 ? default_deadline_ms : -1.0;
  try {
    out.request = obs::parse_json_packed(line);
    HICOND_CHECK(out.request.is_object(), "request must be a JSON object");
    out.id = integer_field(out.request, "id", 0, kMaxWireInteger, -1);
    const obs::JsonValue* op = out.request.find("op");
    HICOND_CHECK(op != nullptr && op->is_string(),
                 "request needs a string \"op\" field");
    out.op = op->string;
    if (const obs::JsonValue* dl = out.request.find("deadline_ms");
        dl != nullptr) {
      HICOND_CHECK(dl->is_number(), "deadline_ms must be a number");
      out.deadline_ms = dl->number;
    }
  } catch (const std::exception& e) {
    return error_response(out.id, "parse_error", e.what());
  }
  return std::nullopt;
}

std::string error_response(std::int64_t id, std::string_view code,
                           std::string_view message) {
  obs::JsonWriter w;
  w.begin_object();
  if (id >= 0) {
    w.kv("id", id);
  }
  w.kv("ok", false);
  w.kv("error", code);
  w.kv("message", message);
  w.end_object();
  return w.str();
}

std::int64_t integer_field(const obs::JsonValue& object, std::string_view name,
                           std::int64_t lo, std::int64_t hi,
                           std::optional<std::int64_t> fallback) {
  const obs::JsonValue* v = object.find(name);
  if (v == nullptr) {
    HICOND_CHECK(fallback.has_value(),
                 "request needs the integer field \"" + std::string(name) +
                     "\"");
    return *fallback;
  }
  // Range first, in doubles: it also rejects NaN, and only a value already
  // known to fit may be converted.
  const double x = v->is_number() ? v->number : std::nan("");
  HICOND_CHECK(x >= static_cast<double>(lo) && x <= static_cast<double>(hi) &&
                   std::trunc(x) == x,
               "request field \"" + std::string(name) +
                   "\" must be an integer in [" + std::to_string(lo) + ", " +
                   std::to_string(hi) + "]");
  return static_cast<std::int64_t>(x);
}

}  // namespace hicond::serve
