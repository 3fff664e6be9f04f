// Untrusted integers that do flow through a sanitizer before any sink,
// trusted sizes that never were tainted, and the pragma escape hatch:
// no findings.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hicond {
void report_check_failure(const char* what);
std::size_t checked_size(std::uint64_t n, std::uint64_t cap,
                         const char* what);
}  // namespace hicond

#define HICOND_CHECK(expr, what)                       \
  do {                                                 \
    if (!(expr)) ::hicond::report_check_failure(what); \
  } while (false)

struct Reader {
  std::uint32_t u32(const char* what);
  std::uint64_t u64(const char* what);
};

struct JsonValue {
  double number = 0.0;
};

double number_or(const JsonValue& object, const char* name, double fallback);
long long integer_field(const JsonValue& object, const char* name,
                        long long lo, long long hi, long long fallback);

void sanitized_by_check(Reader& r, std::vector<int>& v) {
  const std::uint32_t n = r.u32("count");
  HICOND_CHECK(n <= 4096, "count out of range");
  v.resize(n);
}

void sanitized_by_checked_size(Reader& r, std::vector<int>& v) {
  const std::uint64_t n = r.u64("count");
  const std::size_t capped = hicond::checked_size(n, 1024, "count");
  v.resize(capped);
}

void sanitized_number_or(const JsonValue& spec, std::vector<double>& rhs) {
  const auto count = static_cast<int>(number_or(spec, "count", 1.0));
  HICOND_CHECK(count >= 1 && count <= 64, "count out of range");
  rhs.reserve(static_cast<std::size_t>(count));
}

void integer_field_through_checked_size(const JsonValue& spec,
                                        std::vector<double>& rhs) {
  const long long count = integer_field(spec, "count", 1, 1LL << 53, 1);
  const std::size_t columns = hicond::checked_size(
      static_cast<std::uint64_t>(count), 4096, "rhs_random.count");
  rhs.reserve(columns);
}

void sink_inside_the_check_is_the_guard(Reader& r, std::vector<bool>& seen) {
  const std::uint32_t tag = r.u32("tag");
  HICOND_CHECK(tag < 8, "tag out of range");
  HICOND_CHECK(!seen[tag], "duplicate section tag");
  seen[tag] = true;
}

void trusted_sizes_do_not_fire(const std::vector<double>& input,
                               std::vector<double>& out) {
  out.reserve(input.size());
  for (std::size_t i = 0; i < input.size(); ++i) {
    out.push_back(input[i]);
  }
  out.resize(128);
}

void overwritten_taint_is_gone(Reader& r, std::vector<int>& v) {
  std::uint32_t n = r.u32("count");
  n = 16;  // plain reassignment replaces the tainted value
  v.resize(n);
}

void suppressed_sink(Reader& r, std::vector<int>& v) {
  const std::uint32_t n = r.u32("count");
  // hicond-tidy: allow(untrusted-size)
  v.resize(n);
}
