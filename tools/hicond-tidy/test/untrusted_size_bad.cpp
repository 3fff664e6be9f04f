// Integers decoded from snapshot bytes / NDJSON wire input reaching
// allocation sizes and subscripts without a cap, including evasions:
// propagation through variables and arithmetic, an unrelated check that
// must not sanitize, and re-tainting after a check.

#include <cstdint>
#include <vector>

namespace hicond {
void report_check_failure(const char* what);
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

void direct_sink(Reader& r, std::vector<int>& v) {
  v.resize(r.u32("count"));  // expect: untrusted-size
}

void through_variable(Reader& r, std::vector<int>& v) {
  const std::uint32_t n = r.u32("count");
  v.reserve(n);  // expect: untrusted-size
}

void through_arithmetic(Reader& r, std::vector<int>& v) {
  const std::uint64_t n = r.u64("count");
  const std::uint64_t padded = n + 16;
  v.resize(padded);  // expect: untrusted-size
}

int vector_subscript(Reader& r, const std::vector<int>& v) {
  const std::uint32_t i = r.u32("index");
  return v[i];  // expect: untrusted-size
}

int raw_subscript(Reader& r, const int* data) {
  const std::uint32_t i = r.u32("index");
  return data[i];  // expect: untrusted-size
}

void json_number_member(const JsonValue& field, std::vector<double>& rhs) {
  const auto count = static_cast<long long>(field.number);
  rhs.reserve(count);  // expect: untrusted-size
}

void number_or_helper(const JsonValue& spec, std::vector<double>& rhs) {
  const auto count = static_cast<int>(number_or(spec, "count", 1.0));
  rhs.resize(count);  // expect: untrusted-size
}

void integer_field_helper(const JsonValue& spec, std::vector<double>& rhs) {
  // In range for the type is not capped for an allocation.
  const long long count = integer_field(spec, "count", 1, 1LL << 53, 1);
  rhs.reserve(static_cast<unsigned long long>(count));  // expect: untrusted-size
}

int* array_new(Reader& r) {
  const std::uint64_t n = r.u64("count");
  return new int[n];  // expect: untrusted-size
}

void unrelated_check_does_not_sanitize(Reader& r, std::vector<int>& v) {
  const std::uint32_t n = r.u32("count");
  const std::uint32_t limit = 100;
  HICOND_CHECK(limit > 0, "checks limit, says nothing about n");
  v.resize(n);  // expect: untrusted-size
}

void retainted_after_check(Reader& r, std::vector<int>& v) {
  std::uint32_t n = r.u32("count");
  HICOND_CHECK(n <= 64, "count out of range");
  n = r.u32("second_count");  // fresh taint after the check
  v.resize(n);  // expect: untrusted-size
}
