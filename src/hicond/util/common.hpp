// Core type aliases, error-handling helpers and the leveled
// invariant-validation facility shared by every hicond module.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

/// Compiled-in invariant-validation level, selected at configure time via the
/// HICOND_VALIDATE CMake option:
///   0 = off        -- every HICOND_VALIDATE check compiles out;
///   1 = cheap      -- O(1) / amortized-trivial checks stay on (default);
///   2 = expensive  -- full O(n + m) structural sweeps at API boundaries.
/// HICOND_CHECK (argument validation at public entry points) is always on
/// regardless of the level.
#ifndef HICOND_VALIDATE_LEVEL
#define HICOND_VALIDATE_LEVEL 1
#endif

namespace hicond {

/// Vertex / cluster index type. 32-bit indices keep CSR structures compact;
/// graphs up to ~2 billion vertices are out of scope for this library.
using vidx = std::int32_t;

/// Edge / nonzero offset type. 64-bit because the number of directed arcs can
/// exceed 2^31 well before the vertex count does.
using eidx = std::int64_t;

/// Thrown on malformed user input (negative weights, ragged CSR, ...).
class invalid_argument_error : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Thrown when a numeric routine cannot proceed (singular pivot, ...).
class numeric_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Named validation levels, matching the HICOND_VALIDATE configure option.
inline constexpr int kValidateOff = 0;
inline constexpr int kValidateCheap = 1;
inline constexpr int kValidateExpensive = 2;

/// The level this build was configured with.
[[nodiscard]] constexpr int validate_level() noexcept {
  return HICOND_VALIDATE_LEVEL;
}

namespace detail {
[[noreturn]] inline void throw_check_failure(const char* expr,
                                             const std::string& msg) {
  throw invalid_argument_error(std::string("hicond check failed: ") + expr +
                               (msg.empty() ? "" : (": " + msg)));
}
}  // namespace detail

}  // namespace hicond

/// Always-on precondition check for public API boundaries.
#define HICOND_CHECK(expr, msg)                                          \
  do {                                                                   \
    if (!(expr)) {                                                       \
      ::hicond::detail::throw_check_failure(#expr, (msg));               \
    }                                                                    \
  } while (false)

// Maps the level tokens accepted by HICOND_VALIDATE to their numeric rank.
#define HICOND_VALIDATE_RANK_cheap ::hicond::kValidateCheap
#define HICOND_VALIDATE_RANK_expensive ::hicond::kValidateExpensive

/// Leveled invariant check. `level` is the bare token `cheap` or `expensive`;
/// the check (including evaluation of `expr`) compiles out entirely when the
/// configured HICOND_VALIDATE_LEVEL is below the requested level.
#define HICOND_VALIDATE(level, expr, msg)                                  \
  do {                                                                     \
    if constexpr (HICOND_VALIDATE_LEVEL >= HICOND_VALIDATE_RANK_##level) { \
      if (!(expr)) {                                                       \
        ::hicond::detail::throw_check_failure(#expr, (msg));               \
      }                                                                    \
    }                                                                      \
  } while (false)

/// Run a whole validation statement (typically an `x.validate()` call that
/// throws on violation) only when the configured level admits it.
#define HICOND_RUN_VALIDATION(level, ...)                                  \
  do {                                                                     \
    if constexpr (HICOND_VALIDATE_LEVEL >= HICOND_VALIDATE_RANK_##level) { \
      __VA_ARGS__;                                                         \
    }                                                                      \
  } while (false)

/// Internal invariant check for O(1) conditions on hot paths; stays on at the
/// default `cheap` level and doubles as executable documentation.
#define HICOND_ASSERT(expr) HICOND_VALIDATE(cheap, expr, "internal invariant")

/// Internal invariant check whose evaluation is itself costly (O(n + m)
/// sweeps, nested scans); compiled out of Release hot paths unless the build
/// was configured with HICOND_VALIDATE=expensive.
#define HICOND_ASSERT_EXPENSIVE(expr) \
  HICOND_VALIDATE(expensive, expr, "internal invariant")

namespace hicond {

/// Validate an untrusted size before it reaches an allocation, resize() or
/// subscript. Throws invalid_argument_error (via HICOND_CHECK) when
/// `n > cap`; otherwise returns `n` narrowed to std::size_t. `what` names
/// the quantity in the error message ("batch_solve rhs count", ...).
///
/// This is the designated sanitizer of the untrusted-size hicond-tidy
/// check: an integer decoded from snapshot bytes or the NDJSON wire is
/// tainted until it flows through checked_size(), a validate() call, or an
/// explicit HICOND_CHECK range test.
[[nodiscard]] inline std::size_t checked_size(std::uint64_t n,
                                              std::uint64_t cap,
                                              const char* what) {
  HICOND_CHECK(n <= cap, std::string(what) + " out of range");
  return static_cast<std::size_t>(n);
}

}  // namespace hicond
