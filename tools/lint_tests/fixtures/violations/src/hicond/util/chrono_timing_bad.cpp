// Raw std::chrono timing outside util/timer and obs/.

#include <chrono>

long long elapsed_ns() {
  const auto start = std::chrono::steady_clock::now();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
      .count();
}
