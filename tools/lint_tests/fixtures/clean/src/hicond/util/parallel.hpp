#pragma once
// The funnel: raw OpenMP pragmas and the fixed reduction block are allowed
// in this one file.
inline constexpr int kReductionBlock = 2048;
template <typename Fn>
void parallel_for_impl(int n, Fn&& fn) {
#pragma omp parallel for schedule(static)
  for (int i = 0; i < n; ++i) fn(i);
}
