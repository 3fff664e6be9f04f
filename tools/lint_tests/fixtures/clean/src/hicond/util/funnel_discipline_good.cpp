// Parallelism entered through the funnel API (stubbed), plus an
// explicitly annotated raw pragma: no findings.

namespace hicond {
template <typename Fn>
void parallel_for(int n, Fn&& fn) {
  for (int i = 0; i < n; ++i) fn(i);
}
}  // namespace hicond

void scale(double* x, int n) {
  hicond::parallel_for(n, [&](int i) { x[i] *= 2.0; });
}

void annotated(double* x, int n) {
  // hicond-tidy: allow(omp-funnel)
#pragma omp parallel for schedule(static)
  for (int i = 0; i < n; ++i) x[i] += 1.0;
}
