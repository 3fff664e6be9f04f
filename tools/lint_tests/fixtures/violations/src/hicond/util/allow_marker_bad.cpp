// Allow markers that suppress nothing: a retired alias, a retired
// hicond-tidy check name, a marker without the space both layers match on,
// and a rule that does not read markers. Each marker is a violation, and
// the line under it is still flagged.
#include <cstdlib>

void stale_markers(int fd, double* x, int n) {
  // hicond-tidy: allow(fd-close)
  close(fd);
  // hicond-tidy: allow(funnel-discipline)
#pragma omp parallel for schedule(static)
  for (int i = 0; i < n; ++i) x[i] = 0.0;
  // hicond-tidy:allow(no-std-rand)
  std::srand(7);
  // hicond-tidy: allow(omp-schedule)
#pragma omp for
  for (int i = 0; i < n; ++i) x[i] += 1.0;
}
