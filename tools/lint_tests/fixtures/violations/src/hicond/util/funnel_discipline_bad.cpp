// Raw OpenMP constructs outside util/parallel.hpp: every parallel-region
// entry, ordered accumulation primitive, and reduction clause must be
// funneled through the project's parallel API.

void scale(double* x, int n) {
#pragma omp parallel for schedule(static)
  for (int i = 0; i < n; ++i) x[i] *= 2.0;
}

double sum_atomic(const double* x, int n) {
  double s = 0.0;
#pragma omp parallel
  {
#pragma omp for schedule(static)
    for (int i = 0; i < n; ++i) {
#pragma omp atomic
      s += x[i];
    }
  }
  return s;
}

double sum_reduction(const double* x, int n) {
  double s = 0.0;
#pragma omp parallel for schedule(static) reduction(+ : s)
  for (int i = 0; i < n; ++i) s += x[i];
  return s;
}

double sum_critical(const double* x, int n) {
  double s = 0.0;
#pragma omp parallel
  {
#pragma omp critical
    s += x[0];
  }
  (void)n;
  return s;
}
