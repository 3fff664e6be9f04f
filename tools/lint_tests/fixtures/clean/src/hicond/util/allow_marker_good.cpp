// Allow markers that name a rule honouring them: a token rule and a
// hicond-tidy check. Neither is an allow-marker violation.
#include <cstdlib>

int seeded_noise() {
  // hicond-tidy: allow(no-std-rand)
  return std::rand();
}

void fill(double* x, int n) {
  // hicond-tidy: allow(owner-computes)
  for (int i = 0; i < n; ++i) x[i] = 0.0;
}
