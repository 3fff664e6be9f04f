// Hidden-global-state randomness from the C library.

#include <cstdlib>

int noisy() {
  std::srand(42);
  return std::rand();
}
