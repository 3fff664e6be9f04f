// A sum that splits its own kReductionBlock blocks (the comment is fine).
#include "hicond/util/parallel.hpp"
double block_total(const double* x, std::size_t n) {
  HICOND_CHECK(n > 0, "empty range");
  const std::size_t blocks = (n + kReductionBlock - 1) / kReductionBlock;
  double total = 0.0;
  for (std::size_t b = 0; b < blocks; ++b) total += x[b];
  return total;
}
