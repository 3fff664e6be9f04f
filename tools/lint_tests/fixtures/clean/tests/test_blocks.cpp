// Tests may size inputs by the reduction block.
#include "hicond/util/parallel.hpp"
int three_blocks() { return 3 * kReductionBlock; }
