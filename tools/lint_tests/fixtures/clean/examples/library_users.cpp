// A shipped caller for every clean-tree header, so library-reach stays
// quiet; the rule counts includers under src/, examples/, bench/,
// benchmark/src/ and fuzz/.
#include "hicond/core/refine.hpp"
#include "hicond/util/parallel.hpp"
#include "hicond/util/unique_fd.hpp"

int main() { return refine(0) - 1; }
