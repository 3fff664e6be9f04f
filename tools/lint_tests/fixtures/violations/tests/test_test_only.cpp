// A test includer does not make a header reachable.
#include "hicond/core/test_only.hpp"
int call_it() { return test_only_helper(); }
