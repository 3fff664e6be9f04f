#pragma once
// Included only from tests/: library-reach fires.
int test_only_helper();
