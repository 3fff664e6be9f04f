#pragma once
// No includer at all, but on LIBRARY_REACH_ALLOWED: library-reach must
// stay quiet.
int sparsify_stub();
