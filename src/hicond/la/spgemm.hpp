// Sparse matrix-matrix products. spgemm(spgemm(R', A), R) is the algebraic
// quotient Q = R' A R of Remark 1 ("the quotient graph can be expressed
// algebraically as Q = R^T A R ... computed via parallel sparse matrix
// multiplication"); the tests hold graph/quotient's assembly to it.
#pragma once

#include "hicond/la/csr.hpp"

namespace hicond {

/// General SpGEMM C = A * B (Gustavson with a dense accumulator per row,
/// rows processed in parallel).
[[nodiscard]] CsrMatrix spgemm(const CsrMatrix& a, const CsrMatrix& b);

}  // namespace hicond
