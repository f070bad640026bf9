// Register-tiled GEMM used by the convolution kernels and the model-parallel
// FC layer. Row-major; C = alpha * op(A) * op(B) + beta * C, plus an
// index-addressed variant that reads its operands straight out of tensor
// buffers. Fans output tiles out over the intra-rank thread pool
// (support/parallel.hpp) — results are bit-identical for any thread budget;
// see gemm.cpp for the determinism contract.
#pragma once

#include <cstdint>
#include <vector>

namespace distconv::kernels {

/// C (m×n) = alpha · A (m×k) · B (k×n) + beta · C. Row-major, leading
/// dimensions = row lengths.
void sgemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
           std::int64_t k, float alpha, const float* a, std::int64_t lda,
           const float* b, std::int64_t ldb, float beta, float* c,
           std::int64_t ldc);

/// Index-addressed ("indirect") GEMM operands: every row of A and C and
/// every k-step of A and B is named by an offset, so a convolution maps its
/// operands straight onto the haloed input buffer and nothing is lowered
/// (the indirect convolution algorithm, Dukhan 2019).
///   A(i, kk) = a[a_row[i] + a_k[kk]]   — broadcast-loaded, never packed
///   B(kk, j) = b[b_k[kk] + j * b_col]  — packed into micro-kernel panels
///   C(i, j)  = c[c_row[i] + j * c_col]
struct IndirectGemm {
  std::int64_t m = 0, n = 0;
  const float* a = nullptr;
  const std::int64_t* a_row = nullptr;  ///< m offsets
  const std::int64_t* a_k = nullptr;    ///< k offsets
  const float* b = nullptr;
  const std::int64_t* b_k = nullptr;    ///< k offsets
  std::int64_t b_col = 0;
  float* c = nullptr;
  const std::int64_t* c_row = nullptr;  ///< m offsets
  std::int64_t c_col = 0;
};

/// C = (accumulate ? C : 0) + A·B, where k is cut into consecutive
/// accumulation chains ending at `chain_end` (ascending; k is the last
/// entry). Each element sees exactly the additions of one sgemm(beta = 1)
/// call per chain: every chain is walked in kKc blocks, each block summed
/// ascending from zero by the shared micro-kernel and added onto C. Since
/// a·b == b·a, results are bitwise equal to sgemm on the lowered operands
/// with either operand order, for any thread budget.
void sgemm_indirect(const IndirectGemm& g,
                    const std::vector<std::int64_t>& chain_end, bool accumulate);

}  // namespace distconv::kernels
