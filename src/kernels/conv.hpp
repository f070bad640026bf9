// Convolution kernels (the cuDNN stand-in of the reproduction).
//
// Two kinds:
//
//  * "padded" kernels — self-contained oracles over plain tensors with
//    explicit zero-padding bounds checks. Used as the single-device reference
//    the distributed algorithms must replicate exactly (§III: "our algorithms
//    exactly replicate convolution as if it were performed on a single GPU").
//
//  * "region" kernels — operate on *buffers with margins* in global
//    coordinates. Each buffer carries an Origin2 (the global (h, w) of buffer
//    element (0,0)); the kernel computes an arbitrary global output Range2,
//    which is how the interior/boundary decomposition for halo overlap
//    (§IV-A) is expressed: the interior range is computed while halos fly,
//    the boundary ranges afterwards. They are one GEMM family for every
//    layer shape: forward and backward-filter are implicit GEMMs gathered
//    straight from the haloed input (no lowered copy), backward-data is an
//    sgemm (dcol = Wᵀ·dy) plus a col2im scatter. When one strip covers a
//    backward-data range, the dy windows of consecutive samples share one
//    sgemm (see conv2d_backward_data). Every choice depends on shapes only,
//    so results are bitwise reproducible across ranks and thread budgets.
//
// Layout: x is N×C×H×W, weights are F×C×Kh×Kw, y is N×F×H̃×W̃ (Eq. 1-3).
#pragma once

#include <cstdint>

#include "tensor/tensor.hpp"

namespace distconv::kernels {

struct ConvParams {
  int kh = 1, kw = 1;  ///< kernel size
  int sh = 1, sw = 1;  ///< stride
  int ph = 0, pw = 0;  ///< zero padding

  std::int64_t out_h(std::int64_t in_h) const { return (in_h + 2 * ph - kh) / sh + 1; }
  std::int64_t out_w(std::int64_t in_w) const { return (in_w + 2 * pw - kw) / sw + 1; }
};

/// Global (h, w) coordinate of a buffer's (.., .., 0, 0) element. For a
/// DistTensor buffer this is owned_start - margin_lo; for a plain tensor, 0.
struct Origin2 {
  std::int64_t h = 0, w = 0;
};

/// A global-coordinate region [h0, h1) × [w0, w1).
struct Range2 {
  std::int64_t h0 = 0, h1 = 0, w0 = 0, w1 = 0;

  bool empty() const { return h1 <= h0 || w1 <= w0; }
  std::int64_t area() const { return empty() ? 0 : (h1 - h0) * (w1 - w0); }
};

/// Output rows per strip of the GEMM passes for `depth` = C·Kh·Kw floats per
/// output position over rows `rw` wide (~2 MiB of lowering per strip).
/// Depends on shapes only. Backward-filter runs one accumulation chain per
/// (sample, strip), so this rule is part of dw's bits; backward-data's
/// strips only bound its col2im buffer.
std::int64_t gemm_strip_height(std::int64_t depth, std::int64_t rw);

/// Samples whose dy windows share one col2im backward-data sgemm over the
/// input range `r` of a layer with `c` input channels and `n` samples: as
/// many as the strip budget holds when one strip covers `r`, else 1.
/// Depends on shapes only, and never changes bits (see
/// conv2d_backward_data).
std::int64_t backward_data_batch(const ConvParams& p, std::int64_t c,
                                 std::int64_t n, const Range2& r,
                                 std::int64_t out_h, std::int64_t out_w);

// --- padded oracles --------------------------------------------------------

/// y = conv(x, w) with zero padding; full output computed. (Eq. 1)
void conv2d_forward_padded(const Tensor<float>& x, const Tensor<float>& w,
                           Tensor<float>& y, const ConvParams& p);

/// dx = "full" correlation of dy with w (Eq. 3); full input gradient.
void conv2d_backward_data_padded(const Tensor<float>& dy, const Tensor<float>& w,
                                 Tensor<float>& dx, const ConvParams& p);

/// dw += (accumulate=true) or = gradient of the weights (Eq. 2).
void conv2d_backward_filter_padded(const Tensor<float>& x, const Tensor<float>& dy,
                                   Tensor<float>& dw, const ConvParams& p,
                                   bool accumulate = false);

// --- region kernels (margin buffers, global coordinates) -------------------

/// Compute y over the global output range `out_range`. Reads
/// x[g] at buffer position g - xo for every needed global input coordinate;
/// the caller guarantees margins cover the stencil's needed range (zero
/// margins encode padding). N and C/F extents are taken from the buffers.
void conv2d_forward(const Tensor<float>& x, Origin2 xo, const Tensor<float>& w,
                    Tensor<float>& y, Origin2 yo, const ConvParams& p,
                    const Range2& out_range);

/// Compute dx over the global input range `in_range` by gathering from dy
/// (Eq. 3 adapted: for each input position, sum the output positions whose
/// window covers it). `out_h/out_w` are the global output extents used to
/// clip the gather at domain boundaries. Computes dcol = Wᵀ·dy with the
/// tiled GEMM — one call for backward_data_batch samples — and scatters it
/// back via col2im. Unpadded 1×1 layers have nothing to scatter: they run
/// one implicit GEMM over every sample, writing dx in place.
void conv2d_backward_data(const Tensor<float>& dy, Origin2 dyo,
                          const Tensor<float>& w, Tensor<float>& dx, Origin2 dxo,
                          const ConvParams& p, const Range2& in_range,
                          std::int64_t out_h, std::int64_t out_w);

/// Accumulate the local contribution to dw over the global output range
/// `out_range` (Eq. 2 restricted to I(p); the cross-rank allreduce happens at
/// the layer level). Computes dwᵀ += Xᵀ·dyᵀ with the implicit GEMM, one
/// accumulation chain per (sample, gemm_strip_height strip).
void conv2d_backward_filter(const Tensor<float>& x, Origin2 xo,
                            const Tensor<float>& dy, Origin2 dyo, Tensor<float>& dw,
                            const ConvParams& p, const Range2& out_range,
                            bool accumulate = false);

}  // namespace distconv::kernels
