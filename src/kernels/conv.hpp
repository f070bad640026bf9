// Convolution kernels (the cuDNN stand-in of the reproduction).
//
// Two families:
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
//    the boundary ranges afterwards.
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

enum class ConvAlgo {
  kDirect,      ///< straight loop nests (forward stencil / backward gather)
  kIm2col,      ///< GEMM-backed: im2col (fwd), col2im (bwd-data),
                ///< im2col-transpose (bwd-filter)
  kGemmStrips,  ///< zero-copy GEMM for 1×1 stride-1 unpadded layers: the
                ///< lowering *is* the tensor, so strips feed buffer planes
                ///< straight into the tiled GEMM (bitwise == kIm2col; packs
                ///< only when a plane is not dense)
  kWinograd,    ///< F(2×2, 3×3) fast path for 3×3 stride-1 layers (forward
                ///< only; tolerance-mode exactness — the accumulation chain
                ///< differs from direct/im2col)
  kAuto,        ///< resolve_conv_algo's layer-constant rule, the
                ///< cuDNN-heuristic stand-in
};

/// Which convolution kernel a dispatch runs: applicability differs per
/// pass (Winograd has no backward kernels).
enum class ConvPass { kForward, kBackwardData, kBackwardFilter };

/// Short stable names for env knobs and bench dumps
/// ("direct", "im2col", "gemm-strips", "winograd", "auto").
const char* conv_algo_name(ConvAlgo algo);
/// Inverse of conv_algo_name; false when `s` names no algorithm.
bool parse_conv_algo(const char* s, ConvAlgo* out);

/// Whether `algo` can execute `pass` for this layer shape. kGemmStrips
/// needs a 1×1 stride-1 unpadded layer; kWinograd a 3×3 stride-1 forward
/// pass. kDirect/kIm2col run everything.
bool conv_algo_applicable(ConvAlgo algo, ConvPass pass, const ConvParams& p);

/// Debugging escape hatch: force every dispatch whose shape supports it to
/// one family. Seeded from DC_CONV_ALGO at first use; tests override it
/// programmatically (kAuto restores the rule). Shapes the forced family
/// cannot execute keep the rule's algorithm.
void set_conv_algo_override(ConvAlgo algo);
ConvAlgo conv_algo_override();

/// Resolve kAuto for a layer. Depends only on layer constants (channels,
/// filters, kernel, stride, padding) — never on the local range or the
/// thread budget — so every rank of a distributed run picks the same
/// algorithm and results stay bitwise reproducible across decompositions.
/// The GEMM path wins once the contraction depth C·Kh·Kw amortizes the
/// im2col packing traffic (each packed element is reused F times); the
/// lowering buffer itself is tiled to a fixed size, so it does not enter
/// the decision. Within the GEMM class, 1×1 stride-1 unpadded layers take
/// the pack-free kGemmStrips, which is bitwise equal to kIm2col.
ConvAlgo resolve_conv_algo(ConvAlgo algo, const ConvParams& p, std::int64_t c,
                           std::int64_t f);

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
                    const Range2& out_range, ConvAlgo algo = ConvAlgo::kAuto);

/// Compute dx over the global input range `in_range` by gathering from dy
/// (Eq. 3 adapted: for each input position, sum the output positions whose
/// window covers it). `out_h/out_w` are the global output extents used to
/// clip the gather at domain boundaries. kIm2col computes dcol = Wᵀ·dy with
/// the tiled GEMM and scatters it back via col2im.
void conv2d_backward_data(const Tensor<float>& dy, Origin2 dyo,
                          const Tensor<float>& w, Tensor<float>& dx, Origin2 dxo,
                          const ConvParams& p, const Range2& in_range,
                          std::int64_t out_h, std::int64_t out_w,
                          ConvAlgo algo = ConvAlgo::kAuto);

/// Accumulate the local contribution to dw over the global output range
/// `out_range` (Eq. 2 restricted to I(p); the cross-rank allreduce happens at
/// the layer level). kIm2col computes dw += dy·im2col(x)ᵀ with the tiled
/// GEMM.
void conv2d_backward_filter(const Tensor<float>& x, Origin2 xo,
                            const Tensor<float>& dy, Origin2 dyo, Tensor<float>& dw,
                            const ConvParams& p, const Range2& out_range,
                            bool accumulate = false,
                            ConvAlgo algo = ConvAlgo::kAuto);

// --- im2col helpers (exposed for tests/benchmarks) --------------------------

/// Lower the receptive fields of `out_range` into a (C·Kh·Kw) × (rows)
/// matrix, rows ordered (h, w) within the range, one sample at a time.
void im2col(const Tensor<float>& x, Origin2 xo, std::int64_t sample,
            const ConvParams& p, const Range2& out_range, float* col);

/// Winograd F(2×2, 3×3) forward for 3×3 stride-1 layers: per 2×2 output
/// tile, transform the 4×4 input patch (Bᵀ d B), contract per transformed
/// coordinate with 16 (F×C)·(C×tiles) GEMMs, and inverse-transform
/// (Aᵀ m A) — 16/36 of the direct multiply count. Edge tiles zero-fill
/// out-of-buffer reads and drop out-of-range outputs. Tolerance-mode
/// exactness only: the per-output accumulation chain differs from the
/// direct/im2col families.
void conv2d_forward_winograd(const Tensor<float>& x, Origin2 xo,
                             const Tensor<float>& w, Tensor<float>& y, Origin2 yo,
                             const ConvParams& p, const Range2& out_range);

}  // namespace distconv::kernels
