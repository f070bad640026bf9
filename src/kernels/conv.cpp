#include "kernels/conv.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "kernels/gemm.hpp"
#include "support/error.hpp"
#include "support/intmath.hpp"
#include "support/parallel.hpp"

namespace distconv::kernels {
namespace {

void check_weights(const Tensor<float>& w, const ConvParams& p) {
  DC_REQUIRE(w.shape().h == p.kh && w.shape().w == p.kw,
             "weight tensor shape ", w.shape().str(),
             " does not match kernel size ", p.kh, "x", p.kw);
}

/// The GEMM-backed paths tile their lowering buffers into strips of at most
/// this many floats (~2 MiB), so buffer size is bounded regardless of the
/// range; the forward/backward-data strips only split the GEMM's n
/// dimension, which leaves every output element's accumulation chain
/// unchanged. Backward-filter strips split the k dimension, so there the
/// strip height is part of dw's accumulation chain.
constexpr std::int64_t kLoweringStripElems = 1 << 19;

/// kAuto sentinel = "no override". Seeded lazily from DC_CONV_ALGO.
std::atomic<ConvAlgo> g_algo_override{ConvAlgo::kAuto};
std::atomic<bool> g_algo_override_seeded{false};

void seed_algo_override_from_env() {
  if (g_algo_override_seeded.exchange(true, std::memory_order_acq_rel)) return;
  const char* s = std::getenv("DC_CONV_ALGO");
  ConvAlgo algo = ConvAlgo::kAuto;
  if (s != nullptr && *s != '\0') {
    DC_REQUIRE(parse_conv_algo(s, &algo), "DC_CONV_ALGO: unknown algorithm '",
               s, "'");
  }
  g_algo_override.store(algo, std::memory_order_release);
}

}  // namespace

const char* conv_algo_name(ConvAlgo algo) {
  switch (algo) {
    case ConvAlgo::kDirect: return "direct";
    case ConvAlgo::kIm2col: return "im2col";
    case ConvAlgo::kGemmStrips: return "gemm-strips";
    case ConvAlgo::kWinograd: return "winograd";
    case ConvAlgo::kAuto: return "auto";
  }
  return "?";
}

bool parse_conv_algo(const char* s, ConvAlgo* out) {
  for (ConvAlgo algo :
       {ConvAlgo::kDirect, ConvAlgo::kIm2col, ConvAlgo::kGemmStrips,
        ConvAlgo::kWinograd, ConvAlgo::kAuto}) {
    if (std::strcmp(s, conv_algo_name(algo)) == 0) {
      *out = algo;
      return true;
    }
  }
  return false;
}

bool conv_algo_applicable(ConvAlgo algo, ConvPass pass, const ConvParams& p) {
  switch (algo) {
    case ConvAlgo::kDirect:
    case ConvAlgo::kIm2col:
    case ConvAlgo::kAuto:
      return true;
    case ConvAlgo::kGemmStrips:
      return p.kh == 1 && p.kw == 1 && p.sh == 1 && p.sw == 1 && p.ph == 0 &&
             p.pw == 0;
    case ConvAlgo::kWinograd:
      return pass == ConvPass::kForward && p.kh == 3 && p.kw == 3 &&
             p.sh == 1 && p.sw == 1;
  }
  return false;
}

void set_conv_algo_override(ConvAlgo algo) {
  g_algo_override_seeded.store(true, std::memory_order_release);
  g_algo_override.store(algo, std::memory_order_release);
}

ConvAlgo conv_algo_override() {
  seed_algo_override_from_env();
  return g_algo_override.load(std::memory_order_acquire);
}

ConvAlgo resolve_conv_algo(ConvAlgo algo, const ConvParams& p, std::int64_t c,
                           std::int64_t f) {
  if (algo != ConvAlgo::kAuto) return algo;
  // Arithmetic-intensity cutoff: the im2col pack writes C·Kh·Kw floats per
  // output position and the GEMM reads each back F times. Shallow stencils
  // (small C·Kh·Kw) or few filters leave the GEMM memory-bound on packing
  // traffic, where the direct stencil — which touches x only once per
  // (c, a, b) — wins.
  const std::int64_t depth = c * p.kh * p.kw;
  if (depth < 32 || f < 8) return ConvAlgo::kDirect;
  // A 1×1 stride-1 unpadded layer needs no lowering at all.
  return conv_algo_applicable(ConvAlgo::kGemmStrips, ConvPass::kForward, p)
             ? ConvAlgo::kGemmStrips
             : ConvAlgo::kIm2col;
}

namespace {

/// The algorithm a dispatch runs. Explicit algorithms must be applicable to
/// the pass/shape; kAuto takes the DC_CONV_ALGO escape hatch when the shape
/// supports it, else the layer-constant rule.
ConvAlgo dispatch_algo(ConvAlgo algo, ConvPass pass, const ConvParams& p,
                       std::int64_t c, std::int64_t f) {
  if (algo == ConvAlgo::kAuto) {
    const ConvAlgo forced = conv_algo_override();
    if (forced != ConvAlgo::kAuto && conv_algo_applicable(forced, pass, p)) {
      return forced;
    }
    return resolve_conv_algo(algo, p, c, f);
  }
  DC_REQUIRE(conv_algo_applicable(algo, pass, p), "algorithm ",
             conv_algo_name(algo), " cannot execute this pass/shape");
  return algo;
}

}  // namespace

// ---------------------------------------------------------------------------
// Padded oracles (single-threaded references; the region kernels are the
// production paths)
// ---------------------------------------------------------------------------

void conv2d_forward_padded(const Tensor<float>& x, const Tensor<float>& w,
                           Tensor<float>& y, const ConvParams& p) {
  check_weights(w, p);
  const auto& xs = x.shape();
  const auto& ys = y.shape();
  DC_REQUIRE(ys.h == p.out_h(xs.h) && ys.w == p.out_w(xs.w),
             "output shape ", ys.str(), " inconsistent with input ", xs.str());
  DC_REQUIRE(xs.c == w.shape().c && ys.c == w.shape().n,
             "channel/filter mismatch");
  for (std::int64_t k = 0; k < ys.n; ++k) {
    for (std::int64_t f = 0; f < ys.c; ++f) {
      for (std::int64_t i = 0; i < ys.h; ++i) {
        for (std::int64_t j = 0; j < ys.w; ++j) {
          float acc = 0.0f;
          for (std::int64_t c = 0; c < xs.c; ++c) {
            for (int a = 0; a < p.kh; ++a) {
              const std::int64_t ih = i * p.sh - p.ph + a;
              if (ih < 0 || ih >= xs.h) continue;
              for (int b = 0; b < p.kw; ++b) {
                const std::int64_t iw = j * p.sw - p.pw + b;
                if (iw < 0 || iw >= xs.w) continue;
                acc += x(k, c, ih, iw) * w(f, c, a, b);
              }
            }
          }
          y(k, f, i, j) = acc;
        }
      }
    }
  }
}

void conv2d_backward_data_padded(const Tensor<float>& dy, const Tensor<float>& w,
                                 Tensor<float>& dx, const ConvParams& p) {
  check_weights(w, p);
  const auto& ds = dy.shape();
  const auto& xs = dx.shape();
  DC_REQUIRE(ds.h == p.out_h(xs.h) && ds.w == p.out_w(xs.w),
             "dy shape inconsistent with dx shape");
  dx.zero();
  for (std::int64_t k = 0; k < ds.n; ++k) {
    for (std::int64_t f = 0; f < ds.c; ++f) {
      for (std::int64_t i = 0; i < ds.h; ++i) {
        for (std::int64_t j = 0; j < ds.w; ++j) {
          const float g = dy(k, f, i, j);
          for (std::int64_t c = 0; c < xs.c; ++c) {
            for (int a = 0; a < p.kh; ++a) {
              const std::int64_t ih = i * p.sh - p.ph + a;
              if (ih < 0 || ih >= xs.h) continue;
              for (int b = 0; b < p.kw; ++b) {
                const std::int64_t iw = j * p.sw - p.pw + b;
                if (iw < 0 || iw >= xs.w) continue;
                dx(k, c, ih, iw) += g * w(f, c, a, b);
              }
            }
          }
        }
      }
    }
  }
}

void conv2d_backward_filter_padded(const Tensor<float>& x, const Tensor<float>& dy,
                                   Tensor<float>& dw, const ConvParams& p,
                                   bool accumulate) {
  check_weights(dw, p);
  const auto& xs = x.shape();
  const auto& ds = dy.shape();
  if (!accumulate) dw.zero();
  for (std::int64_t k = 0; k < ds.n; ++k) {
    for (std::int64_t f = 0; f < ds.c; ++f) {
      for (std::int64_t c = 0; c < xs.c; ++c) {
        for (int a = 0; a < p.kh; ++a) {
          for (int b = 0; b < p.kw; ++b) {
            float acc = 0.0f;
            for (std::int64_t i = 0; i < ds.h; ++i) {
              const std::int64_t ih = i * p.sh - p.ph + a;
              if (ih < 0 || ih >= xs.h) continue;
              for (std::int64_t j = 0; j < ds.w; ++j) {
                const std::int64_t iw = j * p.sw - p.pw + b;
                if (iw < 0 || iw >= xs.w) continue;
                acc += dy(k, f, i, j) * x(k, c, ih, iw);
              }
            }
            dw(f, c, a, b) += acc;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Region kernels
// ---------------------------------------------------------------------------

namespace {

void conv2d_forward_direct(const Tensor<float>& x, Origin2 xo,
                           const Tensor<float>& w, Tensor<float>& y, Origin2 yo,
                           const ConvParams& p, const Range2& r) {
  const std::int64_t N = y.shape().n;
  const std::int64_t F = w.shape().n;
  const std::int64_t C = w.shape().c;
  const auto& xst = x.strides();
  const auto& yst = y.strides();
  // Each (sample, filter) owns a disjoint output region: safe to run them
  // in parallel, and the per-element accumulation order (c, a, b, rows) is
  // independent of the thread budget.
  parallel::parallel_for(0, N * F, 1, [&](std::int64_t t0, std::int64_t t1) {
    for (std::int64_t t = t0; t < t1; ++t) {
      const std::int64_t k = t / F;
      const std::int64_t f = t % F;
      // Zero the target region, then accumulate per (c, a, b).
      for (std::int64_t gh = r.h0; gh < r.h1; ++gh) {
        float* yrow = y.data() + yst.offset(k, f, gh - yo.h, r.w0 - yo.w);
        std::fill(yrow, yrow + (r.w1 - r.w0), 0.0f);
      }
      for (std::int64_t c = 0; c < C; ++c) {
        for (int a = 0; a < p.kh; ++a) {
          for (int b = 0; b < p.kw; ++b) {
            const float wv = w(f, c, a, b);
            for (std::int64_t gh = r.h0; gh < r.h1; ++gh) {
              const std::int64_t ih = gh * p.sh - p.ph + a - xo.h;
              const float* xrow =
                  x.data() + xst.offset(k, c, ih, r.w0 * p.sw - p.pw + b - xo.w);
              float* yrow = y.data() + yst.offset(k, f, gh - yo.h, r.w0 - yo.w);
              if (p.sw == 1) {
                for (std::int64_t j = 0; j < r.w1 - r.w0; ++j) {
                  yrow[j] += wv * xrow[j];
                }
              } else {
                for (std::int64_t j = 0; j < r.w1 - r.w0; ++j) {
                  yrow[j] += wv * xrow[j * p.sw];
                }
              }
            }
          }
        }
      }
    }
  });
}

/// Strip height for a lowering buffer of depth `depth` floats per output
/// position over rows of width `rw`, within kLoweringStripElems. Depends
/// only on shapes, never on the range height or the thread budget.
std::int64_t lowering_strip_height(std::int64_t depth, std::int64_t rw) {
  const std::int64_t target_rows =
      std::max<std::int64_t>(1, kLoweringStripElems / depth);
  return std::max<std::int64_t>(1, target_rows / std::max<std::int64_t>(1, rw));
}

/// Output positions a strip buffer holds for range `r` under strip height
/// `hb`: one full strip, or only what the range covers when it is shorter.
std::int64_t strip_capacity(const Range2& r, std::int64_t hb) {
  return std::min(hb, r.h1 - r.h0) * (r.w1 - r.w0);
}

void conv2d_forward_im2col(const Tensor<float>& x, Origin2 xo,
                           const Tensor<float>& w, Tensor<float>& y, Origin2 yo,
                           const ConvParams& p, const Range2& r) {
  const std::int64_t N = y.shape().n;
  const std::int64_t F = w.shape().n;
  const std::int64_t C = w.shape().c;
  const std::int64_t ckk = C * p.kh * p.kw;
  const std::int64_t rw = r.w1 - r.w0;
  const std::int64_t hb = lowering_strip_height(ckk, rw);
  const std::int64_t cap = strip_capacity(r, hb);
  std::vector<float> col(static_cast<std::size_t>(ckk * cap));
  std::vector<float> out(static_cast<std::size_t>(F * cap));
  const auto& yst = y.strides();
  for (std::int64_t k = 0; k < N; ++k) {
    for (std::int64_t h0 = r.h0; h0 < r.h1; h0 += hb) {
      const Range2 rs{h0, std::min(r.h1, h0 + hb), r.w0, r.w1};
      const std::int64_t rows = rs.area();
      im2col(x, xo, k, p, rs, col.data());
      // out (F × rows) = W (F × ckk) · col (ckk × rows)
      sgemm(false, false, F, rows, ckk, 1.0f, w.data(), ckk, col.data(), rows,
            0.0f, out.data(), rows);
      parallel::parallel_for(0, F, 1, [&](std::int64_t f0, std::int64_t f1) {
        for (std::int64_t f = f0; f < f1; ++f) {
          const float* src = out.data() + f * rows;
          for (std::int64_t gh = rs.h0; gh < rs.h1; ++gh) {
            float* yrow = y.data() + yst.offset(k, f, gh - yo.h, rs.w0 - yo.w);
            std::copy(src, src + rw, yrow);
            src += rw;
          }
        }
      });
    }
  }
}

/// For a 1×1 stride-1 unpadded layer, a buffer's channel planes *are* the
/// lowering matrix whenever each plane's rows are dense over the range
/// (row stride == range width, zero horizontal offset): element (c, h, w)
/// sits exactly where im2col would pack it, at plane base + c·(channel
/// stride). Densely laid out buffers then skip the pack entirely.
bool dense_planes(const Tensor<float>& t, Origin2 to, const Range2& r) {
  return t.strides().h == (r.w1 - r.w0) && r.w0 == to.w;
}

/// Zero-copy forward for 1×1 stride-1 unpadded layers: y = W·x per strip,
/// reading x planes and writing y planes in place. Bitwise identical to
/// kIm2col — the GEMM sees the same operand values in the same (m, n, k)
/// shape, only through different leading dimensions; non-dense buffers fall
/// back to packing, which is exactly the im2col path.
void conv2d_forward_gemm_strips(const Tensor<float>& x, Origin2 xo,
                                const Tensor<float>& w, Tensor<float>& y,
                                Origin2 yo, const ConvParams& p, const Range2& r) {
  const std::int64_t N = y.shape().n;
  const std::int64_t F = w.shape().n;
  const std::int64_t C = w.shape().c;
  const std::int64_t rw = r.w1 - r.w0;
  const auto& xst = x.strides();
  const auto& yst = y.strides();
  const bool x_dense = dense_planes(x, xo, r);
  const bool y_dense = dense_planes(y, yo, r);
  const std::int64_t hb = lowering_strip_height(C, rw);
  const std::int64_t cap = strip_capacity(r, hb);
  std::vector<float> col, out;
  if (!x_dense) col.resize(static_cast<std::size_t>(C * cap));
  if (!y_dense) out.resize(static_cast<std::size_t>(F * cap));
  for (std::int64_t k = 0; k < N; ++k) {
    for (std::int64_t h0 = r.h0; h0 < r.h1; h0 += hb) {
      const Range2 rs{h0, std::min(r.h1, h0 + hb), r.w0, r.w1};
      const std::int64_t rows = rs.area();
      const float* b;
      std::int64_t ldb;
      if (x_dense) {
        b = x.data() + xst.offset(k, 0, rs.h0 - xo.h, 0);
        ldb = xst.c;
      } else {
        im2col(x, xo, k, p, rs, col.data());
        b = col.data();
        ldb = rows;
      }
      // y (F × rows) = W (F × C) · x (C × rows)
      if (y_dense) {
        sgemm(false, false, F, rows, C, 1.0f, w.data(), C, b, ldb, 0.0f,
              y.data() + yst.offset(k, 0, rs.h0 - yo.h, 0), yst.c);
      } else {
        sgemm(false, false, F, rows, C, 1.0f, w.data(), C, b, ldb, 0.0f,
              out.data(), rows);
        parallel::parallel_for(0, F, 1, [&](std::int64_t f0, std::int64_t f1) {
          for (std::int64_t f = f0; f < f1; ++f) {
            const float* src = out.data() + f * rows;
            for (std::int64_t gh = rs.h0; gh < rs.h1; ++gh) {
              float* yrow =
                  y.data() + yst.offset(k, f, gh - yo.h, rs.w0 - yo.w);
              std::copy(src, src + rw, yrow);
              src += rw;
            }
          }
        });
      }
    }
  }
}

}  // namespace

void im2col(const Tensor<float>& x, Origin2 xo, std::int64_t sample,
            const ConvParams& p, const Range2& r, float* col) {
  const std::int64_t C = x.shape().c;
  const std::int64_t rw = r.w1 - r.w0;
  const std::int64_t rows = r.area();
  const auto& xst = x.strides();
  // Channel c owns rows [c·kh·kw, (c+1)·kh·kw) of the lowering: disjoint
  // writes, parallel over channels.
  parallel::parallel_for(0, C, 1, [&](std::int64_t c0, std::int64_t c1) {
    for (std::int64_t c = c0; c < c1; ++c) {
      std::int64_t m = c * p.kh * p.kw;
      for (int a = 0; a < p.kh; ++a) {
        for (int b = 0; b < p.kw; ++b, ++m) {
          float* dst = col + m * rows;
          for (std::int64_t gh = r.h0; gh < r.h1; ++gh) {
            const std::int64_t ih = gh * p.sh - p.ph + a - xo.h;
            const float* xrow =
                x.data() +
                xst.offset(sample, c, ih, r.w0 * p.sw - p.pw + b - xo.w);
            if (p.sw == 1) {
              std::copy(xrow, xrow + rw, dst);
            } else {
              for (std::int64_t j = 0; j < rw; ++j) dst[j] = xrow[j * p.sw];
            }
            dst += rw;
          }
        }
      }
    }
  });
}

void conv2d_forward(const Tensor<float>& x, Origin2 xo, const Tensor<float>& w,
                    Tensor<float>& y, Origin2 yo, const ConvParams& p,
                    const Range2& r, ConvAlgo algo) {
  check_weights(w, p);
  if (r.empty()) return;
  DC_REQUIRE(x.shape().n == y.shape().n, "sample count mismatch");
  switch (dispatch_algo(algo, ConvPass::kForward, p, w.shape().c,
                        w.shape().n)) {
    case ConvAlgo::kDirect:
      conv2d_forward_direct(x, xo, w, y, yo, p, r);
      break;
    case ConvAlgo::kIm2col:
      conv2d_forward_im2col(x, xo, w, y, yo, p, r);
      break;
    case ConvAlgo::kGemmStrips:
      conv2d_forward_gemm_strips(x, xo, w, y, yo, p, r);
      break;
    case ConvAlgo::kWinograd:
      conv2d_forward_winograd(x, xo, w, y, yo, p, r);
      break;
    case ConvAlgo::kAuto:
      DC_FAIL("unresolved convolution algorithm");
  }
}

// ---------------------------------------------------------------------------
// Backward data
// ---------------------------------------------------------------------------

namespace {

/// The global output rows/cols whose stencil windows can touch the input
/// range `r`, clipped to the global output extents.
Range2 gather_window(const ConvParams& p, const Range2& r, std::int64_t out_h,
                     std::int64_t out_w) {
  Range2 win;
  win.h0 = std::max<std::int64_t>(0, ceil_div(r.h0 + p.ph - p.kh + 1, p.sh));
  win.h1 = std::min<std::int64_t>(out_h, floor_div(r.h1 - 1 + p.ph, p.sh) + 1);
  win.w0 = std::max<std::int64_t>(0, ceil_div(r.w0 + p.pw - p.kw + 1, p.sw));
  win.w1 = std::min<std::int64_t>(out_w, floor_div(r.w1 - 1 + p.pw, p.sw) + 1);
  return win;
}

/// Pack `nch` channel planes of `t` over the window `win` into a dense
/// (nch × win.area()) matrix.
void pack_window(const Tensor<float>& t, Origin2 to, std::int64_t sample,
                 std::int64_t nch, const Range2& win, float* dst) {
  const auto& st = t.strides();
  const std::int64_t ww = win.w1 - win.w0;
  const std::int64_t rows = win.area();
  parallel::parallel_for(0, nch, 1, [&](std::int64_t f0, std::int64_t f1) {
    for (std::int64_t f = f0; f < f1; ++f) {
      float* out = dst + f * rows;
      for (std::int64_t jh = win.h0; jh < win.h1; ++jh) {
        const float* src =
            t.data() + st.offset(sample, f, jh - to.h, win.w0 - to.w);
        std::copy(src, src + ww, out);
        out += ww;
      }
    }
  });
}

void conv2d_backward_data_direct(const Tensor<float>& dy, Origin2 dyo,
                                 const Tensor<float>& w, Tensor<float>& dx,
                                 Origin2 dxo, const ConvParams& p, const Range2& r,
                                 std::int64_t out_h, std::int64_t out_w) {
  const std::int64_t N = dx.shape().n;
  const std::int64_t F = w.shape().n;
  const std::int64_t C = w.shape().c;
  const auto& dyst = dy.strides();
  const auto& wst = w.strides();
  const std::int64_t rh = r.h1 - r.h0;
  // Each (sample, input row) writes a disjoint dx row.
  parallel::parallel_for(0, N * rh, 1, [&](std::int64_t t0, std::int64_t t1) {
    std::vector<float> acc(C);
    for (std::int64_t t = t0; t < t1; ++t) {
      const std::int64_t k = t / rh;
      const std::int64_t gi = r.h0 + t % rh;
      // Output rows jh with a = gi + ph - sh·jh ∈ [0, kh), jh ∈ [0, out_h).
      const std::int64_t jh_lo =
          std::max<std::int64_t>(0, ceil_div(gi + p.ph - p.kh + 1, p.sh));
      const std::int64_t jh_hi =
          std::min<std::int64_t>(out_h - 1, floor_div(gi + p.ph, p.sh));
      for (std::int64_t gj = r.w0; gj < r.w1; ++gj) {
        const std::int64_t jw_lo =
            std::max<std::int64_t>(0, ceil_div(gj + p.pw - p.kw + 1, p.sw));
        const std::int64_t jw_hi =
            std::min<std::int64_t>(out_w - 1, floor_div(gj + p.pw, p.sw));
        std::fill(acc.begin(), acc.end(), 0.0f);
        for (std::int64_t jh = jh_lo; jh <= jh_hi; ++jh) {
          const std::int64_t a = gi + p.ph - p.sh * jh;
          for (std::int64_t jw = jw_lo; jw <= jw_hi; ++jw) {
            const std::int64_t b = gj + p.pw - p.sw * jw;
            for (std::int64_t f = 0; f < F; ++f) {
              const float g = dy.data()[dyst.offset(k, f, jh - dyo.h, jw - dyo.w)];
              const float* wbase = w.data() + wst.offset(f, 0, a, b);
              for (std::int64_t c = 0; c < C; ++c) {
                acc[c] += g * wbase[c * wst.c];
              }
            }
          }
        }
        for (std::int64_t c = 0; c < C; ++c) {
          dx(k, c, gi - dxo.h, gj - dxo.w) = acc[c];
        }
      }
    }
  });
}

/// col2im backward data: dcol = Wᵀ · dy over the gather window, scattered
/// back into dx. Processed in input-row strips so the dcol buffer stays
/// bounded; each strip owns its dx rows, and within a strip channel c owns
/// plane (k, c), so the scatter parallelizes over channels with a fixed
/// (a, b, jh, jw) accumulation order per element.
///
/// When kh > sh, consecutive strips' gather windows overlap by the
/// transposed stencil's reach (~(kh−1)/sh output rows). Each dcol element
/// depends only on its (jh, jw) output position, so the overlapping rows
/// are copied out of the previous strip's packed panel instead of being
/// recomputed — the GEMM and the dy pack run over the fresh rows alone.
/// Values are bitwise identical either way (the GEMM's per-element k-chain
/// does not depend on which n-columns share a call).
void conv2d_backward_data_gemm(const Tensor<float>& dy, Origin2 dyo,
                               const Tensor<float>& w, Tensor<float>& dx,
                               Origin2 dxo, const ConvParams& p, const Range2& r,
                               std::int64_t out_h, std::int64_t out_w) {
  const std::int64_t N = dx.shape().n;
  const std::int64_t F = w.shape().n;
  const std::int64_t C = w.shape().c;
  const std::int64_t ckk = C * p.kh * p.kw;
  const auto& dxst = dx.strides();
  // Strip the input rows; the corresponding output window grows by the
  // transposed stencil's reach (kh / sh rows).
  const Range2 full_win = gather_window(p, r, out_h, out_w);
  const std::int64_t win_w = std::max<std::int64_t>(1, full_win.w1 - full_win.w0);
  const std::int64_t hb = std::max<std::int64_t>(
      1, lowering_strip_height(ckk, win_w) * p.sh);
  std::vector<float> dyp, dcol_a, dcol_b;
  for (std::int64_t k = 0; k < N; ++k) {
    std::vector<float>* dcol = &dcol_a;
    std::vector<float>* dcol_prev = &dcol_b;
    Range2 prev_win{0, 0, 0, 0};
    bool prev_valid = false;  // previous strip's panel reusable (same sample)
    for (std::int64_t g0 = r.h0; g0 < r.h1; g0 += hb) {
      const Range2 rs{g0, std::min(r.h1, g0 + hb), r.w0, r.w1};
      const Range2 win = gather_window(p, rs, out_h, out_w);
      // Zero the strip's dx rows (positions with no contributing outputs
      // must read 0, and the scatter accumulates).
      parallel::parallel_for(0, C, 1, [&](std::int64_t c0, std::int64_t c1) {
        for (std::int64_t c = c0; c < c1; ++c) {
          for (std::int64_t gi = rs.h0; gi < rs.h1; ++gi) {
            float* row =
                dx.data() + dxst.offset(k, c, gi - dxo.h, rs.w0 - dxo.w);
            std::fill(row, row + (rs.w1 - rs.w0), 0.0f);
          }
        }
      });
      if (win.empty()) {
        prev_valid = false;
        continue;
      }
      const std::int64_t rows = win.area();
      const std::int64_t ww = win.w1 - win.w0;
      dcol->resize(static_cast<std::size_t>(ckk) * rows);
      // Output rows [win.h0, prev_win.h1) were packed by the previous strip
      // (the w-range is strip-invariant); copy them, GEMM the rest.
      const std::int64_t reuse_rows =
          prev_valid
              ? std::max<std::int64_t>(
                    0, std::min(prev_win.h1, win.h1) - win.h0)
              : 0;
      if (reuse_rows > 0) {
        const std::int64_t prev_rows = prev_win.area();
        const std::int64_t src_off = (win.h0 - prev_win.h0) * ww;
        parallel::parallel_for(0, ckk, 1, [&](std::int64_t m0, std::int64_t m1) {
          for (std::int64_t m = m0; m < m1; ++m) {
            std::copy(dcol_prev->data() + m * prev_rows + src_off,
                      dcol_prev->data() + m * prev_rows + src_off +
                          reuse_rows * ww,
                      dcol->data() + m * rows);
          }
        });
      }
      if (win.h0 + reuse_rows < win.h1) {
        const Range2 fresh{win.h0 + reuse_rows, win.h1, win.w0, win.w1};
        const std::int64_t fresh_rows = fresh.area();
        dyp.resize(static_cast<std::size_t>(F) * fresh_rows);
        pack_window(dy, dyo, k, F, fresh, dyp.data());
        // dcol[:, fresh] (ckk × fresh_rows) = Wᵀ (ckk × F) · dy (F × fresh_rows)
        sgemm(true, false, ckk, fresh_rows, F, 1.0f, w.data(), ckk, dyp.data(),
              fresh_rows, 0.0f, dcol->data() + reuse_rows * ww, rows);
      }
      parallel::parallel_for(0, C, 1, [&](std::int64_t c0, std::int64_t c1) {
        for (std::int64_t c = c0; c < c1; ++c) {
          for (int a = 0; a < p.kh; ++a) {
            for (int b = 0; b < p.kw; ++b) {
              const float* src =
                  dcol->data() + ((c * p.kh + a) * p.kw + b) * rows;
              for (std::int64_t jh = win.h0; jh < win.h1; ++jh) {
                const std::int64_t gi = jh * p.sh - p.ph + a;
                if (gi < rs.h0 || gi >= rs.h1) continue;
                const float* srow = src + (jh - win.h0) * ww;
                float* drow = dx.data() + dxst.offset(k, c, gi - dxo.h, -dxo.w);
                if (p.sw == 1 && p.pw == b && win.w0 == rs.w0 &&
                    win.w1 == rs.w1) {
                  // Fast path: unit horizontal stride with aligned window.
                  for (std::int64_t jw = win.w0; jw < win.w1; ++jw) {
                    drow[jw] += srow[jw - win.w0];
                  }
                } else {
                  for (std::int64_t jw = win.w0; jw < win.w1; ++jw) {
                    const std::int64_t gj = jw * p.sw - p.pw + b;
                    if (gj < rs.w0 || gj >= rs.w1) continue;
                    drow[gj] += srow[jw - win.w0];
                  }
                }
              }
            }
          }
        }
      });
      prev_win = win;
      prev_valid = true;
      std::swap(dcol, dcol_prev);
    }
  }
}

/// Zero-copy backward data for 1×1 stride-1 unpadded layers: dx = Wᵀ·dy per
/// strip, straight between buffer planes — the gather window degenerates to
/// the range itself, so the col2im scatter disappears. Bitwise identical to
/// kIm2col (the legacy dx = 0 + dcol copy cannot change bits: micro-kernel
/// accumulators never produce -0, so adding dcol onto zero is the identity).
void conv2d_backward_data_gemm_strips(const Tensor<float>& dy, Origin2 dyo,
                                      const Tensor<float>& w, Tensor<float>& dx,
                                      Origin2 dxo, const ConvParams& p,
                                      const Range2& r, std::int64_t out_h,
                                      std::int64_t out_w) {
  if (r.h0 < 0 || r.h1 > out_h || r.w0 < 0 || r.w1 > out_w) {
    // The window would clip; keep the general path (identical results).
    conv2d_backward_data_gemm(dy, dyo, w, dx, dxo, p, r, out_h, out_w);
    return;
  }
  const std::int64_t N = dx.shape().n;
  const std::int64_t F = w.shape().n;
  const std::int64_t C = w.shape().c;
  const std::int64_t rw = r.w1 - r.w0;
  const auto& dyst = dy.strides();
  const auto& dxst = dx.strides();
  const bool dy_dense = dense_planes(dy, dyo, r);
  const bool dx_dense = dense_planes(dx, dxo, r);
  const std::int64_t hb = lowering_strip_height(C, rw);
  const std::int64_t cap = strip_capacity(r, hb);
  std::vector<float> dyp, dcol;
  if (!dy_dense) dyp.resize(static_cast<std::size_t>(F * cap));
  if (!dx_dense) dcol.resize(static_cast<std::size_t>(C * cap));
  for (std::int64_t k = 0; k < N; ++k) {
    for (std::int64_t g0 = r.h0; g0 < r.h1; g0 += hb) {
      const Range2 rs{g0, std::min(r.h1, g0 + hb), r.w0, r.w1};
      const std::int64_t rows = rs.area();
      const float* b;
      std::int64_t ldb;
      if (dy_dense) {
        b = dy.data() + dyst.offset(k, 0, rs.h0 - dyo.h, 0);
        ldb = dyst.c;
      } else {
        pack_window(dy, dyo, k, F, rs, dyp.data());
        b = dyp.data();
        ldb = rows;
      }
      // dx (C × rows) = Wᵀ (C × F) · dy (F × rows)
      if (dx_dense) {
        sgemm(true, false, C, rows, F, 1.0f, w.data(), C, b, ldb, 0.0f,
              dx.data() + dxst.offset(k, 0, rs.h0 - dxo.h, 0), dxst.c);
      } else {
        sgemm(true, false, C, rows, F, 1.0f, w.data(), C, b, ldb, 0.0f,
              dcol.data(), rows);
        parallel::parallel_for(0, C, 1, [&](std::int64_t c0, std::int64_t c1) {
          for (std::int64_t c = c0; c < c1; ++c) {
            const float* src = dcol.data() + c * rows;
            for (std::int64_t gi = rs.h0; gi < rs.h1; ++gi) {
              float* drow =
                  dx.data() + dxst.offset(k, c, gi - dxo.h, rs.w0 - dxo.w);
              std::fill(drow, drow + rw, 0.0f);
              for (std::int64_t j = 0; j < rw; ++j) drow[j] += src[j];
              src += rw;
            }
          }
        });
      }
    }
  }
}

}  // namespace

void conv2d_backward_data(const Tensor<float>& dy, Origin2 dyo,
                          const Tensor<float>& w, Tensor<float>& dx, Origin2 dxo,
                          const ConvParams& p, const Range2& r, std::int64_t out_h,
                          std::int64_t out_w, ConvAlgo algo) {
  check_weights(w, p);
  if (r.empty()) return;
  switch (dispatch_algo(algo, ConvPass::kBackwardData, p, w.shape().c,
                        w.shape().n)) {
    case ConvAlgo::kDirect:
      conv2d_backward_data_direct(dy, dyo, w, dx, dxo, p, r, out_h, out_w);
      break;
    case ConvAlgo::kIm2col:
      conv2d_backward_data_gemm(dy, dyo, w, dx, dxo, p, r, out_h, out_w);
      break;
    case ConvAlgo::kGemmStrips:
      conv2d_backward_data_gemm_strips(dy, dyo, w, dx, dxo, p, r, out_h, out_w);
      break;
    case ConvAlgo::kWinograd:
      DC_FAIL("winograd has no backward-data kernel");
    case ConvAlgo::kAuto:
      DC_FAIL("unresolved convolution algorithm");
  }
}

// ---------------------------------------------------------------------------
// Backward filter
// ---------------------------------------------------------------------------

namespace {

void conv2d_backward_filter_direct(const Tensor<float>& x, Origin2 xo,
                                   const Tensor<float>& dy, Origin2 dyo,
                                   Tensor<float>& dw, const ConvParams& p,
                                   const Range2& r) {
  const std::int64_t N = dy.shape().n;
  const std::int64_t F = dw.shape().n;
  const std::int64_t C = dw.shape().c;
  const auto& xst = x.strides();
  const auto& dyst = dy.strides();
  // Each (filter, channel) owns a disjoint dw plane; the (k, a, b, rows)
  // reduction order inside is fixed.
  parallel::parallel_for(0, F * C, 1, [&](std::int64_t t0, std::int64_t t1) {
    for (std::int64_t t = t0; t < t1; ++t) {
      const std::int64_t f = t / C;
      const std::int64_t c = t % C;
      for (int a = 0; a < p.kh; ++a) {
        for (int b = 0; b < p.kw; ++b) {
          float acc = 0.0f;
          for (std::int64_t k = 0; k < N; ++k) {
            for (std::int64_t gh = r.h0; gh < r.h1; ++gh) {
              const std::int64_t ih = gh * p.sh - p.ph + a - xo.h;
              const float* dyrow =
                  dy.data() + dyst.offset(k, f, gh - dyo.h, r.w0 - dyo.w);
              const float* xrow =
                  x.data() + xst.offset(k, c, ih, r.w0 * p.sw - p.pw + b - xo.w);
              if (p.sw == 1) {
                for (std::int64_t j = 0; j < r.w1 - r.w0; ++j) {
                  acc += dyrow[j] * xrow[j];
                }
              } else {
                for (std::int64_t j = 0; j < r.w1 - r.w0; ++j) {
                  acc += dyrow[j] * xrow[j * p.sw];
                }
              }
            }
          }
          dw(f, c, a, b) += acc;
        }
      }
    }
  });
}

/// im2col-transpose backward filter: dw (F × ckk) += dy (F × rows) ·
/// im2col(x)ᵀ (rows × ckk), accumulated serially over samples and strips so
/// the per-element chain is fixed.
void conv2d_backward_filter_gemm(const Tensor<float>& x, Origin2 xo,
                                 const Tensor<float>& dy, Origin2 dyo,
                                 Tensor<float>& dw, const ConvParams& p,
                                 const Range2& r) {
  const std::int64_t N = dy.shape().n;
  const std::int64_t F = dw.shape().n;
  const std::int64_t C = dw.shape().c;
  const std::int64_t ckk = C * p.kh * p.kw;
  const std::int64_t rw = r.w1 - r.w0;
  const std::int64_t hb = lowering_strip_height(ckk, rw);
  const std::int64_t cap = strip_capacity(r, hb);
  std::vector<float> col(static_cast<std::size_t>(ckk * cap));
  std::vector<float> dyp(static_cast<std::size_t>(F * cap));
  for (std::int64_t k = 0; k < N; ++k) {
    for (std::int64_t h0 = r.h0; h0 < r.h1; h0 += hb) {
      const Range2 rs{h0, std::min(r.h1, h0 + hb), r.w0, r.w1};
      const std::int64_t rows = rs.area();
      im2col(x, xo, k, p, rs, col.data());
      pack_window(dy, dyo, k, F, rs, dyp.data());
      // dw (F × ckk) += dy (F × rows) · col (ckk × rows)ᵀ
      sgemm(false, true, F, ckk, rows, 1.0f, dyp.data(), rows, col.data(), rows,
            1.0f, dw.data(), ckk);
    }
  }
}

/// Zero-copy backward filter for 1×1 stride-1 unpadded layers: the strips
/// split the GEMM's *k* dimension (the strip height is part of dw's
/// accumulation chain) and only the packs are elided — dy and x planes feed
/// the GEMM in place when dense. Bitwise identical to kIm2col: same strip
/// sequence, same operand values.
void conv2d_backward_filter_gemm_strips(const Tensor<float>& x, Origin2 xo,
                                        const Tensor<float>& dy, Origin2 dyo,
                                        Tensor<float>& dw, const ConvParams& p,
                                        const Range2& r) {
  const std::int64_t N = dy.shape().n;
  const std::int64_t F = dw.shape().n;
  const std::int64_t C = dw.shape().c;
  const std::int64_t rw = r.w1 - r.w0;
  const auto& xst = x.strides();
  const auto& dyst = dy.strides();
  const bool x_dense = dense_planes(x, xo, r);
  const bool dy_dense = dense_planes(dy, dyo, r);
  const std::int64_t hb = lowering_strip_height(C, rw);
  const std::int64_t cap = strip_capacity(r, hb);
  std::vector<float> col, dyp;
  if (!x_dense) col.resize(static_cast<std::size_t>(C * cap));
  if (!dy_dense) dyp.resize(static_cast<std::size_t>(F * cap));
  for (std::int64_t k = 0; k < N; ++k) {
    for (std::int64_t h0 = r.h0; h0 < r.h1; h0 += hb) {
      const Range2 rs{h0, std::min(r.h1, h0 + hb), r.w0, r.w1};
      const std::int64_t rows = rs.area();
      const float* a;
      std::int64_t lda;
      if (dy_dense) {
        a = dy.data() + dyst.offset(k, 0, rs.h0 - dyo.h, 0);
        lda = dyst.c;
      } else {
        pack_window(dy, dyo, k, F, rs, dyp.data());
        a = dyp.data();
        lda = rows;
      }
      const float* b;
      std::int64_t ldb;
      if (x_dense) {
        b = x.data() + xst.offset(k, 0, rs.h0 - xo.h, 0);
        ldb = xst.c;
      } else {
        im2col(x, xo, k, p, rs, col.data());
        b = col.data();
        ldb = rows;
      }
      // dw (F × C) += dy (F × rows) · x (C × rows)ᵀ
      sgemm(false, true, F, C, rows, 1.0f, a, lda, b, ldb, 1.0f, dw.data(), C);
    }
  }
}

}  // namespace

void conv2d_backward_filter(const Tensor<float>& x, Origin2 xo,
                            const Tensor<float>& dy, Origin2 dyo, Tensor<float>& dw,
                            const ConvParams& p, const Range2& r, bool accumulate,
                            ConvAlgo algo) {
  check_weights(dw, p);
  const ConvAlgo run = dispatch_algo(algo, ConvPass::kBackwardFilter, p,
                                     dw.shape().c, dw.shape().n);
  if (!accumulate) dw.zero();
  if (r.empty()) return;
  switch (run) {
    case ConvAlgo::kDirect:
      conv2d_backward_filter_direct(x, xo, dy, dyo, dw, p, r);
      break;
    case ConvAlgo::kIm2col:
      conv2d_backward_filter_gemm(x, xo, dy, dyo, dw, p, r);
      break;
    case ConvAlgo::kGemmStrips:
      conv2d_backward_filter_gemm_strips(x, xo, dy, dyo, dw, p, r);
      break;
    case ConvAlgo::kWinograd:
      DC_FAIL("winograd has no backward-filter kernel");
    case ConvAlgo::kAuto:
      DC_FAIL("unresolved convolution algorithm");
  }
}

}  // namespace distconv::kernels
