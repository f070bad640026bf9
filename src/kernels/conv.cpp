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
    case ConvAlgo::kGemm: return "gemm";
    case ConvAlgo::kAuto: return "auto";
  }
  return "?";
}

bool parse_conv_algo(const char* s, ConvAlgo* out) {
  for (ConvAlgo algo : {ConvAlgo::kDirect, ConvAlgo::kGemm, ConvAlgo::kAuto}) {
    if (std::strcmp(s, conv_algo_name(algo)) == 0) {
      *out = algo;
      return true;
    }
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
  // Register-tile cutoff: the micro-kernel contracts 6 × 16 outputs per
  // step, so shallow stencils (small C·Kh·Kw) or few filters leave most of
  // the tile idle, where the direct stencil — which touches x only once per
  // (c, a, b) — wins. Direct and GEMM sum in different orders, so moving
  // the cutoff changes results' bits.
  const std::int64_t depth = c * p.kh * p.kw;
  return depth < 32 || f < 8 ? ConvAlgo::kDirect : ConvAlgo::kGemm;
}

std::int64_t gemm_strip_height(std::int64_t depth, std::int64_t rw) {
  constexpr std::int64_t kStripElems = 1 << 19;  // ~2 MiB of lowered input
  const std::int64_t target_rows = std::max<std::int64_t>(1, kStripElems / depth);
  return std::max<std::int64_t>(1, target_rows / std::max<std::int64_t>(1, rw));
}

namespace {

/// The algorithm a dispatch runs: an explicit algorithm as given; kAuto
/// takes the DC_CONV_ALGO escape hatch when set, else the layer-constant
/// rule.
ConvAlgo dispatch_algo(ConvAlgo algo, const ConvParams& p, std::int64_t c,
                       std::int64_t f) {
  if (algo == ConvAlgo::kAuto && conv_algo_override() != ConvAlgo::kAuto) {
    return conv_algo_override();
  }
  return resolve_conv_algo(algo, p, c, f);
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

/// Buffer offsets of the stencil taps in weight-row order (c, a, b): the
/// contraction index of both GEMM passes.
std::vector<std::int64_t> tap_offsets(const Strides4& xst, std::int64_t C,
                                      const ConvParams& p) {
  std::vector<std::int64_t> taps;
  taps.reserve(static_cast<std::size_t>(C * p.kh * p.kw));
  for (std::int64_t c = 0; c < C; ++c) {
    for (int a = 0; a < p.kh; ++a) {
      for (int b = 0; b < p.kw; ++b) taps.push_back(c * xst.c + a * xst.h + b);
    }
  }
  return taps;
}

/// Append the output positions of `r` for sample k, ordered (h, w): in x,
/// the offset of the receptive field's (c=0, a=0, b=0) tap; in the output
/// (or dy) buffer, the offset of the position's channel-0 element.
void append_positions(const Strides4& xst, Origin2 xo, const Strides4& ost,
                      Origin2 oo, const ConvParams& p, std::int64_t k,
                      const Range2& r, std::vector<std::int64_t>& xpos,
                      std::vector<std::int64_t>& opos) {
  for (std::int64_t gh = r.h0; gh < r.h1; ++gh) {
    for (std::int64_t gw = r.w0; gw < r.w1; ++gw) {
      xpos.push_back(xst.offset(k, 0, gh * p.sh - p.ph - xo.h,
                                gw * p.sw - p.pw - xo.w));
      opos.push_back(ost.offset(k, 0, gh - oo.h, gw - oo.w));
    }
  }
}

/// Offsets 0, 1, …, n−1: the row (or k) index of a dense row-major operand.
std::vector<std::int64_t> iota_offsets(std::int64_t n) {
  std::vector<std::int64_t> v(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) v[i] = i;
  return v;
}

/// Implicit-GEMM forward: y (positions × F) = X (positions × C·Kh·Kw) · Wᵀ,
/// with X read tap by tap straight from the haloed input. Output positions
/// of all samples form M and the filters N, so F sits on the micro-tile's
/// 16-wide side. One accumulation chain over the taps: the same kKc blocks
/// as a GEMM on the lowered input, hence the same bits.
void conv2d_forward_gemm(const Tensor<float>& x, Origin2 xo,
                         const Tensor<float>& w, Tensor<float>& y, Origin2 yo,
                         const ConvParams& p, const Range2& r) {
  const std::int64_t N = y.shape().n;
  const std::int64_t F = w.shape().n;
  const std::int64_t C = w.shape().c;
  const std::int64_t ckk = C * p.kh * p.kw;
  const std::vector<std::int64_t> taps = tap_offsets(x.strides(), C, p);
  const std::vector<std::int64_t> wk = iota_offsets(ckk);
  std::vector<std::int64_t> xpos, ypos;
  xpos.reserve(static_cast<std::size_t>(N * r.area()));
  ypos.reserve(xpos.capacity());
  for (std::int64_t k = 0; k < N; ++k) {
    append_positions(x.strides(), xo, y.strides(), yo, p, k, r, xpos, ypos);
  }
  IndirectGemm g;
  g.m = static_cast<std::int64_t>(xpos.size());
  g.n = F;
  g.a = x.data();
  g.a_row = xpos.data();
  g.a_k = taps.data();
  g.b = w.data();
  g.b_k = wk.data();
  g.b_col = ckk;
  g.c = y.data();
  g.c_row = ypos.data();
  g.c_col = y.strides().c;
  sgemm_indirect(g, {ckk}, /*accumulate=*/false);
}

}  // namespace

void conv2d_forward(const Tensor<float>& x, Origin2 xo, const Tensor<float>& w,
                    Tensor<float>& y, Origin2 yo, const ConvParams& p,
                    const Range2& r, ConvAlgo algo) {
  check_weights(w, p);
  if (r.empty()) return;
  DC_REQUIRE(x.shape().n == y.shape().n, "sample count mismatch");
  switch (dispatch_algo(algo, p, w.shape().c, w.shape().n)) {
    case ConvAlgo::kDirect:
      conv2d_forward_direct(x, xo, w, y, yo, p, r);
      break;
    case ConvAlgo::kGemm:
      conv2d_forward_gemm(x, xo, w, y, yo, p, r);
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

/// Output positions a strip buffer holds for range `r` under strip height
/// `hb`: one full strip, or only what the range covers when it is shorter.
std::int64_t strip_capacity(const Range2& r, std::int64_t hb) {
  return std::min(hb, r.h1 - r.h0) * (r.w1 - r.w0);
}

/// For a 1×1 stride-1 unpadded layer, a buffer's channel planes *are* the
/// lowering matrix whenever each plane's rows are dense over the range
/// (row stride == range width, zero horizontal offset): element (c, h, w)
/// sits at plane base + c·(channel stride). Densely laid out buffers then
/// skip the pack entirely.
bool dense_planes(const Tensor<float>& t, Origin2 to, const Range2& r) {
  return t.strides().h == (r.w1 - r.w0) && r.w0 == to.w;
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
      1, gemm_strip_height(ckk, win_w) * p.sh);
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
/// col2im (its dx = 0 + dcol copy cannot change bits: micro-kernel
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
  const std::int64_t hb = gemm_strip_height(C, rw);
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
  switch (dispatch_algo(algo, p, w.shape().c, w.shape().n)) {
    case ConvAlgo::kDirect:
      conv2d_backward_data_direct(dy, dyo, w, dx, dxo, p, r, out_h, out_w);
      break;
    case ConvAlgo::kGemm:
      // A 1×1 stride-1 unpadded layer needs no col2im at all.
      if (p.kh == 1 && p.kw == 1 && p.sh == 1 && p.sw == 1 && p.ph == 0 &&
          p.pw == 0) {
        conv2d_backward_data_gemm_strips(dy, dyo, w, dx, dxo, p, r, out_h,
                                         out_w);
      } else {
        conv2d_backward_data_gemm(dy, dyo, w, dx, dxo, p, r, out_h, out_w);
      }
      break;
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

/// Implicit-GEMM backward filter: dwᵀ (C·Kh·Kw × F) += X_kᵀ · dy_k, with
/// the taps as M, the filters as N, and X read straight from the haloed
/// input. Each (sample, strip of gemm_strip_height rows) is one
/// accumulation chain over its output positions, in the order of a GEMM on
/// the lowered input per strip — so dw keeps its exact bits.
void conv2d_backward_filter_gemm(const Tensor<float>& x, Origin2 xo,
                                 const Tensor<float>& dy, Origin2 dyo,
                                 Tensor<float>& dw, const ConvParams& p,
                                 const Range2& r) {
  const std::int64_t N = dy.shape().n;
  const std::int64_t F = dw.shape().n;
  const std::int64_t C = dw.shape().c;
  const std::int64_t ckk = C * p.kh * p.kw;
  const std::int64_t hb = gemm_strip_height(ckk, r.w1 - r.w0);
  const std::vector<std::int64_t> taps = tap_offsets(x.strides(), C, p);
  const std::vector<std::int64_t> dwrow = iota_offsets(ckk);
  std::vector<std::int64_t> xpos, dypos, chain_end;
  xpos.reserve(static_cast<std::size_t>(N * r.area()));
  dypos.reserve(xpos.capacity());
  for (std::int64_t k = 0; k < N; ++k) {
    for (std::int64_t h0 = r.h0; h0 < r.h1; h0 += hb) {
      const Range2 rs{h0, std::min(r.h1, h0 + hb), r.w0, r.w1};
      append_positions(x.strides(), xo, dy.strides(), dyo, p, k, rs, xpos,
                       dypos);
      chain_end.push_back(static_cast<std::int64_t>(xpos.size()));
    }
  }
  IndirectGemm g;
  g.m = ckk;
  g.n = F;
  g.a = x.data();
  g.a_row = taps.data();
  g.a_k = xpos.data();
  g.b = dy.data();
  g.b_k = dypos.data();
  g.b_col = dy.strides().c;
  g.c = dw.data();
  g.c_row = dwrow.data();
  g.c_col = ckk;
  sgemm_indirect(g, chain_end, /*accumulate=*/true);
}

}  // namespace

void conv2d_backward_filter(const Tensor<float>& x, Origin2 xo,
                            const Tensor<float>& dy, Origin2 dyo, Tensor<float>& dw,
                            const ConvParams& p, const Range2& r, bool accumulate,
                            ConvAlgo algo) {
  check_weights(dw, p);
  const ConvAlgo run = dispatch_algo(algo, p, dw.shape().c, dw.shape().n);
  if (!accumulate) dw.zero();
  if (r.empty()) return;
  switch (run) {
    case ConvAlgo::kDirect:
      conv2d_backward_filter_direct(x, xo, dy, dyo, dw, p, r);
      break;
    case ConvAlgo::kGemm:
      conv2d_backward_filter_gemm(x, xo, dy, dyo, dw, p, r);
      break;
    case ConvAlgo::kAuto:
      DC_FAIL("unresolved convolution algorithm");
  }
}

}  // namespace distconv::kernels
