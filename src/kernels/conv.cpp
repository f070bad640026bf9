#include "kernels/conv.hpp"

#include <algorithm>
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

/// Floats of lowered operand per GEMM strip (~2 MiB).
constexpr std::int64_t kStripElems = 1 << 19;

}  // namespace

std::int64_t gemm_strip_height(std::int64_t depth, std::int64_t rw) {
  const std::int64_t target_rows = std::max<std::int64_t>(1, kStripElems / depth);
  return std::max<std::int64_t>(1, target_rows / std::max<std::int64_t>(1, rw));
}

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

/// Buffer offsets of the stencil taps in weight-row order (c, a, b): the
/// contraction index of both implicit-GEMM passes.
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

}  // namespace

/// Implicit-GEMM forward: y (positions × F) = X (positions × C·Kh·Kw) · Wᵀ,
/// with X read tap by tap straight from the haloed input. Output positions
/// of all samples form M and the filters N, so F sits on the micro-tile's
/// 16-wide side. One accumulation chain over the taps: the same kKc blocks
/// as a GEMM on the lowered input, hence the same bits.
void conv2d_forward(const Tensor<float>& x, Origin2 xo, const Tensor<float>& w,
                    Tensor<float>& y, Origin2 yo, const ConvParams& p,
                    const Range2& r) {
  check_weights(w, p);
  if (r.empty()) return;
  DC_REQUIRE(x.shape().n == y.shape().n, "sample count mismatch");
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

/// Pack `nch` channel planes of samples [k0, k0 + kn) of `t` over the window
/// `win` into a dense nch × (kn · win.area()) matrix: each row holds the
/// samples' windows side by side, in sample order.
void pack_windows(const Tensor<float>& t, Origin2 to, std::int64_t k0,
                  std::int64_t kn, std::int64_t nch, const Range2& win,
                  float* dst) {
  const auto& st = t.strides();
  const std::int64_t ww = win.w1 - win.w0;
  const std::int64_t rows = win.area();
  parallel::parallel_for(0, nch * kn, 1, [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      float* out = dst + i * rows;  // row f = i / kn, sample k0 + i % kn
      for (std::int64_t jh = win.h0; jh < win.h1; ++jh) {
        const float* src = t.data() + st.offset(k0 + i % kn, i / kn, jh - to.h,
                                                win.w0 - to.w);
        std::copy(src, src + ww, out);
        out += ww;
      }
    }
  });
}

/// col2im: set dx over `rs` for samples [k0, k0 + kn) to the sum of the dcol
/// elements whose (c, a, b) tap and (jh, jw) output position land there.
/// dcol has one row of `ld` floats per tap (c, a, b); sample k0 + s owns its
/// columns [s, s + 1) · win.area(). Each (sample, channel) task owns plane
/// (k, c) and adds in a fixed (a, b, jh, jw) order per element.
void col2im(const float* dcol, std::int64_t ld, Tensor<float>& dx, Origin2 dxo,
            const ConvParams& p, std::int64_t C, std::int64_t k0,
            std::int64_t kn, const Range2& rs, const Range2& win) {
  const auto& dxst = dx.strides();
  const std::int64_t rows = win.area();
  const std::int64_t ww = win.w1 - win.w0;
  parallel::parallel_for(0, kn * C, 1, [&](std::int64_t t0, std::int64_t t1) {
    for (std::int64_t t = t0; t < t1; ++t) {
      const std::int64_t k = k0 + t / C;
      const std::int64_t c = t % C;
      // Positions no output window reaches must read 0.
      for (std::int64_t gi = rs.h0; gi < rs.h1; ++gi) {
        float* row = dx.data() + dxst.offset(k, c, gi - dxo.h, rs.w0 - dxo.w);
        std::fill(row, row + (rs.w1 - rs.w0), 0.0f);
      }
      if (win.empty()) continue;
      const float* base = dcol + (t / C) * rows;
      for (int a = 0; a < p.kh; ++a) {
        for (int b = 0; b < p.kw; ++b) {
          const float* src = base + ((c * p.kh + a) * p.kw + b) * ld;
          for (std::int64_t jh = win.h0; jh < win.h1; ++jh) {
            const std::int64_t gi = jh * p.sh - p.ph + a;
            if (gi < rs.h0 || gi >= rs.h1) continue;
            const float* srow = src + (jh - win.h0) * ww;
            float* drow = dx.data() + dxst.offset(k, c, gi - dxo.h, -dxo.w);
            if (p.sw == 1 && p.pw == b && win.w0 == rs.w0 && win.w1 == rs.w1) {
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
}

/// Backward data of an unpadded 1×1 layer: dx = dy · W at the input
/// positions the outputs sample — the forward pass of the transposed layer,
/// an implicit GEMM over the window positions of every sample, read and
/// written in place (M = positions, N = C, k = F). With one tap there is no
/// col2im: each dx element is its dcol element, summed over F in the same
/// kKc blocks as the col2im path's sgemm, so the bits are the same. A
/// strided layer sets the input positions no output reads to zero.
void backward_data_1x1(const Tensor<float>& dy, Origin2 dyo,
                       const Tensor<float>& w, Tensor<float>& dx, Origin2 dxo,
                       const ConvParams& p, const Range2& r, std::int64_t out_h,
                       std::int64_t out_w) {
  const std::int64_t N = dx.shape().n;
  const std::int64_t F = w.shape().n;
  const std::int64_t C = w.shape().c;
  const auto& dxst = dx.strides();
  if (p.sh > 1 || p.sw > 1) {
    parallel::parallel_for(0, N * C, 1, [&](std::int64_t t0, std::int64_t t1) {
      for (std::int64_t t = t0; t < t1; ++t) {
        for (std::int64_t gi = r.h0; gi < r.h1; ++gi) {
          float* row =
              dx.data() + dxst.offset(t / C, t % C, gi - dxo.h, r.w0 - dxo.w);
          std::fill(row, row + (r.w1 - r.w0), 0.0f);
        }
      }
    });
  }
  const Range2 win = gather_window(p, r, out_h, out_w);
  if (win.empty()) return;
  std::vector<std::int64_t> dxpos, dypos;
  dxpos.reserve(static_cast<std::size_t>(N * win.area()));
  dypos.reserve(dxpos.capacity());
  for (std::int64_t k = 0; k < N; ++k) {
    append_positions(dxst, dxo, dy.strides(), dyo, p, k, win, dxpos, dypos);
  }
  std::vector<std::int64_t> dyk(static_cast<std::size_t>(F));
  std::vector<std::int64_t> wk(dyk.size());
  for (std::int64_t f = 0; f < F; ++f) {
    dyk[f] = f * dy.strides().c;
    wk[f] = f * C;
  }
  IndirectGemm g;
  g.m = static_cast<std::int64_t>(dypos.size());
  g.n = C;
  g.a = dy.data();
  g.a_row = dypos.data();
  g.a_k = dyk.data();
  g.b = w.data();
  g.b_k = wk.data();
  g.b_col = 1;
  g.c = dx.data();
  g.c_row = dxpos.data();
  g.c_col = dxst.c;
  sgemm_indirect(g, {F}, /*accumulate=*/false);
}

/// Input rows per backward-data strip over a range whose gather window is
/// `win`: the strip budget's output rows, times the vertical stride.
std::int64_t backward_data_strip_rows(const ConvParams& p, std::int64_t ckk,
                                      const Range2& win) {
  return std::max<std::int64_t>(
      1, gemm_strip_height(ckk, std::max<std::int64_t>(1, win.w1 - win.w0)) *
             p.sh);
}

}  // namespace

std::int64_t backward_data_batch(const ConvParams& p, std::int64_t c,
                                 std::int64_t n, const Range2& r,
                                 std::int64_t out_h, std::int64_t out_w) {
  const std::int64_t ckk = c * p.kh * p.kw;
  const Range2 win = gather_window(p, r, out_h, out_w);
  if (r.h1 - r.h0 > backward_data_strip_rows(p, ckk, win)) return 1;
  return std::clamp<std::int64_t>(
      kStripElems / std::max<std::int64_t>(1, ckk * win.area()), 1, n);
}

/// col2im backward data: dcol = Wᵀ · dy over the gather window, scattered
/// back into dx. Processed in input-row strips so the dcol buffer stays
/// within the strip budget; each strip owns its dx rows.
///
/// When kh > sh, consecutive strips' gather windows overlap by the
/// transposed stencil's reach (~(kh−1)/sh output rows). Each dcol element
/// depends only on its (jh, jw) output position, so the overlapping rows
/// are copied out of the previous strip's panel instead of being
/// recomputed — the GEMM and the dy pack run over the fresh rows alone.
///
/// When one strip covers the range, the dy windows of consecutive samples
/// sit side by side as the columns of one sgemm, as many as the strip
/// budget holds: small planes (a few output positions per sample) then
/// pack Wᵀ once per batch rather than once per sample. Batches only form
/// over a single strip, so they never meet the row reuse.
///
/// Values are bitwise identical under any strip reuse or batching: the
/// GEMM's per-element k-chain does not depend on which n-columns share a
/// call. Unpadded 1×1 layers take backward_data_1x1 instead, with the same
/// bits.
void conv2d_backward_data(const Tensor<float>& dy, Origin2 dyo,
                          const Tensor<float>& w, Tensor<float>& dx, Origin2 dxo,
                          const ConvParams& p, const Range2& r, std::int64_t out_h,
                          std::int64_t out_w) {
  check_weights(w, p);
  if (r.empty()) return;
  const std::int64_t N = dx.shape().n;
  const std::int64_t F = w.shape().n;
  const std::int64_t C = w.shape().c;
  if (p.kh == 1 && p.kw == 1 && p.ph == 0 && p.pw == 0) {
    backward_data_1x1(dy, dyo, w, dx, dxo, p, r, out_h, out_w);
    return;
  }
  const std::int64_t ckk = C * p.kh * p.kw;
  const std::int64_t batch = backward_data_batch(p, C, N, r, out_h, out_w);
  // Strip the input rows; the corresponding output window grows by the
  // transposed stencil's reach (kh / sh rows).
  const std::int64_t hb =
      backward_data_strip_rows(p, ckk, gather_window(p, r, out_h, out_w));
  std::vector<float> dyp, dcol_a, dcol_b;
  for (std::int64_t k0 = 0; k0 < N; k0 += batch) {
    const std::int64_t kn = std::min(batch, N - k0);
    std::vector<float>* dcol = &dcol_a;
    std::vector<float>* dcol_prev = &dcol_b;
    Range2 prev_win{0, 0, 0, 0};
    bool prev_valid = false;  // previous strip's panel reusable (same sample)
    for (std::int64_t g0 = r.h0; g0 < r.h1; g0 += hb) {
      const Range2 rs{g0, std::min(r.h1, g0 + hb), r.w0, r.w1};
      const Range2 win = gather_window(p, rs, out_h, out_w);
      if (win.empty()) {
        col2im(nullptr, 0, dx, dxo, p, C, k0, kn, rs, win);
        prev_valid = false;
        continue;
      }
      const std::int64_t rows = win.area();
      const std::int64_t ww = win.w1 - win.w0;
      const std::int64_t ld = kn * rows;
      dcol->resize(static_cast<std::size_t>(ckk) * ld);
      // Output rows [win.h0, prev_win.h1) were computed by the previous
      // strip (the w-range is strip-invariant, and kn == 1 past the first
      // strip); copy them, GEMM the rest.
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
        const std::int64_t cols = kn * fresh.area();
        dyp.resize(static_cast<std::size_t>(F) * cols);
        pack_windows(dy, dyo, k0, kn, F, fresh, dyp.data());
        // dcol[:, fresh] (ckk × cols) = Wᵀ (ckk × F) · dy (F × cols)
        sgemm(true, false, ckk, cols, F, 1.0f, w.data(), ckk, dyp.data(), cols,
              0.0f, dcol->data() + reuse_rows * ww, ld);
      }
      col2im(dcol->data(), ld, dx, dxo, p, C, k0, kn, rs, win);
      prev_win = win;
      prev_valid = true;
      std::swap(dcol, dcol_prev);
    }
  }
}

// ---------------------------------------------------------------------------
// Backward filter
// ---------------------------------------------------------------------------

/// Implicit-GEMM backward filter: dwᵀ (C·Kh·Kw × F) += X_kᵀ · dy_k, with
/// the taps as M, the filters as N, and X read straight from the haloed
/// input. Each (sample, strip of gemm_strip_height rows) is one
/// accumulation chain over its output positions, in the order of a GEMM on
/// the lowered input per strip — so dw keeps its exact bits.
void conv2d_backward_filter(const Tensor<float>& x, Origin2 xo,
                            const Tensor<float>& dy, Origin2 dyo, Tensor<float>& dw,
                            const ConvParams& p, const Range2& r, bool accumulate) {
  check_weights(dw, p);
  if (!accumulate) dw.zero();
  if (r.empty()) return;
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

}  // namespace distconv::kernels
