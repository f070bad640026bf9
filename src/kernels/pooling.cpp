#include "kernels/pooling.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "support/error.hpp"
#include "support/intmath.hpp"
#include "support/parallel.hpp"

namespace distconv::kernels {

void pool2d_forward_padded(const Tensor<float>& x, Tensor<float>& y,
                           Tensor<std::int64_t>* argmax, const PoolParams& p) {
  const auto& xs = x.shape();
  const auto& ys = y.shape();
  DC_REQUIRE(ys.h == p.out_h(xs.h) && ys.w == p.out_w(xs.w),
             "pool output shape mismatch");
  for (std::int64_t k = 0; k < ys.n; ++k) {
    for (std::int64_t c = 0; c < ys.c; ++c) {
      for (std::int64_t i = 0; i < ys.h; ++i) {
        for (std::int64_t j = 0; j < ys.w; ++j) {
          if (p.mode == PoolMode::kMax) {
            float best = -std::numeric_limits<float>::infinity();
            std::int64_t best_pos = -1;
            for (int a = 0; a < p.kh; ++a) {
              const std::int64_t ih = i * p.sh - p.ph + a;
              if (ih < 0 || ih >= xs.h) continue;
              for (int b = 0; b < p.kw; ++b) {
                const std::int64_t iw = j * p.sw - p.pw + b;
                if (iw < 0 || iw >= xs.w) continue;
                const float v = x(k, c, ih, iw);
                if (v > best) {
                  best = v;
                  best_pos = ih * xs.w + iw;
                }
              }
            }
            y(k, c, i, j) = best;
            if (argmax != nullptr) (*argmax)(k, c, i, j) = best_pos;
          } else {
            float sum = 0.0f;
            for (int a = 0; a < p.kh; ++a) {
              const std::int64_t ih = i * p.sh - p.ph + a;
              if (ih < 0 || ih >= xs.h) continue;
              for (int b = 0; b < p.kw; ++b) {
                const std::int64_t iw = j * p.sw - p.pw + b;
                if (iw < 0 || iw >= xs.w) continue;
                sum += x(k, c, ih, iw);
              }
            }
            y(k, c, i, j) = sum / float(p.kh * p.kw);
          }
        }
      }
    }
  }
}

void pool2d_backward_padded(const Tensor<float>& dy,
                            const Tensor<std::int64_t>* argmax, Tensor<float>& dx,
                            const PoolParams& p) {
  const auto& ds = dy.shape();
  const auto& xs = dx.shape();
  dx.zero();
  for (std::int64_t k = 0; k < ds.n; ++k) {
    for (std::int64_t c = 0; c < ds.c; ++c) {
      for (std::int64_t i = 0; i < ds.h; ++i) {
        for (std::int64_t j = 0; j < ds.w; ++j) {
          const float g = dy(k, c, i, j);
          if (p.mode == PoolMode::kMax) {
            const std::int64_t pos = (*argmax)(k, c, i, j);
            if (pos < 0) continue;
            dx(k, c, pos / xs.w, pos % xs.w) += g;
          } else {
            const float share = g / float(p.kh * p.kw);
            for (int a = 0; a < p.kh; ++a) {
              const std::int64_t ih = i * p.sh - p.ph + a;
              if (ih < 0 || ih >= xs.h) continue;
              for (int b = 0; b < p.kw; ++b) {
                const std::int64_t iw = j * p.sw - p.pw + b;
                if (iw < 0 || iw >= xs.w) continue;
                dx(k, c, ih, iw) += share;
              }
            }
          }
        }
      }
    }
  }
}

namespace {

/// Half-open [lo, hi) index range.
struct Span {
  std::int64_t lo, hi;
};

}  // namespace

void pool2d_forward(const Tensor<float>& x, Origin2 xo, Tensor<float>& y,
                    Origin2 yo, Tensor<std::int64_t>* argmax, Origin2 amo,
                    const PoolParams& p, const Range2& r, std::int64_t in_h,
                    std::int64_t in_w) {
  if (r.empty()) return;
  const std::int64_t N = y.shape().n;
  const std::int64_t C = y.shape().c;
  const Strides4& xst = x.strides();
  const Strides4& yst = y.strides();
  const bool is_max = p.mode == PoolMode::kMax;
  // Each output column's window columns, tabled once per call: clipped to
  // [0, in_w) for max (padding never wins), whole for average (it reads the
  // zero margins). Rows are clipped once per output row.
  std::vector<Span> cols;
  for (std::int64_t gw = r.w0; gw < r.w1; ++gw) {
    const std::int64_t iw0 = gw * p.sw - p.pw;
    cols.push_back(is_max ? Span{std::max<std::int64_t>(0, iw0),
                                 std::min(iw0 + p.kw, in_w)}
                          : Span{iw0, iw0 + p.kw});
  }
  const float area = float(p.kh * p.kw);
  // Each (sample, channel) plane is independent.
  parallel::parallel_for_2d(N, C, 1, [&](std::int64_t k, std::int64_t c) {
    // Input rows are addressed by global column: xr[iw - xo.w].
    auto x_row = [&](std::int64_t ih) {
      return x.data() + xst.offset(k, c, ih - xo.h, 0);
    };
    for (std::int64_t gh = r.h0; gh < r.h1; ++gh) {
      const std::int64_t ih0 = gh * p.sh - p.ph;
      float* yr = y.data() + yst.offset(k, c, gh - yo.h, r.w0 - yo.w);
      if (is_max) {
        const std::int64_t ih_lo = std::max<std::int64_t>(0, ih0);
        const std::int64_t ih_hi = std::min(ih0 + p.kh, in_h);
        std::int64_t* ar =
            argmax == nullptr
                ? nullptr
                : argmax->data() +
                      argmax->strides().offset(k, c, gh - amo.h, r.w0 - amo.w);
        for (std::int64_t j = 0; j < r.w1 - r.w0; ++j) {
          float best = -std::numeric_limits<float>::infinity();
          std::int64_t best_pos = -1;
          for (std::int64_t ih = ih_lo; ih < ih_hi; ++ih) {
            const float* xr = x_row(ih);
            for (std::int64_t iw = cols[j].lo; iw < cols[j].hi; ++iw) {
              // Branch-free select of the strict >: a mispredicted branch
              // per tap costs more than the tap.
              const float v = xr[iw - xo.w];
              const std::int64_t take = -std::int64_t(v > best);
              best = v > best ? v : best;
              best_pos ^= (best_pos ^ (ih * in_w + iw)) & take;
            }
          }
          yr[j] = best;
          if (ar != nullptr) ar[j] = best_pos;
        }
      } else {
        for (std::int64_t j = 0; j < r.w1 - r.w0; ++j) {
          float sum = 0.0f;
          for (std::int64_t ih = ih0; ih < ih0 + p.kh; ++ih) {
            const float* xr = x_row(ih);
            for (std::int64_t iw = cols[j].lo; iw < cols[j].hi; ++iw) {
              sum += xr[iw - xo.w];
            }
          }
          yr[j] = sum / area;
        }
      }
    }
  });
}

void pool2d_backward(const Tensor<float>& dy, Origin2 dyo,
                     const Tensor<std::int64_t>* argmax, Tensor<float>& dx,
                     Origin2 dxo, const PoolParams& p, const Range2& r,
                     std::int64_t out_h, std::int64_t out_w, std::int64_t in_w) {
  if (r.empty()) return;
  const std::int64_t N = dy.shape().n;
  const std::int64_t C = dy.shape().c;
  const Strides4& dyst = dy.strides();
  const Strides4& dxst = dx.strides();
  const bool is_max = p.mode == PoolMode::kMax;
  // Scatter form: zero dx over r, then walk the outputs whose windows reach
  // into r in (jh, jw) order, each adding its gradient to the inputs of r it
  // routes to. Every dx element thus sums the same terms in the same (jh,
  // jw) order as a gather over its covering windows.
  const std::int64_t jh0 =
      std::max<std::int64_t>(0, ceil_div(r.h0 + p.ph - p.kh + 1, p.sh));
  const std::int64_t jh1 =
      std::min<std::int64_t>(out_h, floor_div(r.h1 - 1 + p.ph, p.sh) + 1);
  const std::int64_t jw0 =
      std::max<std::int64_t>(0, ceil_div(r.w0 + p.pw - p.kw + 1, p.sw));
  const std::int64_t jw1 =
      std::min<std::int64_t>(out_w, floor_div(r.w1 - 1 + p.pw, p.sw) + 1);
  // Each output column's window columns inside r, tabled once per call.
  std::vector<Span> cols;
  for (std::int64_t jw = jw0; jw < jw1; ++jw) {
    const std::int64_t iw0 = jw * p.sw - p.pw;
    cols.push_back({std::max(iw0, r.w0), std::min(iw0 + p.kw, r.w1)});
  }
  const float area = float(p.kh * p.kw);
  parallel::parallel_for_2d(N, C, 1, [&](std::int64_t k, std::int64_t c) {
    // dx rows are addressed by global column: dr[gj - r.w0].
    auto dx_row = [&](std::int64_t gi) {
      return dx.data() + dxst.offset(k, c, gi - dxo.h, r.w0 - dxo.w);
    };
    for (std::int64_t gi = r.h0; gi < r.h1; ++gi) {
      std::fill_n(dx_row(gi), r.w1 - r.w0, 0.0f);
    }
    for (std::int64_t jh = jh0; jh < jh1; ++jh) {
      const std::int64_t ih0 = jh * p.sh - p.ph;
      const std::int64_t ih_lo = std::max(ih0, r.h0);
      const std::int64_t ih_hi = std::min(ih0 + p.kh, r.h1);
      const float* gr = dy.data() + dyst.offset(k, c, jh - dyo.h, jw0 - dyo.w);
      if (is_max) {
        // argmax shares dy's origin.
        const std::int64_t* ar =
            argmax->data() + argmax->strides().offset(k, c, jh - dyo.h, jw0 - dyo.w);
        for (std::int64_t j = 0; j < jw1 - jw0; ++j) {
          const std::int64_t pos = ar[j];
          for (std::int64_t gi = ih_lo; gi < ih_hi; ++gi) {
            const std::int64_t gj = pos - gi * in_w;
            if (gj >= cols[j].lo && gj < cols[j].hi) {
              dx_row(gi)[gj - r.w0] += gr[j];
              break;
            }
          }
        }
      } else {
        for (std::int64_t j = 0; j < jw1 - jw0; ++j) {
          const float share = gr[j] / area;
          for (std::int64_t gi = ih_lo; gi < ih_hi; ++gi) {
            float* dr = dx_row(gi);
            for (std::int64_t gj = cols[j].lo; gj < cols[j].hi; ++gj) {
              dr[gj - r.w0] += share;
            }
          }
        }
      }
    }
  });
}

}  // namespace distconv::kernels
