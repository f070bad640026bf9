#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <ostream>
#include <vector>

#include "kernels/conv.hpp"
#include "kernels/gemm.hpp"
#include "support/intmath.hpp"
#include "support/rng.hpp"
#include "tests/support/thread_guard.hpp"

namespace distconv::kernels {
namespace {

// Build a margin buffer holding x with `ph`/`pw` zero rows/cols around it,
// i.e. exactly the global padding; origin = (-ph, -pw).
Tensor<float> make_padded_buffer(const Tensor<float>& x, int ph, int pw) {
  const auto& s = x.shape();
  Tensor<float> buf(Shape4{s.n, s.c, s.h + 2 * ph, s.w + 2 * pw});
  Box4 src, dst;
  for (int d = 0; d < 4; ++d) src.ext[d] = s[d];
  dst = src;
  dst.off[2] = ph;
  dst.off[3] = pw;
  copy_box(x, src, buf, dst);
  return buf;
}

struct ConvCase {
  std::int64_t n, c, h, w, f;
  int k, s;
};

class ConvSweep : public ::testing::TestWithParam<ConvCase> {};

// Most shapes are shallow (C·Kh·Kw < 32), have few filters (F < 8) or a
// single one (F = 1): the micro-kernel's 6×16 register tile runs mostly
// padding there, and the padded oracles pin those edges.
INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvSweep,
    ::testing::Values(ConvCase{1, 1, 5, 5, 1, 3, 1}, ConvCase{2, 3, 8, 8, 4, 3, 1},
                      ConvCase{1, 2, 9, 7, 3, 5, 1}, ConvCase{2, 2, 8, 8, 3, 3, 2},
                      ConvCase{1, 3, 11, 9, 2, 5, 2}, ConvCase{2, 4, 6, 6, 5, 1, 1},
                      ConvCase{1, 1, 12, 12, 1, 7, 2}, ConvCase{3, 2, 7, 7, 2, 1, 2},
                      // depth 8, F = 32: a shallow 1×1 expand (res2a_branch2c)
                      ConvCase{2, 8, 6, 6, 32, 1, 1},
                      // depth 72, F = 4: deep enough, too few filters
                      ConvCase{2, 8, 7, 7, 4, 3, 1}));

TEST_P(ConvSweep, RegionKernelMatchesPaddedOracle) {
  const auto cfg = GetParam();
  const ConvParams p{cfg.k, cfg.k, cfg.s, cfg.s, cfg.k / 2, cfg.k / 2};
  Tensor<float> x(Shape4{cfg.n, cfg.c, cfg.h, cfg.w});
  Tensor<float> w(Shape4{cfg.f, cfg.c, cfg.k, cfg.k});
  Rng rng(42);
  x.fill_uniform(rng);
  w.fill_uniform(rng);
  Tensor<float> y_ref(Shape4{cfg.n, cfg.f, p.out_h(cfg.h), p.out_w(cfg.w)});
  conv2d_forward_padded(x, w, y_ref, p);

  Tensor<float> xbuf = make_padded_buffer(x, p.ph, p.pw);
  Tensor<float> y(y_ref.shape());
  const Range2 full{0, y_ref.shape().h, 0, y_ref.shape().w};
  conv2d_forward(xbuf, Origin2{-p.ph, -p.pw}, w, y, Origin2{0, 0}, p, full);
  for (std::int64_t i = 0; i < y.size(); ++i) {
    ASSERT_NEAR(y.data()[i], y_ref.data()[i], 1e-4f) << "i=" << i;
  }
}

TEST_P(ConvSweep, RegionSplitEqualsWholeRange) {
  // Interior/boundary decomposition (§IV-A): computing disjoint sub-ranges
  // must produce the same output as one full-range call.
  const auto cfg = GetParam();
  const ConvParams p{cfg.k, cfg.k, cfg.s, cfg.s, cfg.k / 2, cfg.k / 2};
  Tensor<float> x(Shape4{cfg.n, cfg.c, cfg.h, cfg.w});
  Tensor<float> w(Shape4{cfg.f, cfg.c, cfg.k, cfg.k});
  Rng rng(11);
  x.fill_uniform(rng);
  w.fill_uniform(rng);
  Tensor<float> xbuf = make_padded_buffer(x, p.ph, p.pw);
  const std::int64_t oh = p.out_h(cfg.h), ow = p.out_w(cfg.w);
  Tensor<float> whole(Shape4{cfg.n, cfg.f, oh, ow}), split(whole.shape());
  conv2d_forward(xbuf, Origin2{-p.ph, -p.pw}, w, whole, Origin2{0, 0}, p,
                 Range2{0, oh, 0, ow});
  // Split into 4 quadrant ranges.
  const std::int64_t mh = oh / 2, mw = ow / 2;
  for (const Range2& r : {Range2{0, mh, 0, mw}, Range2{0, mh, mw, ow},
                          Range2{mh, oh, 0, mw}, Range2{mh, oh, mw, ow}}) {
    conv2d_forward(xbuf, Origin2{-p.ph, -p.pw}, w, split, Origin2{0, 0}, p, r);
  }
  for (std::int64_t i = 0; i < whole.size(); ++i) {
    ASSERT_FLOAT_EQ(whole.data()[i], split.data()[i]);
  }
}

TEST_P(ConvSweep, BackwardDataMatchesPaddedOracle) {
  const auto cfg = GetParam();
  const ConvParams p{cfg.k, cfg.k, cfg.s, cfg.s, cfg.k / 2, cfg.k / 2};
  const std::int64_t oh = p.out_h(cfg.h), ow = p.out_w(cfg.w);
  Tensor<float> dy(Shape4{cfg.n, cfg.f, oh, ow});
  Tensor<float> w(Shape4{cfg.f, cfg.c, cfg.k, cfg.k});
  Rng rng(13);
  dy.fill_uniform(rng);
  w.fill_uniform(rng);
  Tensor<float> dx_ref(Shape4{cfg.n, cfg.c, cfg.h, cfg.w});
  conv2d_backward_data_padded(dy, w, dx_ref, p);

  Tensor<float> dx(dx_ref.shape());
  conv2d_backward_data(dy, Origin2{0, 0}, w, dx, Origin2{0, 0}, p,
                       Range2{0, cfg.h, 0, cfg.w}, oh, ow);
  for (std::int64_t i = 0; i < dx.size(); ++i) {
    ASSERT_NEAR(dx.data()[i], dx_ref.data()[i], 1e-4f) << "i=" << i;
  }
}

TEST_P(ConvSweep, BackwardFilterMatchesPaddedOracle) {
  const auto cfg = GetParam();
  const ConvParams p{cfg.k, cfg.k, cfg.s, cfg.s, cfg.k / 2, cfg.k / 2};
  const std::int64_t oh = p.out_h(cfg.h), ow = p.out_w(cfg.w);
  Tensor<float> x(Shape4{cfg.n, cfg.c, cfg.h, cfg.w});
  Tensor<float> dy(Shape4{cfg.n, cfg.f, oh, ow});
  Rng rng(17);
  x.fill_uniform(rng);
  dy.fill_uniform(rng);
  Tensor<float> dw_ref(Shape4{cfg.f, cfg.c, cfg.k, cfg.k});
  conv2d_backward_filter_padded(x, dy, dw_ref, p);

  Tensor<float> xbuf = make_padded_buffer(x, p.ph, p.pw);
  Tensor<float> dw(dw_ref.shape());
  conv2d_backward_filter(xbuf, Origin2{-p.ph, -p.pw}, dy, Origin2{0, 0}, dw, p,
                         Range2{0, oh, 0, ow});
  for (std::int64_t i = 0; i < dw.size(); ++i) {
    ASSERT_NEAR(dw.data()[i], dw_ref.data()[i], 1e-3f) << "i=" << i;
  }
}

TEST_P(ConvSweep, BackwardDataSplitRangesMatch) {
  // The halo-overlap path hands backward-data disjoint sub-ranges; the
  // col2im scatter must fill exactly its own range.
  const auto cfg = GetParam();
  const ConvParams p{cfg.k, cfg.k, cfg.s, cfg.s, cfg.k / 2, cfg.k / 2};
  const std::int64_t oh = p.out_h(cfg.h), ow = p.out_w(cfg.w);
  Tensor<float> dy(Shape4{cfg.n, cfg.f, oh, ow});
  Tensor<float> w(Shape4{cfg.f, cfg.c, cfg.k, cfg.k});
  Rng rng(89);
  dy.fill_uniform(rng);
  w.fill_uniform(rng);
  Tensor<float> whole(Shape4{cfg.n, cfg.c, cfg.h, cfg.w}), split(whole.shape());
  conv2d_backward_data(dy, Origin2{0, 0}, w, whole, Origin2{0, 0}, p,
                       Range2{0, cfg.h, 0, cfg.w}, oh, ow);
  const std::int64_t mh = cfg.h / 2, mw = cfg.w / 2;
  for (const Range2& r :
       {Range2{0, mh, 0, mw}, Range2{0, mh, mw, cfg.w},
        Range2{mh, cfg.h, 0, mw}, Range2{mh, cfg.h, mw, cfg.w}}) {
    conv2d_backward_data(dy, Origin2{0, 0}, w, split, Origin2{0, 0}, p, r, oh,
                         ow);
  }
  for (std::int64_t i = 0; i < whole.size(); ++i) {
    ASSERT_NEAR(whole.data()[i], split.data()[i], 1e-5f) << "i=" << i;
  }
}

TEST_P(ConvSweep, ThreadCountDeterminism) {
  // Forward and both backward passes must be bit-identical under
  // DC_NUM_THREADS=1 vs 8: the tile grids, strip heights, sample batches
  // and reduction groupings are all fixed by shapes alone.
  const auto cfg = GetParam();
  const ConvParams p{cfg.k, cfg.k, cfg.s, cfg.s, cfg.k / 2, cfg.k / 2};
  const std::int64_t oh = p.out_h(cfg.h), ow = p.out_w(cfg.w);
  Tensor<float> x(Shape4{cfg.n, cfg.c, cfg.h, cfg.w});
  Tensor<float> w(Shape4{cfg.f, cfg.c, cfg.k, cfg.k});
  Tensor<float> dy(Shape4{cfg.n, cfg.f, oh, ow});
  Rng rng(101);
  x.fill_uniform(rng);
  w.fill_uniform(rng);
  dy.fill_uniform(rng);
  Tensor<float> xbuf = make_padded_buffer(x, p.ph, p.pw);
  const Range2 yr{0, oh, 0, ow};
  const Range2 xr{0, cfg.h, 0, cfg.w};

  auto run_all = [&](Tensor<float>& y, Tensor<float>& dx, Tensor<float>& dw) {
    conv2d_forward(xbuf, Origin2{-p.ph, -p.pw}, w, y, Origin2{0, 0}, p, yr);
    conv2d_backward_data(dy, Origin2{0, 0}, w, dx, Origin2{0, 0}, p, xr, oh, ow);
    conv2d_backward_filter(xbuf, Origin2{-p.ph, -p.pw}, dy, Origin2{0, 0}, dw,
                           p, yr, false);
  };
  Tensor<float> y1(Shape4{cfg.n, cfg.f, oh, ow}), y8(y1.shape());
  Tensor<float> dx1(x.shape()), dx8(x.shape());
  Tensor<float> dw1(w.shape()), dw8(w.shape());
  {
    parallel::ThreadGuard guard(1);
    run_all(y1, dx1, dw1);
  }
  {
    parallel::ThreadGuard guard(8);
    run_all(y8, dx8, dw8);
  }
  EXPECT_EQ(0, std::memcmp(y1.data(), y8.data(), y1.size() * sizeof(float)));
  EXPECT_EQ(0, std::memcmp(dx1.data(), dx8.data(), dx1.size() * sizeof(float)));
  EXPECT_EQ(0, std::memcmp(dw1.data(), dw8.data(), dw1.size() * sizeof(float)));
}

// Shapes large enough that the GEMM backward-data path runs several
// lowering strips per sample (ckk · win rows > the ~2 MiB strip budget),
// with kh > sh so consecutive strips' gather windows overlap: the packed
// dcol boundary rows are reused from the previous strip instead of being
// recomputed. The reuse must be invisible — identical to the oracle,
// across a split input range, and for any thread count.
struct StripCase {
  std::int64_t c, h, w, f;
  int k, s;
};

class BackwardDataStripSweep : public ::testing::TestWithParam<StripCase> {};

INSTANTIATE_TEST_SUITE_P(
    Shapes, BackwardDataStripSweep,
    ::testing::Values(StripCase{96, 40, 88, 32, 3, 1},   // deep 3×3, ~7 strips
                      StripCase{64, 44, 80, 16, 5, 1},   // wider overlap (k=5)
                      StripCase{96, 61, 80, 24, 5, 2},   // strided, kh > sh
                      StripCase{128, 40, 72, 16, 7, 2}));  // reach ⌈(k−1)/s⌉=3

TEST_P(BackwardDataStripSweep, BoundaryRowReuseMatchesOracle) {
  const auto cfg = GetParam();
  const ConvParams p{cfg.k, cfg.k, cfg.s, cfg.s, cfg.k / 2, cfg.k / 2};
  const std::int64_t oh = p.out_h(cfg.h), ow = p.out_w(cfg.w);
  Tensor<float> w(Shape4{cfg.f, cfg.c, cfg.k, cfg.k});
  Tensor<float> dy(Shape4{2, cfg.f, oh, ow});
  Rng rng(314);
  w.fill_uniform(rng);
  dy.fill_uniform(rng);
  const Range2 xr{0, cfg.h, 0, cfg.w};

  Tensor<float> dx_ref(Shape4{2, cfg.c, cfg.h, cfg.w});
  conv2d_backward_data_padded(dy, w, dx_ref, p);
  Tensor<float> dx(dx_ref.shape());
  conv2d_backward_data(dy, Origin2{0, 0}, w, dx, Origin2{0, 0}, p, xr, oh, ow);
  for (std::int64_t i = 0; i < dx.size(); ++i) {
    ASSERT_NEAR(dx.data()[i], dx_ref.data()[i],
                1e-3f * std::max(1.0f, std::abs(dx_ref.data()[i])))
        << "i=" << i;
  }

  // Splitting the input range restarts the strip sequence mid-tensor; the
  // per-element accumulation chains must not move.
  Tensor<float> dx_split(dx_ref.shape());
  const std::int64_t cut = cfg.h / 3;
  conv2d_backward_data(dy, Origin2{0, 0}, w, dx_split, Origin2{0, 0}, p,
                       Range2{0, cut, 0, cfg.w}, oh, ow);
  conv2d_backward_data(dy, Origin2{0, 0}, w, dx_split, Origin2{0, 0}, p,
                       Range2{cut, cfg.h, 0, cfg.w}, oh, ow);
  EXPECT_EQ(0, std::memcmp(dx.data(), dx_split.data(),
                           dx.size() * sizeof(float)));

  // Thread-count determinism (strip heights and reuse depend on shapes
  // alone, never on the budget).
  Tensor<float> dx8(dx_ref.shape());
  {
    parallel::ThreadGuard guard(8);
    conv2d_backward_data(dy, Origin2{0, 0}, w, dx8, Origin2{0, 0}, p, xr, oh,
                         ow);
  }
  EXPECT_EQ(0, std::memcmp(dx.data(), dx8.data(), dx.size() * sizeof(float)));
}

// ---------------------------------------------------------------------------
// Reference lowering: materialise im2col(x) and run the tiled sgemm on it.
// kGemm gathers the same operand straight from the haloed buffer, so these
// references pin its bits:
//   forward:          out (F × rows) = W · im2col(x), per sample;
//   backward-filter:  dw += dy · im2col(x)ᵀ, one sgemm(beta = 1) per
//                     (sample, gemm_strip_height strip) — the strip is one
//                     accumulation chain of dw.
// ---------------------------------------------------------------------------

/// Lower the receptive fields of `r` into a (C·Kh·Kw) × (rows) matrix, rows
/// ordered (h, w) within the range, for one sample.
std::vector<float> im2col(const Tensor<float>& x, Origin2 xo,
                          std::int64_t sample, const ConvParams& p,
                          const Range2& r) {
  const std::int64_t C = x.shape().c;
  const std::int64_t rows = r.area();
  std::vector<float> col(static_cast<std::size_t>(C * p.kh * p.kw * rows));
  float* dst = col.data();
  for (std::int64_t c = 0; c < C; ++c) {
    for (int a = 0; a < p.kh; ++a) {
      for (int b = 0; b < p.kw; ++b) {
        for (std::int64_t gh = r.h0; gh < r.h1; ++gh) {
          for (std::int64_t gw = r.w0; gw < r.w1; ++gw) {
            *dst++ = x(sample, c, gh * p.sh - p.ph + a - xo.h,
                       gw * p.sw - p.pw + b - xo.w);
          }
        }
      }
    }
  }
  return col;
}

void reference_forward(const Tensor<float>& x, Origin2 xo, const Tensor<float>& w,
                       Tensor<float>& y, Origin2 yo, const ConvParams& p,
                       const Range2& r) {
  const std::int64_t F = w.shape().n;
  const std::int64_t ckk = w.shape().c * p.kh * p.kw;
  const std::int64_t rows = r.area();
  std::vector<float> out(static_cast<std::size_t>(F * rows));
  for (std::int64_t k = 0; k < y.shape().n; ++k) {
    const std::vector<float> col = im2col(x, xo, k, p, r);
    sgemm(false, false, F, rows, ckk, 1.0f, w.data(), ckk, col.data(), rows,
          0.0f, out.data(), rows);
    for (std::int64_t f = 0; f < F; ++f) {
      const float* src = out.data() + f * rows;
      for (std::int64_t gh = r.h0; gh < r.h1; ++gh) {
        for (std::int64_t gw = r.w0; gw < r.w1; ++gw) {
          y(k, f, gh - yo.h, gw - yo.w) = *src++;
        }
      }
    }
  }
}

void reference_backward_filter(const Tensor<float>& x, Origin2 xo,
                               const Tensor<float>& dy, Origin2 dyo,
                               Tensor<float>& dw, const ConvParams& p,
                               const Range2& r) {
  const std::int64_t F = dw.shape().n;
  const std::int64_t ckk = dw.shape().c * p.kh * p.kw;
  const std::int64_t hb = gemm_strip_height(ckk, r.w1 - r.w0);
  for (std::int64_t k = 0; k < dy.shape().n; ++k) {
    for (std::int64_t h0 = r.h0; h0 < r.h1; h0 += hb) {
      const Range2 rs{h0, std::min(r.h1, h0 + hb), r.w0, r.w1};
      const std::int64_t rows = rs.area();
      const std::vector<float> col = im2col(x, xo, k, p, rs);
      std::vector<float> dyp;
      for (std::int64_t f = 0; f < F; ++f) {
        for (std::int64_t gh = rs.h0; gh < rs.h1; ++gh) {
          for (std::int64_t gw = rs.w0; gw < rs.w1; ++gw) {
            dyp.push_back(dy(k, f, gh - dyo.h, gw - dyo.w));
          }
        }
      }
      sgemm(false, true, F, ckk, rows, 1.0f, dyp.data(), rows, col.data(), rows,
            1.0f, dw.data(), ckk);
    }
  }
}

struct RefCase {
  const char* name;
  std::int64_t n, c, h, w, f;
  int k, s;
  Range2 range;       ///< output range (empty = the full output)
  int min_strips = 1;  ///< backward-filter strips the range must span
};

std::ostream& operator<<(std::ostream& os, const RefCase& rc) { return os << rc.name; }

class GemmReference : public ::testing::TestWithParam<RefCase> {};

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmReference,
    ::testing::Values(
        // mesh conv1_1: 5×5/2, C=18 → C·Kh·Kw = 450 crosses a 256-wide k block.
        RefCase{"conv1_1", 2, 18, 40, 36, 16, 5, 2, {}},
        // F = 20 spans two 16-wide strips; F = 10 pads one.
        RefCase{"f20", 2, 8, 11, 13, 20, 3, 1, {}},
        RefCase{"f10", 1, 40, 9, 9, 10, 3, 1, {}},
        // Strided 1×1 and a 1-wide boundary column.
        RefCase{"one_by_one_s2", 3, 64, 10, 14, 24, 1, 2, {}},
        RefCase{"one_wide", 2, 18, 20, 20, 16, 5, 2, {1, 9, 9, 10}},
        // 7 × 5 = 35 positions per sample: not a multiple of the 6-row tile.
        RefCase{"odd_rows", 1, 12, 7, 5, 16, 3, 1, {}},
        // C·Kh·Kw = 1152 over 40-wide rows: 11-row strips, so a 24-row
        // range runs three accumulation chains per sample.
        RefCase{"strips", 2, 128, 24, 40, 16, 3, 1, {}, 3}));

TEST_P(GemmReference, BitwiseEqualsLowering) {
  const RefCase rc = GetParam();
  const ConvParams p{rc.k, rc.k, rc.s, rc.s, rc.k / 2, rc.k / 2};
  Tensor<float> x(Shape4{rc.n, rc.c, rc.h, rc.w});
  Tensor<float> w(Shape4{rc.f, rc.c, rc.k, rc.k});
  Rng rng(1009);
  x.fill_uniform(rng);
  w.fill_uniform(rng);
  const Tensor<float> xbuf = make_padded_buffer(x, p.ph, p.pw);
  const Origin2 xo{-p.ph, -p.pw};
  const Shape4 ys{rc.n, rc.f, p.out_h(rc.h), p.out_w(rc.w)};
  const Range2 r = rc.range.empty() ? Range2{0, ys.h, 0, ys.w} : rc.range;
  Tensor<float> dy(ys);
  dy.fill_uniform(rng);
  const std::int64_t ckk = rc.c * rc.k * rc.k;
  ASSERT_GE(ceil_div(r.h1 - r.h0, gemm_strip_height(ckk, r.w1 - r.w0)),
            rc.min_strips);

  Tensor<float> y_ref(ys), dw_ref(w.shape());
  reference_forward(xbuf, xo, w, y_ref, Origin2{0, 0}, p, r);
  dw_ref.fill(0.5f);  // accumulate onto a non-zero gradient
  reference_backward_filter(xbuf, xo, dy, Origin2{0, 0}, dw_ref, p, r);

  for (const int threads : {1, 8}) {
    parallel::ThreadGuard guard(threads);
    Tensor<float> y(ys), dw(w.shape());
    conv2d_forward(xbuf, xo, w, y, Origin2{0, 0}, p, r);
    dw.fill(0.5f);
    conv2d_backward_filter(xbuf, xo, dy, Origin2{0, 0}, dw, p, r,
                           /*accumulate=*/true);
    EXPECT_EQ(0, std::memcmp(y.data(), y_ref.data(), y.size() * sizeof(float)))
        << threads << " threads: forward";
    EXPECT_EQ(0, std::memcmp(dw.data(), dw_ref.data(), dw.size() * sizeof(float)))
        << threads << " threads: backward-filter";
  }
}

// ---------------------------------------------------------------------------
// Sample-batched backward data: when one strip covers the range, the dy
// windows of several samples share one sgemm; unpadded 1×1 layers run one
// implicit GEMM over every sample instead. The reference runs one sgemm
// per sample over its whole dy plane (dcol = Wᵀ·dy_k) and scatters it with
// col2im in (a, b, jh, jw) order from zero — so it pins dx's bits for any
// path, batch, strip or range split the kernel picks.
// ---------------------------------------------------------------------------

void reference_backward_data(const Tensor<float>& dy, const Tensor<float>& w,
                             Tensor<float>& dx, Origin2 dxo, const ConvParams& p,
                             const Range2& r) {
  const std::int64_t F = w.shape().n;
  const std::int64_t C = w.shape().c;
  const std::int64_t ckk = C * p.kh * p.kw;
  const std::int64_t oh = dy.shape().h, ow = dy.shape().w;
  std::vector<float> dcol(static_cast<std::size_t>(ckk * oh * ow));
  for (std::int64_t k = 0; k < dy.shape().n; ++k) {
    sgemm(true, false, ckk, oh * ow, F, 1.0f, w.data(), ckk, &dy(k, 0, 0, 0),
          oh * ow, 0.0f, dcol.data(), oh * ow);
    for (std::int64_t c = 0; c < C; ++c) {
      for (std::int64_t gi = r.h0; gi < r.h1; ++gi) {
        for (std::int64_t gj = r.w0; gj < r.w1; ++gj) {
          dx(k, c, gi - dxo.h, gj - dxo.w) = 0.0f;
        }
      }
      for (int a = 0; a < p.kh; ++a) {
        for (int b = 0; b < p.kw; ++b) {
          const float* src = dcol.data() + ((c * p.kh + a) * p.kw + b) * oh * ow;
          for (std::int64_t jh = 0; jh < oh; ++jh) {
            const std::int64_t gi = jh * p.sh - p.ph + a;
            if (gi < r.h0 || gi >= r.h1) continue;
            for (std::int64_t jw = 0; jw < ow; ++jw) {
              const std::int64_t gj = jw * p.sw - p.pw + b;
              if (gj < r.w0 || gj >= r.w1) continue;
              dx(k, c, gi - dxo.h, gj - dxo.w) += src[jh * ow + jw];
            }
          }
        }
      }
    }
  }
}

struct BatchCase {
  const char* name;
  std::int64_t n, c, h, w, f;
  int k, s;
  int margin;          ///< dx buffer margin (0 = dense planes)
  std::int64_t batch;  ///< samples per sgemm over the full range (0: 1×1)
};

std::ostream& operator<<(std::ostream& os, const BatchCase& bc) {
  return os << bc.name;
}

class BackwardDataBatch : public ::testing::TestWithParam<BatchCase> {};

INSTANTIATE_TEST_SUITE_P(
    Shapes, BackwardDataBatch,
    ::testing::Values(
        // res5a_branch2b: 3×3 on a 2² plane, every sample in one sgemm.
        BatchCase{"small_3x3", 8, 16, 2, 2, 16, 3, 1, 0, 8},
        BatchCase{"strided_3x3", 5, 8, 7, 7, 12, 3, 2, 0, 5},
        BatchCase{"margin_3x3", 3, 8, 6, 6, 16, 3, 1, 2, 3},
        // 72 · 44² floats per sample: three samples per sgemm, 3 + 3 + 2.
        BatchCase{"uneven", 8, 8, 44, 44, 8, 3, 1, 0, 3},
        // 576 · 24² floats: one sample fills the budget alone.
        BatchCase{"one_per_gemm", 2, 64, 24, 24, 16, 3, 1, 0, 1},
        // Unpadded 1×1 layers skip col2im: one implicit GEMM over every
        // sample, strided, into margins, and with F past one k block.
        BatchCase{"strided_1x1", 6, 32, 7, 7, 16, 1, 2, 0, 0},
        BatchCase{"margin_1x1", 4, 24, 5, 5, 40, 1, 1, 1, 0},
        BatchCase{"deep_1x1", 2, 80, 16, 16, 300, 1, 1, 0, 0}));

TEST_P(BackwardDataBatch, BitwiseEqualsPerSampleReference) {
  const BatchCase bc = GetParam();
  const ConvParams p{bc.k, bc.k, bc.s, bc.s, bc.k / 2, bc.k / 2};
  const std::int64_t oh = p.out_h(bc.h), ow = p.out_w(bc.w);
  Tensor<float> dy(Shape4{bc.n, bc.f, oh, ow});
  Tensor<float> w(Shape4{bc.f, bc.c, bc.k, bc.k});
  Rng rng(2027);
  dy.fill_uniform(rng);
  w.fill_uniform(rng);
  const Range2 full{0, bc.h, 0, bc.w};
  if (bc.batch > 0) {
    EXPECT_EQ(backward_data_batch(p, bc.c, bc.n, full, oh, ow), bc.batch);
  }

  // The full range, then an interior/boundary split (§IV-A): the interior
  // first, then the top/bottom rows and the left/right columns.
  const std::int64_t h = bc.h, wd = bc.w;
  const std::vector<std::vector<Range2>> layouts = {
      {full},
      {Range2{1, h - 1, 1, wd - 1}, Range2{0, 1, 0, wd}, Range2{h - 1, h, 0, wd},
       Range2{1, h - 1, 0, 1}, Range2{1, h - 1, wd - 1, wd}}};
  const int m = bc.margin;
  const Origin2 dxo{-m, -m};
  const Shape4 dxs{bc.n, bc.c, h + 2 * m, wd + 2 * m};
  for (const auto& ranges : layouts) {
    Tensor<float> ref(dxs);
    ref.fill(3.0f);  // margins must stay untouched
    for (const Range2& r : ranges) reference_backward_data(dy, w, ref, dxo, p, r);
    for (const int threads : {1, 8}) {
      parallel::ThreadGuard guard(threads);
      Tensor<float> dx(dxs);
      dx.fill(3.0f);
      for (const Range2& r : ranges) {
        conv2d_backward_data(dy, Origin2{0, 0}, w, dx, dxo, p, r, oh, ow);
      }
      EXPECT_EQ(0, std::memcmp(dx.data(), ref.data(), dx.size() * sizeof(float)))
          << threads << " threads, " << ranges.size() << " ranges";
    }
  }

  // And the padded oracle agrees to rounding.
  Tensor<float> dx_oracle(Shape4{bc.n, bc.c, h, wd}), dx(dx_oracle.shape());
  conv2d_backward_data_padded(dy, w, dx_oracle, p);
  conv2d_backward_data(dy, Origin2{0, 0}, w, dx, Origin2{0, 0}, p, full, oh, ow);
  for (std::int64_t i = 0; i < dx.size(); ++i) {
    ASSERT_NEAR(dx.data()[i], dx_oracle.data()[i],
                1e-4f * std::max(1.0f, std::abs(dx_oracle.data()[i])))
        << "i=" << i;
  }
}

TEST(ConvNaN, BackwardPathsPropagateNaN) {
  // A NaN in dy must reach every dx/dw element its window touches, even
  // where weights or activations are zero (the seed's `g == 0` skip only
  // dropped zero *gradients*; the NaN case it could mask is 0·NaN from
  // zero weights, exercised here with w = 0 and x = 0).
  const ConvParams p{3, 3, 1, 1, 1, 1};
  Tensor<float> dy(Shape4{1, 1, 5, 5});
  Tensor<float> w(Shape4{1, 1, 3, 3});  // all-zero weights
  Tensor<float> x(Shape4{1, 1, 5, 5});  // all-zero activations
  dy(0, 0, 2, 2) = std::numeric_limits<float>::quiet_NaN();
  Tensor<float> dx(Shape4{1, 1, 5, 5});
  conv2d_backward_data(dy, Origin2{0, 0}, w, dx, Origin2{0, 0}, p,
                       Range2{0, 5, 0, 5}, 5, 5);
  EXPECT_TRUE(std::isnan(dx(0, 0, 2, 2)))
      << "0-weight · NaN-gradient must be NaN";
  Tensor<float> xbuf = make_padded_buffer(x, 1, 1);
  Tensor<float> dw(w.shape());
  conv2d_backward_filter(xbuf, Origin2{-1, -1}, dy, Origin2{0, 0}, dw, p,
                         Range2{0, 5, 0, 5}, false);
  EXPECT_TRUE(std::isnan(dw(0, 0, 1, 1)))
      << "NaN-gradient · 0-activation must be NaN";
}

// Numerical gradient checks pin the analytic backward kernels to the forward
// definition itself.
TEST(ConvGradients, NumericalBackwardData) {
  const ConvParams p{3, 3, 1, 1, 1, 1};
  Tensor<float> x(Shape4{1, 2, 5, 5}), w(Shape4{2, 2, 3, 3});
  Rng rng(23);
  x.fill_uniform(rng);
  w.fill_uniform(rng);
  Tensor<float> y(Shape4{1, 2, 5, 5});
  Tensor<float> dy(y.shape());
  dy.fill_uniform(rng);

  // Analytic dx.
  Tensor<float> dx(x.shape());
  conv2d_backward_data_padded(dy, w, dx, p);

  // L = Σ y ⊙ dy; numerical dL/dx via central differences.
  const float eps = 1e-2f;
  for (std::int64_t i : {0L, 7L, 12L, 24L, 49L}) {
    const float orig = x.data()[i];
    x.data()[i] = orig + eps;
    conv2d_forward_padded(x, w, y, p);
    double lp = 0;
    for (std::int64_t j = 0; j < y.size(); ++j) lp += y.data()[j] * dy.data()[j];
    x.data()[i] = orig - eps;
    conv2d_forward_padded(x, w, y, p);
    double lm = 0;
    for (std::int64_t j = 0; j < y.size(); ++j) lm += y.data()[j] * dy.data()[j];
    x.data()[i] = orig;
    EXPECT_NEAR(dx.data()[i], (lp - lm) / (2 * eps), 5e-2) << "i=" << i;
  }
}

TEST(ConvGradients, NumericalBackwardFilter) {
  const ConvParams p{3, 3, 2, 2, 1, 1};
  Tensor<float> x(Shape4{2, 2, 6, 6}), w(Shape4{3, 2, 3, 3});
  Rng rng(29);
  x.fill_uniform(rng);
  w.fill_uniform(rng);
  Tensor<float> y(Shape4{2, 3, 3, 3});
  Tensor<float> dy(y.shape());
  dy.fill_uniform(rng);

  Tensor<float> dw(w.shape());
  conv2d_backward_filter_padded(x, dy, dw, p);

  const float eps = 1e-2f;
  for (std::int64_t i : {0L, 5L, 17L, 30L, 53L}) {
    const float orig = w.data()[i];
    w.data()[i] = orig + eps;
    conv2d_forward_padded(x, w, y, p);
    double lp = 0;
    for (std::int64_t j = 0; j < y.size(); ++j) lp += y.data()[j] * dy.data()[j];
    w.data()[i] = orig - eps;
    conv2d_forward_padded(x, w, y, p);
    double lm = 0;
    for (std::int64_t j = 0; j < y.size(); ++j) lm += y.data()[j] * dy.data()[j];
    w.data()[i] = orig;
    EXPECT_NEAR(dw.data()[i], (lp - lm) / (2 * eps), 5e-2) << "i=" << i;
  }
}

TEST(Conv, KnownTinyCase) {
  // 1x1 input 3x3 of ones, single 3x3 ones filter, pad 1: center output = 9,
  // edge = 6, corner = 4.
  const ConvParams p{3, 3, 1, 1, 1, 1};
  Tensor<float> x(Shape4{1, 1, 3, 3}), w(Shape4{1, 1, 3, 3});
  x.fill(1.0f);
  w.fill(1.0f);
  Tensor<float> y(Shape4{1, 1, 3, 3});
  conv2d_forward_padded(x, w, y, p);
  EXPECT_FLOAT_EQ(y(0, 0, 1, 1), 9.0f);
  EXPECT_FLOAT_EQ(y(0, 0, 0, 1), 6.0f);
  EXPECT_FLOAT_EQ(y(0, 0, 0, 0), 4.0f);
}

TEST(Conv, FilterAccumulateFlag) {
  const ConvParams p{1, 1, 1, 1, 0, 0};
  Tensor<float> x(Shape4{1, 1, 2, 2}), dy(Shape4{1, 1, 2, 2});
  x.fill(1.0f);
  dy.fill(1.0f);
  Tensor<float> dw(Shape4{1, 1, 1, 1});
  conv2d_backward_filter_padded(x, dy, dw, p, /*accumulate=*/false);
  EXPECT_FLOAT_EQ(dw(0, 0, 0, 0), 4.0f);
  conv2d_backward_filter_padded(x, dy, dw, p, /*accumulate=*/true);
  EXPECT_FLOAT_EQ(dw(0, 0, 0, 0), 8.0f);
}

TEST(Conv, EmptyRangeIsNoop) {
  const ConvParams p{3, 3, 1, 1, 1, 1};
  Tensor<float> x(Shape4{1, 1, 5, 5}), w(Shape4{1, 1, 3, 3}), y(Shape4{1, 1, 3, 3});
  y.fill(7.0f);
  conv2d_forward(x, Origin2{0, 0}, w, y, Origin2{0, 0}, p, Range2{2, 2, 0, 3});
  EXPECT_FLOAT_EQ(y(0, 0, 0, 0), 7.0f);  // untouched
}

TEST(Conv, MismatchedKernelShapeThrows) {
  const ConvParams p{3, 3, 1, 1, 1, 1};
  Tensor<float> x(Shape4{1, 1, 5, 5}), w(Shape4{1, 1, 5, 5}), y(Shape4{1, 1, 5, 5});
  EXPECT_THROW(conv2d_forward_padded(x, w, y, p), Error);
}

TEST(Conv, RectangularKernelsSupported) {
  // The kernel layer supports kh != kw even though the layer API is square;
  // verify against the padded oracle.
  const ConvParams p{3, 5, 1, 1, 1, 2};
  Tensor<float> x(Shape4{2, 2, 7, 9});
  Tensor<float> w(Shape4{3, 2, 3, 5});
  Rng rng(61);
  x.fill_uniform(rng);
  w.fill_uniform(rng);
  Tensor<float> y_ref(Shape4{2, 3, p.out_h(7), p.out_w(9)});
  conv2d_forward_padded(x, w, y_ref, p);

  Tensor<float> xbuf(Shape4{2, 2, 7 + 2, 9 + 4});
  Box4 src, dst;
  src.ext[0] = 2; src.ext[1] = 2; src.ext[2] = 7; src.ext[3] = 9;
  dst = src; dst.off[2] = 1; dst.off[3] = 2;
  copy_box(x, src, xbuf, dst);
  Tensor<float> y(y_ref.shape());
  conv2d_forward(xbuf, Origin2{-1, -2}, w, y, Origin2{0, 0}, p,
                 Range2{0, y.shape().h, 0, y.shape().w});
  for (std::int64_t i = 0; i < y.size(); ++i) {
    ASSERT_NEAR(y.data()[i], y_ref.data()[i], 1e-4f);
  }
}

TEST(Conv, StrideThreeBackwardDataMatchesOracle) {
  const ConvParams p{5, 5, 3, 3, 2, 2};
  const std::int64_t H = 13, W = 13;
  Tensor<float> dy(Shape4{1, 2, p.out_h(H), p.out_w(W)});
  Tensor<float> w(Shape4{2, 3, 5, 5});
  Rng rng(67);
  dy.fill_uniform(rng);
  w.fill_uniform(rng);
  Tensor<float> dx_ref(Shape4{1, 3, H, W});
  conv2d_backward_data_padded(dy, w, dx_ref, p);
  Tensor<float> dx(dx_ref.shape());
  conv2d_backward_data(dy, Origin2{0, 0}, w, dx, Origin2{0, 0}, p,
                       Range2{0, H, 0, W}, dy.shape().h, dy.shape().w);
  for (std::int64_t i = 0; i < dx.size(); ++i) {
    ASSERT_NEAR(dx.data()[i], dx_ref.data()[i], 1e-4f) << i;
  }
}

TEST(Conv, AsymmetricStrideForward) {
  const ConvParams p{3, 3, 2, 1, 1, 1};  // stride 2 vertically, 1 horizontally
  Tensor<float> x(Shape4{1, 1, 8, 8});
  Tensor<float> w(Shape4{1, 1, 3, 3});
  Rng rng(71);
  x.fill_uniform(rng);
  w.fill_uniform(rng);
  Tensor<float> y(Shape4{1, 1, p.out_h(8), p.out_w(8)});
  EXPECT_EQ(y.shape().h, 4);
  EXPECT_EQ(y.shape().w, 8);
  conv2d_forward_padded(x, w, y, p);
  // Spot-check one interior value by hand.
  float acc = 0;
  for (int a = 0; a < 3; ++a)
    for (int b = 0; b < 3; ++b) acc += x(0, 0, 2 * 2 - 1 + a, 3 - 1 + b) * w(0, 0, a, b);
  EXPECT_NEAR(y(0, 0, 2, 3), acc, 1e-5f);
}

}  // namespace
}  // namespace distconv::kernels
