#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "kernels/pooling.hpp"
#include "support/intmath.hpp"
#include "tests/support/thread_guard.hpp"

namespace distconv::kernels {
namespace {

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

struct PoolCase {
  std::int64_t h, w;
  int k, s, pad;
  PoolMode mode;
};

class PoolSweep : public ::testing::TestWithParam<PoolCase> {};

INSTANTIATE_TEST_SUITE_P(
    Shapes, PoolSweep,
    ::testing::Values(PoolCase{8, 8, 2, 2, 0, PoolMode::kMax},
                      PoolCase{8, 8, 2, 2, 0, PoolMode::kAverage},
                      PoolCase{9, 9, 3, 2, 1, PoolMode::kMax},
                      PoolCase{9, 9, 3, 2, 1, PoolMode::kAverage},
                      PoolCase{7, 11, 3, 3, 0, PoolMode::kMax},
                      PoolCase{12, 12, 3, 1, 1, PoolMode::kAverage}));

TEST_P(PoolSweep, RegionMatchesPaddedOracle) {
  const auto cfg = GetParam();
  PoolParams p{cfg.k, cfg.k, cfg.s, cfg.s, cfg.pad, cfg.pad, cfg.mode};
  Tensor<float> x(Shape4{2, 3, cfg.h, cfg.w});
  Rng rng(31);
  x.fill_uniform(rng);
  const std::int64_t oh = p.out_h(cfg.h), ow = p.out_w(cfg.w);
  Tensor<float> y_ref(Shape4{2, 3, oh, ow});
  Tensor<std::int64_t> am_ref(y_ref.shape());
  pool2d_forward_padded(x, y_ref, &am_ref, p);

  Tensor<float> xbuf = make_padded_buffer(x, p.ph, p.pw);
  Tensor<float> y(y_ref.shape());
  Tensor<std::int64_t> am(y.shape());
  pool2d_forward(xbuf, Origin2{-p.ph, -p.pw}, y, Origin2{0, 0}, &am,
                 Origin2{0, 0}, p, Range2{0, oh, 0, ow}, cfg.h, cfg.w);
  for (std::int64_t i = 0; i < y.size(); ++i) {
    ASSERT_FLOAT_EQ(y.data()[i], y_ref.data()[i]) << i;
  }
  if (cfg.mode == PoolMode::kMax) {
    for (std::int64_t i = 0; i < am.size(); ++i) {
      ASSERT_EQ(am.data()[i], am_ref.data()[i]) << i;
    }
  }

  // Backward.
  Tensor<float> dy(y.shape());
  dy.fill_uniform(rng);
  Tensor<float> dx_ref(x.shape());
  pool2d_backward_padded(dy, &am_ref, dx_ref, p);
  Tensor<float> dx(x.shape());
  pool2d_backward(dy, Origin2{0, 0}, &am, dx, Origin2{0, 0}, p,
                  Range2{0, cfg.h, 0, cfg.w}, oh, ow, cfg.w);
  for (std::int64_t i = 0; i < dx.size(); ++i) {
    ASSERT_NEAR(dx.data()[i], dx_ref.data()[i], 1e-5f) << i;
  }
}

/// Rows [h0, h1) × cols [w0, w1) of a global-coordinate tensor `g` whose
/// (0, 0) element sits at global (shift, shift), as a buffer with origin
/// (h0, w0).
template <typename T>
Tensor<T> crop(const Tensor<T>& g, std::int64_t shift, std::int64_t h0,
               std::int64_t h1, std::int64_t w0, std::int64_t w1) {
  const auto& s = g.shape();
  Tensor<T> out(Shape4{s.n, s.c, h1 - h0, w1 - w0});
  Box4 src, dst;
  src.ext[0] = dst.ext[0] = s.n;
  src.ext[1] = dst.ext[1] = s.c;
  src.ext[2] = dst.ext[2] = h1 - h0;
  src.ext[3] = dst.ext[3] = w1 - w0;
  src.off[2] = h0 - shift;
  src.off[3] = w0 - shift;
  copy_box(g, src, out, dst);
  return out;
}

/// The split the distributed layers run while a halo is in flight: an
/// interior (here `owned` shrunk by one on each side) then the ≤ 4 boundary
/// strips around it.
std::vector<Range2> halo_overlap_split(const Range2& owned) {
  const Range2 in{owned.h0 + 1, owned.h1 - 1, owned.w0 + 1, owned.w1 - 1};
  if (in.empty()) return {owned};
  std::vector<Range2> out{in};
  if (in.h0 > owned.h0) out.push_back({owned.h0, in.h0, owned.w0, owned.w1});
  if (in.h1 < owned.h1) out.push_back({in.h1, owned.h1, owned.w0, owned.w1});
  if (in.w0 > owned.w0) out.push_back({in.h0, in.h1, owned.w0, in.w0});
  if (in.w1 < owned.w1) out.push_back({in.h0, in.h1, in.w1, owned.w1});
  return out;
}

template <typename T>
bool bitwise_equal(const Tensor<T>& a, const Tensor<T>& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), sizeof(T) * a.size()) == 0;
}

struct SplitCase {
  std::int64_t h, w;
  int k, s, pad;
};

class PoolSplit : public ::testing::TestWithParam<SplitCase> {};

INSTANTIATE_TEST_SUITE_P(Shapes, PoolSplit,
                         ::testing::Values(SplitCase{19, 17, 3, 2, 1},
                                           SplitCase{16, 18, 2, 2, 0}));

TEST_P(PoolSplit, InteriorPlusBoundaryEqualsFullRangeBitwise) {
  // A rank's block away from the global origin: buffers with non-zero
  // origins, y and argmax with different margins, the range computed whole
  // and split as interior + boundary strips.
  const auto cfg = GetParam();
  for (const PoolMode mode : {PoolMode::kMax, PoolMode::kAverage}) {
    for (const int threads : {1, 8}) {
      parallel::ThreadGuard guard(threads);
      SCOPED_TRACE(std::string(mode == PoolMode::kMax ? "max" : "average") +
                   " threads=" + std::to_string(threads));
      const bool is_max = mode == PoolMode::kMax;
      const PoolParams p{cfg.k, cfg.k, cfg.s, cfg.s, cfg.pad, cfg.pad, mode};
      const std::int64_t oh = p.out_h(cfg.h), ow = p.out_w(cfg.w);
      Tensor<float> x(Shape4{2, 3, cfg.h, cfg.w});
      Rng rng(41);
      x.fill_uniform(rng);
      const Tensor<float> xg = make_padded_buffer(x, p.ph, p.pw);
      Tensor<float> y_glob(Shape4{2, 3, oh, ow});
      Tensor<std::int64_t> am_glob(y_glob.shape());
      pool2d_forward_padded(x, y_glob, &am_glob, p);

      // Forward over the owned outputs [2, oh - 1) × [1, ow).
      const Range2 out{2, oh - 1, 1, ow};
      const std::int64_t xh0 = std::max<std::int64_t>(-p.ph, out.h0 * p.sh - p.ph - 1);
      const std::int64_t xw0 = std::max<std::int64_t>(-p.pw, out.w0 * p.sw - p.pw - 1);
      const std::int64_t xh1 =
          std::min<std::int64_t>(cfg.h + p.ph, (out.h1 - 1) * p.sh - p.ph + p.kh + 1);
      const std::int64_t xw1 =
          std::min<std::int64_t>(cfg.w + p.pw, (out.w1 - 1) * p.sw - p.pw + p.kw);
      const Tensor<float> xb = crop(xg, -p.ph, xh0, xh1, xw0, xw1);
      const Origin2 xo{xh0, xw0}, yo{out.h0 - 2, out.w0 - 1}, amo{out.h0 - 1, out.w0 - 3};
      const Shape4 ys{2, 3, out.h1 - out.h0 + 3, out.w1 - out.w0 + 2};
      const Shape4 ams{2, 3, out.h1 - out.h0 + 1, out.w1 - out.w0 + 4};
      Tensor<float> y_full(ys), y_split(ys);
      Tensor<std::int64_t> am_full(ams), am_split(ams);
      Tensor<std::int64_t>* am_f = is_max ? &am_full : nullptr;
      Tensor<std::int64_t>* am_s = is_max ? &am_split : nullptr;
      pool2d_forward(xb, xo, y_full, yo, am_f, amo, p, out, cfg.h, cfg.w);
      for (const Range2& r : halo_overlap_split(out)) {
        pool2d_forward(xb, xo, y_split, yo, am_s, amo, p, r, cfg.h, cfg.w);
      }
      EXPECT_TRUE(bitwise_equal(y_split, y_full));
      EXPECT_TRUE(bitwise_equal(am_split, am_full));
      for (std::int64_t gh = out.h0; gh < out.h1; ++gh) {
        for (std::int64_t gw = out.w0; gw < out.w1; ++gw) {
          ASSERT_FLOAT_EQ(y_full(1, 2, gh - yo.h, gw - yo.w), y_glob(1, 2, gh, gw));
          if (is_max) {
            ASSERT_EQ(am_full(1, 2, gh - amo.h, gw - amo.w), am_glob(1, 2, gh, gw));
          }
        }
      }

      // Backward over the owned inputs [3, h - 2) × [2, w - 1), gathering
      // from dy (and argmax, which shares dy's buffer geometry).
      const Range2 in{3, cfg.h - 2, 2, cfg.w - 1};
      const std::int64_t dh0 = std::max<std::int64_t>(
          0, ceil_div(in.h0 + p.ph - p.kh + 1, p.sh) - 1);
      const std::int64_t dh1 =
          std::min<std::int64_t>(oh, floor_div(in.h1 - 1 + p.ph, p.sh) + 1);
      const std::int64_t dw0 = std::max<std::int64_t>(
          0, ceil_div(in.w0 + p.pw - p.kw + 1, p.sw));
      const std::int64_t dw1 =
          std::min<std::int64_t>(ow, floor_div(in.w1 - 1 + p.pw, p.sw) + 2);
      Tensor<float> dy_glob(y_glob.shape());
      dy_glob.fill_uniform(rng);
      const Tensor<float> dyb = crop(dy_glob, 0, dh0, dh1, dw0, dw1);
      const Tensor<std::int64_t> amb = crop(am_glob, 0, dh0, dh1, dw0, dw1);
      const Origin2 dyo{dh0, dw0}, dxo{in.h0 - 1, in.w0 - 1};
      const Shape4 dxs{2, 3, in.h1 - in.h0 + 2, in.w1 - in.w0 + 1};
      Tensor<float> dx_full(dxs), dx_split(dxs);
      const Tensor<std::int64_t>* am_b = is_max ? &amb : nullptr;
      pool2d_backward(dyb, dyo, am_b, dx_full, dxo, p, in, oh, ow, cfg.w);
      for (const Range2& r : halo_overlap_split(in)) {
        pool2d_backward(dyb, dyo, am_b, dx_split, dxo, p, r, oh, ow, cfg.w);
      }
      EXPECT_TRUE(bitwise_equal(dx_split, dx_full));
      Tensor<float> dx_glob(x.shape());
      pool2d_backward_padded(dy_glob, &am_glob, dx_glob, p);
      for (std::int64_t gi = in.h0; gi < in.h1; ++gi) {
        for (std::int64_t gj = in.w0; gj < in.w1; ++gj) {
          ASSERT_NEAR(dx_full(1, 2, gi - dxo.h, gj - dxo.w), dx_glob(1, 2, gi, gj),
                      1e-5f);
        }
      }
    }
  }
}

TEST(Pool, MaxSelectsMaximum) {
  PoolParams p{2, 2, 2, 2, 0, 0, PoolMode::kMax};
  Tensor<float> x(Shape4{1, 1, 2, 2});
  x(0, 0, 0, 0) = 1;
  x(0, 0, 0, 1) = 5;
  x(0, 0, 1, 0) = -2;
  x(0, 0, 1, 1) = 3;
  Tensor<float> y(Shape4{1, 1, 1, 1});
  Tensor<std::int64_t> am(y.shape());
  pool2d_forward_padded(x, y, &am, p);
  EXPECT_FLOAT_EQ(y(0, 0, 0, 0), 5.0f);
  EXPECT_EQ(am(0, 0, 0, 0), 1);  // h=0, w=1 → 0*2+1
}

TEST(Pool, MaxBackwardRoutesToArgmaxOnly) {
  PoolParams p{2, 2, 2, 2, 0, 0, PoolMode::kMax};
  Tensor<float> x(Shape4{1, 1, 2, 2});
  x(0, 0, 0, 1) = 5;
  Tensor<float> y(Shape4{1, 1, 1, 1});
  Tensor<std::int64_t> am(y.shape());
  pool2d_forward_padded(x, y, &am, p);
  Tensor<float> dy(y.shape());
  dy.fill(2.0f);
  Tensor<float> dx(x.shape());
  pool2d_backward_padded(dy, &am, dx, p);
  EXPECT_FLOAT_EQ(dx(0, 0, 0, 1), 2.0f);
  EXPECT_FLOAT_EQ(dx(0, 0, 0, 0), 0.0f);
  EXPECT_FLOAT_EQ(dx(0, 0, 1, 1), 0.0f);
}

TEST(Pool, AverageIsMean) {
  PoolParams p{2, 2, 2, 2, 0, 0, PoolMode::kAverage};
  Tensor<float> x(Shape4{1, 1, 2, 2});
  x(0, 0, 0, 0) = 1;
  x(0, 0, 0, 1) = 2;
  x(0, 0, 1, 0) = 3;
  x(0, 0, 1, 1) = 6;
  Tensor<float> y(Shape4{1, 1, 1, 1});
  pool2d_forward_padded(x, y, nullptr, p);
  EXPECT_FLOAT_EQ(y(0, 0, 0, 0), 3.0f);
}

TEST(Pool, MaxIgnoresPadding) {
  // All-negative input with padding: max must pick the largest real value,
  // never the zero padding.
  PoolParams p{3, 3, 2, 2, 1, 1, PoolMode::kMax};
  Tensor<float> x(Shape4{1, 1, 4, 4});
  x.fill(-1.0f);
  x(0, 0, 0, 0) = -0.5f;
  Tensor<float> y(Shape4{1, 1, 2, 2});
  Tensor<std::int64_t> am(y.shape());
  pool2d_forward_padded(x, y, &am, p);
  EXPECT_FLOAT_EQ(y(0, 0, 0, 0), -0.5f);
  EXPECT_LT(y(0, 0, 1, 1), 0.0f);
}

}  // namespace
}  // namespace distconv::kernels
