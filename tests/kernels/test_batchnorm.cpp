#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "kernels/batchnorm.hpp"
#include "tests/support/thread_guard.hpp"

namespace distconv::kernels {
namespace {

Box4 full_box(const Shape4& s) {
  Box4 b;
  for (int d = 0; d < 4; ++d) b.ext[d] = s[d];
  return b;
}

TEST(BatchNorm, PartialSumsAreExact) {
  Tensor<float> x(Shape4{2, 3, 4, 4});
  Rng rng(3);
  x.fill_uniform(rng);
  std::vector<double> sum(3), sumsq(3);
  bn_partial_sums(x, full_box(x.shape()), sum.data(), sumsq.data());
  for (int c = 0; c < 3; ++c) {
    double s = 0, s2 = 0;
    for (int n = 0; n < 2; ++n)
      for (int h = 0; h < 4; ++h)
        for (int w = 0; w < 4; ++w) {
          s += x(n, c, h, w);
          s2 += double(x(n, c, h, w)) * x(n, c, h, w);
        }
    EXPECT_NEAR(sum[c], s, 1e-9);
    EXPECT_NEAR(sumsq[c], s2, 1e-9);
  }
}

TEST(BatchNorm, PartialSumsSplitAdditive) {
  // Summing over two disjoint boxes equals one sum over the union — the
  // property the distributed BN relies on before its allreduce.
  Tensor<float> x(Shape4{2, 2, 6, 4});
  Rng rng(5);
  x.fill_uniform(rng);
  std::vector<double> whole_s(2), whole_q(2), a_s(2), a_q(2), b_s(2), b_q(2);
  bn_partial_sums(x, full_box(x.shape()), whole_s.data(), whole_q.data());
  Box4 top = full_box(x.shape());
  top.ext[2] = 3;
  Box4 bottom = top;
  bottom.off[2] = 3;
  bn_partial_sums(x, top, a_s.data(), a_q.data());
  bn_partial_sums(x, bottom, b_s.data(), b_q.data());
  for (int c = 0; c < 2; ++c) {
    EXPECT_NEAR(a_s[c] + b_s[c], whole_s[c], 1e-9);
    EXPECT_NEAR(a_q[c] + b_q[c], whole_q[c], 1e-9);
  }
}

TEST(BatchNorm, ForwardNormalizesToZeroMeanUnitVar) {
  const Shape4 s{4, 2, 5, 5};
  Tensor<float> x(s), y(s);
  Rng rng(7);
  x.fill_normal(rng, 3.0f, 2.0f);
  std::vector<double> sum(2), sumsq(2);
  bn_partial_sums(x, full_box(s), sum.data(), sumsq.data());
  const double count = double(s.n) * s.h * s.w;
  std::vector<float> mean(2), invstd(2), gamma(2, 1.0f), beta(2, 0.0f);
  for (int c = 0; c < 2; ++c) {
    mean[c] = float(sum[c] / count);
    const double var = sumsq[c] / count - double(mean[c]) * mean[c];
    invstd[c] = float(1.0 / std::sqrt(var + 1e-5));
  }
  bn_forward_apply(x, full_box(s), y, full_box(s), mean.data(), invstd.data(),
                   gamma.data(), beta.data());
  std::vector<double> ys(2), yq(2);
  bn_partial_sums(y, full_box(s), ys.data(), yq.data());
  for (int c = 0; c < 2; ++c) {
    EXPECT_NEAR(ys[c] / count, 0.0, 1e-4);
    EXPECT_NEAR(yq[c] / count, 1.0, 1e-2);
  }
}

TEST(BatchNorm, GammaBetaAffine) {
  const Shape4 s{1, 1, 2, 2};
  Tensor<float> x(s), y(s);
  x(0, 0, 0, 0) = -1;
  x(0, 0, 0, 1) = 1;
  x(0, 0, 1, 0) = -1;
  x(0, 0, 1, 1) = 1;
  const float mean = 0.0f, invstd = 1.0f;
  const float gamma = 2.0f, beta = 10.0f;
  bn_forward_apply(x, full_box(s), y, full_box(s), &mean, &invstd, &gamma, &beta);
  EXPECT_FLOAT_EQ(y(0, 0, 0, 0), 8.0f);
  EXPECT_FLOAT_EQ(y(0, 0, 0, 1), 12.0f);
}

TEST(BatchNorm, NumericalGradientCheck) {
  const Shape4 s{2, 2, 3, 3};
  Tensor<float> x(s), dy(s);
  Rng rng(11);
  x.fill_uniform(rng, -2.0f, 2.0f);
  dy.fill_uniform(rng);
  std::vector<float> gamma{1.3f, 0.7f}, beta{0.1f, -0.2f};
  const double count = double(s.n) * s.h * s.w;
  const double eps_bn = 1e-5;

  auto forward = [&](const Tensor<float>& xin, Tensor<float>& yout) {
    std::vector<double> sum(2), sumsq(2);
    bn_partial_sums(xin, full_box(s), sum.data(), sumsq.data());
    std::vector<float> mean(2), invstd(2);
    for (int c = 0; c < 2; ++c) {
      mean[c] = float(sum[c] / count);
      const double var = sumsq[c] / count - double(mean[c]) * mean[c];
      invstd[c] = float(1.0 / std::sqrt(var + eps_bn));
    }
    bn_forward_apply(xin, full_box(s), yout, full_box(s), mean.data(),
                     invstd.data(), gamma.data(), beta.data());
  };

  // Analytic dx.
  std::vector<double> sum(2), sumsq(2);
  bn_partial_sums(x, full_box(s), sum.data(), sumsq.data());
  std::vector<float> mean(2), invstd(2);
  for (int c = 0; c < 2; ++c) {
    mean[c] = float(sum[c] / count);
    const double var = sumsq[c] / count - double(mean[c]) * mean[c];
    invstd[c] = float(1.0 / std::sqrt(var + eps_bn));
  }
  std::vector<double> sdy(2), sdyx(2);
  bn_backward_reduce(x, full_box(s), dy, full_box(s), mean.data(), invstd.data(),
                     sdy.data(), sdyx.data());
  Tensor<float> dx(s);
  bn_backward_apply(x, full_box(s), dy, full_box(s), dx, full_box(s), mean.data(),
                    invstd.data(), gamma.data(), sdy.data(), sdyx.data(), count);

  Tensor<float> y(s);
  const float h = 1e-2f;
  for (std::int64_t i : {0L, 3L, 9L, 17L, 35L}) {
    const float orig = x.data()[i];
    x.data()[i] = orig + h;
    forward(x, y);
    double lp = 0;
    for (std::int64_t j = 0; j < y.size(); ++j) lp += y.data()[j] * dy.data()[j];
    x.data()[i] = orig - h;
    forward(x, y);
    double lm = 0;
    for (std::int64_t j = 0; j < y.size(); ++j) lm += y.data()[j] * dy.data()[j];
    x.data()[i] = orig;
    EXPECT_NEAR(dx.data()[i], (lp - lm) / (2 * h), 5e-2) << "i=" << i;
  }
}

// ---------------------------------------------------------------------------
// Reference kernels: the 4-D-indexed batchnorm the row-pointer and run-walker
// kernels replaced, kept serial here as the bitwise oracle (same arithmetic
// expressions, same per-channel accumulation chains).
// ---------------------------------------------------------------------------

void ref_partial_sums(const Tensor<float>& x, const Box4& box, double* sum,
                      double* sumsq) {
  for (std::int64_t c = 0; c < box.ext[1]; ++c) {
    sum[c] = 0.0;
    sumsq[c] = 0.0;
    for (std::int64_t n = 0; n < box.ext[0]; ++n) {
      double s = 0.0, s2 = 0.0;
      for (std::int64_t h = 0; h < box.ext[2]; ++h) {
        for (std::int64_t w = 0; w < box.ext[3]; ++w) {
          const double v =
              x(box.off[0] + n, box.off[1] + c, box.off[2] + h, box.off[3] + w);
          s += v;
          s2 += v * v;
        }
      }
      sum[c] += s;
      sumsq[c] += s2;
    }
  }
}

void ref_forward_apply(const Tensor<float>& x, const Box4& xbox, Tensor<float>& y,
                       const Box4& ybox, const float* mean, const float* invstd,
                       const float* gamma, const float* beta) {
  for (std::int64_t n = 0; n < xbox.ext[0]; ++n) {
    for (std::int64_t c = 0; c < xbox.ext[1]; ++c) {
      const float m = mean[c], is = invstd[c], g = gamma[c], b = beta[c];
      for (std::int64_t h = 0; h < xbox.ext[2]; ++h) {
        for (std::int64_t w = 0; w < xbox.ext[3]; ++w) {
          const float v = x(xbox.off[0] + n, xbox.off[1] + c, xbox.off[2] + h,
                            xbox.off[3] + w);
          y(ybox.off[0] + n, ybox.off[1] + c, ybox.off[2] + h, ybox.off[3] + w) =
              g * (v - m) * is + b;
        }
      }
    }
  }
}

void ref_backward_reduce(const Tensor<float>& x, const Box4& xbox,
                         const Tensor<float>& dy, const Box4& dybox,
                         const float* mean, const float* invstd, double* sum_dy,
                         double* sum_dy_xhat) {
  for (std::int64_t c = 0; c < xbox.ext[1]; ++c) {
    const double m = mean[c], is = invstd[c];
    sum_dy[c] = 0.0;
    sum_dy_xhat[c] = 0.0;
    for (std::int64_t n = 0; n < xbox.ext[0]; ++n) {
      double s = 0.0, sx = 0.0;
      for (std::int64_t h = 0; h < xbox.ext[2]; ++h) {
        for (std::int64_t w = 0; w < xbox.ext[3]; ++w) {
          const double g = dy(dybox.off[0] + n, dybox.off[1] + c,
                              dybox.off[2] + h, dybox.off[3] + w);
          const double xhat = (x(xbox.off[0] + n, xbox.off[1] + c,
                                 xbox.off[2] + h, xbox.off[3] + w) -
                               m) *
                              is;
          s += g;
          sx += g * xhat;
        }
      }
      sum_dy[c] += s;
      sum_dy_xhat[c] += sx;
    }
  }
}

void ref_backward_apply(const Tensor<float>& x, const Box4& xbox,
                        const Tensor<float>& dy, const Box4& dybox,
                        Tensor<float>& dx, const Box4& dxbox, const float* mean,
                        const float* invstd, const float* gamma,
                        const double* sum_dy, const double* sum_dy_xhat,
                        double count) {
  for (std::int64_t n = 0; n < xbox.ext[0]; ++n) {
    for (std::int64_t c = 0; c < xbox.ext[1]; ++c) {
      const double m = mean[c], is = invstd[c], g = gamma[c];
      const double sdy = sum_dy[c], sdyx = sum_dy_xhat[c];
      const double coef = g * is / count;
      for (std::int64_t h = 0; h < xbox.ext[2]; ++h) {
        for (std::int64_t w = 0; w < xbox.ext[3]; ++w) {
          const double grad = dy(dybox.off[0] + n, dybox.off[1] + c,
                                 dybox.off[2] + h, dybox.off[3] + w);
          const double xhat = (x(xbox.off[0] + n, xbox.off[1] + c,
                                 xbox.off[2] + h, xbox.off[3] + w) -
                               m) *
                              is;
          dx(dxbox.off[0] + n, dxbox.off[1] + c, dxbox.off[2] + h,
             dxbox.off[3] + w) =
              static_cast<float>(coef * (count * grad - sdy - xhat * sdyx));
        }
      }
    }
  }
}

/// A tensor of `ext` plus margins `lo`/`hi` on h and w (and `c_off` extra
/// channels in front), filled from `seed`, with its interior box.
struct Framed {
  Tensor<float> t;
  Box4 box;
};

Framed framed(const Shape4& ext, std::int64_t c_off, std::int64_t lo,
              std::int64_t hi, std::uint64_t seed) {
  Framed f;
  f.t = Tensor<float>(Shape4{ext.n, ext.c + c_off, ext.h + lo + hi, ext.w + lo + hi});
  Rng rng(seed);
  f.t.fill_normal(rng, 0.5f, 1.5f);
  f.box.off[1] = c_off;
  f.box.off[2] = lo;
  f.box.off[3] = lo;
  for (int d = 0; d < 4; ++d) f.box.ext[d] = ext[d];
  return f;
}

bool bitwise_equal(const Tensor<float>& a, const Tensor<float>& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), sizeof(float) * a.size()) == 0;
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), sizeof(double) * a.size()) == 0;
}

TEST(BatchNorm, KernelsMatchFourDReferenceBitwise) {
  // Operands mix margin frames (x, y/dx with h/w margins, dy dense or
  // channel-offset), so the apply kernels' runs stop where a frame does.
  struct Geometry {
    Shape4 ext;
    std::int64_t x_lo, x_hi, dy_c_off, out_lo;
  };
  const Geometry geoms[] = {
      {Shape4{3, 5, 6, 7}, 1, 2, 0, 0},
      {Shape4{2, 4, 5, 5}, 0, 0, 1, 1},
      {Shape4{8, 32, 16, 16}, 1, 1, 0, 0},  // res2: several pool chunks
      {Shape4{8, 64, 2, 2}, 0, 0, 0, 1},    // res5-like 2² planes
  };
  for (const int threads : {1, 8}) {
    parallel::ThreadGuard guard(threads);
    for (const Geometry& g : geoms) {
      SCOPED_TRACE("threads=" + std::to_string(threads) + " ext=" + g.ext.str());
      const std::int64_t C = g.ext.c;
      const Framed x = framed(g.ext, 0, g.x_lo, g.x_hi, 21);
      const Framed dy = framed(g.ext, g.dy_c_off, 0, 0, 22);

      std::vector<double> sum(C), sumsq(C), rsum(C), rsumsq(C);
      bn_partial_sums(x.t, x.box, sum.data(), sumsq.data());
      ref_partial_sums(x.t, x.box, rsum.data(), rsumsq.data());
      EXPECT_TRUE(bitwise_equal(sum, rsum));
      EXPECT_TRUE(bitwise_equal(sumsq, rsumsq));

      const double count = double(g.ext.n) * g.ext.h * g.ext.w;
      std::vector<float> mean(C), invstd(C), gamma(C), beta(C);
      Rng rng(23);
      for (std::int64_t c = 0; c < C; ++c) {
        mean[c] = float(sum[c] / count);
        invstd[c] = float(1.0 / std::sqrt(sumsq[c] / count -
                                          double(mean[c]) * mean[c] + 1e-5));
        gamma[c] = float(rng.uniform(0.5, 1.5));
        beta[c] = float(rng.uniform(-0.5, 0.5));
      }

      Framed y = framed(g.ext, 0, g.out_lo, g.out_lo, 24);
      Framed y_ref = y;
      bn_forward_apply(x.t, x.box, y.t, y.box, mean.data(), invstd.data(),
                       gamma.data(), beta.data());
      ref_forward_apply(x.t, x.box, y_ref.t, y_ref.box, mean.data(), invstd.data(),
                        gamma.data(), beta.data());
      EXPECT_TRUE(bitwise_equal(y.t, y_ref.t));

      std::vector<double> sdy(C), sdyx(C), rsdy(C), rsdyx(C);
      bn_backward_reduce(x.t, x.box, dy.t, dy.box, mean.data(), invstd.data(),
                         sdy.data(), sdyx.data());
      ref_backward_reduce(x.t, x.box, dy.t, dy.box, mean.data(), invstd.data(),
                          rsdy.data(), rsdyx.data());
      EXPECT_TRUE(bitwise_equal(sdy, rsdy));
      EXPECT_TRUE(bitwise_equal(sdyx, rsdyx));

      Framed dx = framed(g.ext, 0, g.out_lo, g.out_lo, 25);
      Framed dx_ref = dx;
      bn_backward_apply(x.t, x.box, dy.t, dy.box, dx.t, dx.box, mean.data(),
                        invstd.data(), gamma.data(), sdy.data(), sdyx.data(),
                        count);
      ref_backward_apply(x.t, x.box, dy.t, dy.box, dx_ref.t, dx_ref.box,
                         mean.data(), invstd.data(), gamma.data(), rsdy.data(),
                         rsdyx.data(), count);
      EXPECT_TRUE(bitwise_equal(dx.t, dx_ref.t));
    }
  }
}

}  // namespace
}  // namespace distconv::kernels
