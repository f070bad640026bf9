#include "kernels/batchnorm.hpp"

#include <type_traits>

#include "support/error.hpp"
#include "support/parallel.hpp"

namespace distconv::kernels {
namespace {

void check_boxes(const Box4& a, const Box4& b) {
  for (int d = 0; d < 4; ++d) {
    DC_REQUIRE(a.ext[d] == b.ext[d], "batchnorm box extents differ in dim ", d);
  }
}

/// Run fn(chains, n0) over the samples [0, N) in groups: chains is an
/// std::integral_constant K, the group the samples [n0, n0 + K). The
/// reductions advance the K (h, w) chains of a group side by side, so
/// independent chains overlap in the FPU instead of each waiting on its own
/// latency; every chain keeps its order.
template <typename Fn>
void for_sample_groups(std::int64_t N, Fn&& fn) {
  constexpr int kChains = 8;
  std::int64_t n = 0;
  for (; n + kChains <= N; n += kChains) {
    fn(std::integral_constant<int, kChains>{}, n);
  }
  for (; n < N; ++n) fn(std::integral_constant<int, 1>{}, n);
}

}  // namespace

void bn_partial_sums(const Tensor<float>& x, const Box4& box, double* sum,
                     double* sumsq) {
  const Strides4& xst = x.strides();
  // Channel-major: each channel's reduction is a single task. Per (n, c)
  // plane, s and s2 run one ascending chain over (h, w), added into the
  // channel total in n order, so statistics are bit-identical for any
  // thread budget (and match the seed's per-(n, c) partial-sum grouping).
  parallel::parallel_for(0, box.ext[1], 1, [&](std::int64_t c0, std::int64_t c1) {
    for (std::int64_t c = c0; c < c1; ++c) {
      sum[c] = 0.0;
      sumsq[c] = 0.0;
      for_sample_groups(box.ext[0], [&](auto chains, std::int64_t n0) {
        constexpr int K = decltype(chains)::value;
        const float* plane[K] = {};
        double s[K] = {}, s2[K] = {};
        for (int q = 0; q < K; ++q) {
          plane[q] = x.data() + xst.offset(box.off[0] + n0 + q, box.off[1] + c,
                                           box.off[2], box.off[3]);
        }
        for (std::int64_t h = 0; h < box.ext[2]; ++h) {
          const std::int64_t row = h * xst.h;
          for (std::int64_t w = 0; w < box.ext[3]; ++w) {
            for (int q = 0; q < K; ++q) {
              const double v = plane[q][row + w];
              s[q] += v;
              s2[q] += v * v;
            }
          }
        }
        for (int q = 0; q < K; ++q) {
          sum[c] += s[q];
          sumsq[c] += s2[q];
        }
      });
    }
  });
}

void bn_forward_apply(const Tensor<float>& x, const Box4& xbox, Tensor<float>& y,
                      const Box4& ybox, const float* mean, const float* invstd,
                      const float* gamma, const float* beta) {
  check_boxes(xbox, ybox);
  for_each_channel_run(
      xbox, box_ref(x, xbox), box_ref(y, ybox),
      [&](std::int64_t c, const float* xr, float* yr, std::int64_t len) {
        const float m = mean[c], is = invstd[c], g = gamma[c], b = beta[c];
        for (std::int64_t i = 0; i < len; ++i) yr[i] = g * (xr[i] - m) * is + b;
      });
}

void bn_backward_reduce(const Tensor<float>& x, const Box4& xbox,
                        const Tensor<float>& dy, const Box4& dybox,
                        const float* mean, const float* invstd, double* sum_dy,
                        double* sum_dy_xhat) {
  check_boxes(xbox, dybox);
  const Strides4& xst = x.strides();
  const Strides4& dyst = dy.strides();
  // The chains of bn_partial_sums: one per (n, c) plane, in n order.
  parallel::parallel_for(0, xbox.ext[1], 1, [&](std::int64_t c0, std::int64_t c1) {
    for (std::int64_t c = c0; c < c1; ++c) {
      const double m = mean[c], is = invstd[c];
      sum_dy[c] = 0.0;
      sum_dy_xhat[c] = 0.0;
      for_sample_groups(xbox.ext[0], [&](auto chains, std::int64_t n0) {
        constexpr int K = decltype(chains)::value;
        const float* xp[K] = {};
        const float* gp[K] = {};
        double s[K] = {}, sx[K] = {};
        for (int q = 0; q < K; ++q) {
          xp[q] = x.data() + xst.offset(xbox.off[0] + n0 + q, xbox.off[1] + c,
                                        xbox.off[2], xbox.off[3]);
          gp[q] = dy.data() + dyst.offset(dybox.off[0] + n0 + q, dybox.off[1] + c,
                                          dybox.off[2], dybox.off[3]);
        }
        for (std::int64_t h = 0; h < xbox.ext[2]; ++h) {
          const std::int64_t xrow = h * xst.h, grow = h * dyst.h;
          for (std::int64_t w = 0; w < xbox.ext[3]; ++w) {
            for (int q = 0; q < K; ++q) {
              const double g = gp[q][grow + w];
              const double xhat = (xp[q][xrow + w] - m) * is;
              s[q] += g;
              sx[q] += g * xhat;
            }
          }
        }
        for (int q = 0; q < K; ++q) {
          sum_dy[c] += s[q];
          sum_dy_xhat[c] += sx[q];
        }
      });
    }
  });
}

void bn_backward_apply(const Tensor<float>& x, const Box4& xbox,
                       const Tensor<float>& dy, const Box4& dybox,
                       Tensor<float>& dx, const Box4& dxbox, const float* mean,
                       const float* invstd, const float* gamma,
                       const double* sum_dy, const double* sum_dy_xhat,
                       double count) {
  check_boxes(xbox, dybox);
  check_boxes(xbox, dxbox);
  for_each_channel_run(
      xbox, box_ref(x, xbox), box_ref(dy, dybox), box_ref(dx, dxbox),
      [&](std::int64_t c, const float* xr, const float* gr, float* dr,
          std::int64_t len) {
        const double m = mean[c], is = invstd[c], g = gamma[c];
        const double sdy = sum_dy[c], sdyx = sum_dy_xhat[c];
        const double coef = g * is / count;
        for (std::int64_t i = 0; i < len; ++i) {
          const double grad = gr[i];
          const double xhat = (xr[i] - m) * is;
          dr[i] = static_cast<float>(coef * (count * grad - sdy - xhat * sdyx));
        }
      });
}

}  // namespace distconv::kernels
