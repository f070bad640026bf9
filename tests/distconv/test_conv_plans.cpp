// Algorithm-family exactness: the gemm-strips zero-copy upgrade that kAuto
// picks for 1×1 stride-1 unpadded layers must be bitwise equal to im2col,
// on shapes that span several lowering strips and on ranges that force its
// pack fallbacks. Winograd, the one tolerance-mode family, is checked
// against direct within tolerance on edge-heavy geometries.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "kernels/conv.hpp"
#include "support/rng.hpp"

namespace distconv::kernels {
namespace {

struct Case {
  Tensor<float> x, w, y;
  Origin2 xo{0, 0}, yo{0, 0};
  ConvParams p;
};

Case make_case(std::int64_t n, std::int64_t c, std::int64_t f, std::int64_t h,
               std::int64_t w, int k, int s, std::uint64_t seed) {
  Case cs;
  cs.p = ConvParams{k, k, s, s, k / 2, k / 2};
  cs.x = Tensor<float>(Shape4{n, c, h + 2 * cs.p.ph, w + 2 * cs.p.pw});
  cs.w = Tensor<float>(Shape4{f, c, k, k});
  cs.y = Tensor<float>(Shape4{n, f, cs.p.out_h(h), cs.p.out_w(w)});
  Rng rng(seed);
  cs.x.fill_uniform(rng);
  cs.w.fill_uniform(rng);
  cs.xo = Origin2{-cs.p.ph, -cs.p.pw};
  return cs;
}

void expect_bitwise(const Tensor<float>& a, const Tensor<float>& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<std::size_t>(a.size()) * sizeof(float)),
            0);
}

/// Full output range plus an offset sub-range: the sub-range breaks the
/// dense-planes condition (r.w0 != origin.w), forcing gemm-strips onto its
/// per-operand pack fallbacks, which must be bitwise too.
std::vector<Range2> ranges_of(const Case& cs) {
  const Range2 full{0, cs.y.shape().h, 0, cs.y.shape().w};
  Range2 inner = full;
  inner.h0 = 1;
  inner.w0 = 1;
  inner.w1 = full.w1 - 1;
  return {full, inner};
}

// 64 channels: a 1×1 strip holds kLoweringStripElems / 64 = 8192 positions,
// i.e. 128 rows of 64 (132 rows of the 62-wide sub-ranges), so 200 rows
// span two strips with a short last one on every range.
constexpr std::int64_t kStripsH = 200, kStripsW = 64;

TEST(ConvPlans, GemmStripsForwardBitwiseEqualsIm2col) {
  Case cs = make_case(2, 64, 32, kStripsH, kStripsW, /*k=*/1, /*s=*/1, 7);
  for (const Range2& r : ranges_of(cs)) {
    cs.y.zero();
    conv2d_forward(cs.x, cs.xo, cs.w, cs.y, cs.yo, cs.p, r, ConvAlgo::kIm2col);
    Tensor<float> ref(cs.y.shape());
    std::memcpy(ref.data(), cs.y.data(),
                static_cast<std::size_t>(cs.y.size()) * sizeof(float));

    cs.y.zero();
    conv2d_forward(cs.x, cs.xo, cs.w, cs.y, cs.yo, cs.p, r,
                   ConvAlgo::kGemmStrips);
    expect_bitwise(cs.y, ref);
  }
}

TEST(ConvPlans, GemmStripsBackwardDataBitwiseEqualsIm2col) {
  Case cs = make_case(2, 64, 32, kStripsH, kStripsW, 1, 1, 11);
  Rng rng(13);
  cs.y.fill_uniform(rng);  // dy
  const Range2 in_full{0, kStripsH, 0, kStripsW};
  Range2 in_inner = in_full;
  in_inner.h0 = 1;
  in_inner.w0 = 2;
  for (const Range2& r : {in_full, in_inner}) {
    cs.x.zero();
    conv2d_backward_data(cs.y, cs.yo, cs.w, cs.x, cs.xo, cs.p, r,
                         cs.y.shape().h, cs.y.shape().w, ConvAlgo::kIm2col);
    Tensor<float> ref(cs.x.shape());
    std::memcpy(ref.data(), cs.x.data(),
                static_cast<std::size_t>(cs.x.size()) * sizeof(float));

    cs.x.zero();
    conv2d_backward_data(cs.y, cs.yo, cs.w, cs.x, cs.xo, cs.p, r,
                         cs.y.shape().h, cs.y.shape().w, ConvAlgo::kGemmStrips);
    expect_bitwise(cs.x, ref);
  }
}

TEST(ConvPlans, GemmStripsBackwardFilterBitwiseEqualsIm2col) {
  Case cs = make_case(2, 64, 32, kStripsH, kStripsW, 1, 1, 17);
  Rng rng(19);
  cs.y.fill_uniform(rng);  // dy
  for (const Range2& r : ranges_of(cs)) {
    Tensor<float> dw_ref(cs.w.shape());
    conv2d_backward_filter(cs.x, cs.xo, cs.y, cs.yo, dw_ref, cs.p, r,
                           /*accumulate=*/false, ConvAlgo::kIm2col);

    Tensor<float> dw(cs.w.shape());
    conv2d_backward_filter(cs.x, cs.xo, cs.y, cs.yo, dw, cs.p, r,
                           /*accumulate=*/false, ConvAlgo::kGemmStrips);
    expect_bitwise(dw, dw_ref);
  }
}

TEST(ConvPlans, WinogradWithinToleranceOfDirect) {
  // Odd extents: the 13×13 output needs a phantom tile row and column, and
  // the offset sub-range lands tiles on every edge flavour.
  Case cs = make_case(2, 32, 16, 13, 13, /*k=*/3, /*s=*/1, 29);
  const Range2 full{0, 13, 0, 13};
  Range2 inner{1, 12, 3, 10};
  for (const Range2& r : {full, inner}) {
    cs.y.zero();
    conv2d_forward(cs.x, cs.xo, cs.w, cs.y, cs.yo, cs.p, r, ConvAlgo::kDirect);
    Tensor<float> ref(cs.y.shape());
    std::memcpy(ref.data(), cs.y.data(),
                static_cast<std::size_t>(cs.y.size()) * sizeof(float));

    cs.y.zero();
    conv2d_forward_winograd(cs.x, cs.xo, cs.w, cs.y, cs.yo, cs.p, r);
    for (std::int64_t i = 0; i < cs.y.size(); ++i) {
      EXPECT_NEAR(cs.y.data()[i], ref.data()[i], 2e-3f) << "element " << i;
    }
  }
}

TEST(ConvPlans, AlgoOverrideWinsWhenApplicable) {
  // DC_CONV_ALGO's programmatic twin: the forced family takes every shape
  // it can execute; inapplicable shapes keep the rule's algorithm.
  Case one = make_case(1, 64, 32, 8, 8, 1, 1, 31);
  Case three = make_case(1, 8, 8, 8, 8, 3, 1, 37);
  const Range2 r1{0, one.y.shape().h, 0, one.y.shape().w};
  const Range2 r3{0, three.y.shape().h, 0, three.y.shape().w};

  set_conv_algo_override(ConvAlgo::kDirect);
  one.y.zero();
  conv2d_forward(one.x, one.xo, one.w, one.y, one.yo, one.p, r1);
  Tensor<float> forced(one.y.shape());
  std::memcpy(forced.data(), one.y.data(),
              static_cast<std::size_t>(one.y.size()) * sizeof(float));
  set_conv_algo_override(ConvAlgo::kAuto);

  one.y.zero();
  conv2d_forward(one.x, one.xo, one.w, one.y, one.yo, one.p, r1,
                 ConvAlgo::kDirect);
  expect_bitwise(one.y, forced);  // the override really ran direct

  // Forcing gemm-strips cannot apply to a 3×3 layer: it must still run
  // (via the rule's family), not die.
  set_conv_algo_override(ConvAlgo::kGemmStrips);
  three.y.zero();
  conv2d_forward(three.x, three.xo, three.w, three.y, three.yo, three.p, r3);
  set_conv_algo_override(ConvAlgo::kAuto);
  SUCCEED();
}

}  // namespace
}  // namespace distconv::kernels
