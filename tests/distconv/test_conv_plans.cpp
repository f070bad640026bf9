// GEMM-family exactness: every output element is computed from fixed
// operands in a fixed chain, so splitting a 1×1 stride-1 layer's range —
// which restarts the implicit GEMM's positions, tiles and strips
// mid-tensor — must not change a bit.
#include <gtest/gtest.h>

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

// 64 channels over 64-wide rows: a 1×1 strip holds 8192 positions, i.e.
// 128 rows, so 200 rows span two strips with a short last one.
constexpr std::int64_t kStripsH = 200, kStripsW = 64;

/// Offset sub-ranges of an h × w plane: they restart the position list and
/// the strip sequence mid-tensor.
std::vector<Range2> sub_ranges(std::int64_t h, std::int64_t w) {
  return {Range2{1, h, 1, w - 1}, Range2{0, 70, 0, w}, Range2{70, h, 2, w}};
}

/// y (or dx) over the full range vs the same kernel run range by range.
template <typename Run>
void expect_split_bitwise(Tensor<float>& out, std::int64_t h, std::int64_t w,
                          Run&& run) {
  out.zero();
  run(Range2{0, h, 0, w});
  Tensor<float> whole(out.shape());
  std::memcpy(whole.data(), out.data(),
              static_cast<std::size_t>(out.size()) * sizeof(float));
  for (const Range2& r : sub_ranges(h, w)) {
    out.zero();
    run(r);
    for (std::int64_t k = 0; k < out.shape().n; ++k) {
      for (std::int64_t c = 0; c < out.shape().c; ++c) {
        for (std::int64_t i = r.h0; i < r.h1; ++i) {
          for (std::int64_t j = r.w0; j < r.w1; ++j) {
            ASSERT_EQ(std::memcmp(&out(k, c, i, j), &whole(k, c, i, j),
                                  sizeof(float)),
                      0)
                << "(" << k << "," << c << "," << i << "," << j << ")";
          }
        }
      }
    }
  }
}

TEST(ConvPlans, GemmOneByOneForwardSplitRangesBitwise) {
  Case cs = make_case(2, 64, 32, kStripsH, kStripsW, /*k=*/1, /*s=*/1, 7);
  expect_split_bitwise(cs.y, kStripsH, kStripsW, [&](const Range2& r) {
    conv2d_forward(cs.x, cs.xo, cs.w, cs.y, cs.yo, cs.p, r);
  });
}

TEST(ConvPlans, GemmOneByOneBackwardDataSplitRangesBitwise) {
  Case cs = make_case(2, 64, 32, kStripsH, kStripsW, 1, 1, 11);
  Rng rng(13);
  cs.y.fill_uniform(rng);  // dy
  expect_split_bitwise(cs.x, kStripsH, kStripsW, [&](const Range2& r) {
    conv2d_backward_data(cs.y, cs.yo, cs.w, cs.x, cs.xo, cs.p, r,
                         cs.y.shape().h, cs.y.shape().w);
  });
}

}  // namespace
}  // namespace distconv::kernels
