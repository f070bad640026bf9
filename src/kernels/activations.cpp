#include "kernels/activations.hpp"

#include "support/error.hpp"
#include "support/parallel.hpp"

namespace distconv::kernels {
namespace {

void check_boxes(const Box4& a, const Box4& b) {
  for (int d = 0; d < 4; ++d) {
    DC_REQUIRE(a.ext[d] == b.ext[d], "box extents differ in dim ", d);
  }
}

}  // namespace

void relu_forward(const Tensor<float>& x, const Box4& xbox, Tensor<float>& y,
                  const Box4& ybox) {
  check_boxes(xbox, ybox);
  for_each_run(xbox, box_ref(x, xbox), box_ref(y, ybox),
               [](const float* xr, float* yr, std::int64_t len) {
                 for (std::int64_t i = 0; i < len; ++i) {
                   yr[i] = xr[i] > 0.0f ? xr[i] : 0.0f;
                 }
               });
}

void relu_backward(const Tensor<float>& x, const Box4& xbox,
                   const Tensor<float>& dy, const Box4& dybox, Tensor<float>& dx,
                   const Box4& dxbox) {
  check_boxes(xbox, dybox);
  check_boxes(xbox, dxbox);
  for_each_run(xbox, box_ref(x, xbox), box_ref(dy, dybox), box_ref(dx, dxbox),
               [](const float* xr, const float* gr, float* dr, std::int64_t len) {
                 for (std::int64_t i = 0; i < len; ++i) {
                   dr[i] = xr[i] > 0.0f ? gr[i] : 0.0f;
                 }
               });
}

void add_inplace(Tensor<float>& dst, const Box4& dbox, const Tensor<float>& src,
                 const Box4& sbox) {
  check_boxes(dbox, sbox);
  for_each_run(dbox, box_ref(dst, dbox), box_ref(src, sbox),
               [](float* dr, const float* sr, std::int64_t len) {
                 for (std::int64_t i = 0; i < len; ++i) dr[i] += sr[i];
               });
}

void bias_forward(Tensor<float>& y, const Box4& ybox, const float* bias) {
  for_each_channel_run(ybox, box_ref(y, ybox),
                       [bias](std::int64_t c, float* yr, std::int64_t len) {
                         const float b = bias[c];
                         for (std::int64_t i = 0; i < len; ++i) yr[i] += b;
                       });
}

void bias_backward(const Tensor<float>& dy, const Box4& dybox, float* dbias,
                   bool accumulate) {
  if (!accumulate) std::fill(dbias, dbias + dybox.ext[1], 0.0f);
  const auto& dyst = dy.strides();
  // Channel-major reduction: each channel's (n, h, w) sum is one task, so
  // the per-channel accumulation chain is fixed for any thread budget.
  parallel::parallel_for(0, dybox.ext[1], 1, [&](std::int64_t c0, std::int64_t c1) {
    for (std::int64_t c = c0; c < c1; ++c) {
      for (std::int64_t n = 0; n < dybox.ext[0]; ++n) {
        for (std::int64_t h = 0; h < dybox.ext[2]; ++h) {
          const float* gr =
              dy.data() + dyst.offset(dybox.off[0] + n, dybox.off[1] + c,
                                      dybox.off[2] + h, dybox.off[3]);
          float acc = 0.0f;
          for (std::int64_t w = 0; w < dybox.ext[3]; ++w) acc += gr[w];
          dbias[c] += acc;
        }
      }
    }
  });
}

void copy_region(const Tensor<float>& src, const Box4& sbox, Tensor<float>& dst,
                 const Box4& dbox) {
  copy_box(src, sbox, dst, dbox);
}

}  // namespace distconv::kernels
