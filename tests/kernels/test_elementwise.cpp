// The contiguous-run walker (tensor/tensor.hpp) against scalar 4-D
// references: every element-wise kernel and box copy built on it must be
// bitwise equal to a plain (n, c, h, w) loop, whatever the operands' layouts
// and the thread budget. Operand layouts mix dense tensors, interiors of
// tensors with h/w margins and offset sub-boxes, so a run merged across a
// dim that one operand does not span in full shows up as a mismatch.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "kernels/activations.hpp"
#include "tests/support/thread_guard.hpp"

namespace distconv::kernels {
namespace {

/// Where an operand's box sits in its tensor: the tensor is the box extents
/// plus `pad` in each dim, the box starts at `off`.
struct Layout {
  const char* name;
  std::int64_t pad[4];
  std::int64_t off[4];
};

const Layout kLayouts[] = {
    {"dense", {0, 0, 0, 0}, {0, 0, 0, 0}},
    {"hw_margins", {0, 0, 2, 3}, {0, 0, 1, 2}},
    {"h_margins", {0, 0, 2, 0}, {0, 0, 1, 0}},  // rows merge, planes do not
    {"c_offset", {0, 2, 0, 0}, {0, 1, 0, 0}},   // planes merge, samples do not
    {"n_offset", {1, 0, 0, 0}, {1, 0, 0, 0}},   // samples merge
    {"sub_box", {2, 3, 4, 5}, {1, 2, 3, 1}},
};
constexpr int kNumLayouts = sizeof(kLayouts) / sizeof(kLayouts[0]);

/// Box extents: one walk that fits a single pool chunk, one that spans
/// several (chunks then start mid-run).
const Shape4 kExtents[] = {Shape4{3, 5, 4, 7}, Shape4{2, 6, 40, 50}};

struct Operand {
  Tensor<float> t;
  Box4 box;
};

Operand make_operand(const Shape4& ext, const Layout& l, std::uint64_t seed) {
  Operand op;
  op.t = Tensor<float>(Shape4{ext.n + l.pad[0], ext.c + l.pad[1], ext.h + l.pad[2],
                              ext.w + l.pad[3]});
  Rng rng(seed);
  op.t.fill_uniform(rng, -1.0f, 1.0f);
  // Exact zeros exercise ReLU's x > 0 edge.
  for (std::int64_t i = 0; i < op.t.size(); i += 7) op.t.data()[i] = 0.0f;
  for (int d = 0; d < 4; ++d) {
    op.box.off[d] = l.off[d];
    op.box.ext[d] = ext[d];
  }
  return op;
}

/// fn(n, c, h, w) over the box extents in canonical order.
template <typename Fn>
void for_each_index(const Box4& box, Fn&& fn) {
  for (std::int64_t n = 0; n < box.ext[0]; ++n)
    for (std::int64_t c = 0; c < box.ext[1]; ++c)
      for (std::int64_t h = 0; h < box.ext[2]; ++h)
        for (std::int64_t w = 0; w < box.ext[3]; ++w) fn(n, c, h, w);
}

float& at(Operand& op, std::int64_t n, std::int64_t c, std::int64_t h,
          std::int64_t w) {
  return op.t(op.box.off[0] + n, op.box.off[1] + c, op.box.off[2] + h,
              op.box.off[3] + w);
}

template <typename T>
bool bitwise_equal(const Tensor<T>& a, const Tensor<T>& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), sizeof(T) * a.size()) == 0;
}

/// Run body(layouts, extents) for every assignment of layouts to `k`
/// operands, both extents and thread budgets 1 and 8.
void sweep(int k, const std::function<void(const std::vector<const Layout*>&,
                                           const Shape4&)>& body) {
  for (const int threads : {1, 8}) {
    parallel::ThreadGuard guard(threads);
    for (const Shape4& ext : kExtents) {
      std::vector<int> pick(k, 0);
      for (;;) {
        std::vector<const Layout*> layouts;
        std::string name = "threads=" + std::to_string(threads) + " ext=" + ext.str();
        for (int i : pick) {
          layouts.push_back(&kLayouts[i]);
          name += std::string(" ") + kLayouts[i].name;
        }
        SCOPED_TRACE(name);
        body(layouts, ext);
        int i = 0;
        while (i < k && ++pick[i] == kNumLayouts) pick[i++] = 0;
        if (i == k) break;
      }
    }
  }
}

TEST(RunWalker, ReluForwardMatchesScalarReference) {
  sweep(2, [](const std::vector<const Layout*>& l, const Shape4& ext) {
    Operand x = make_operand(ext, *l[0], 1);
    Operand y = make_operand(ext, *l[1], 2);
    Operand ref = y;
    relu_forward(x.t, x.box, y.t, y.box);
    for_each_index(x.box, [&](auto n, auto c, auto h, auto w) {
      const float v = at(x, n, c, h, w);
      at(ref, n, c, h, w) = v > 0.0f ? v : 0.0f;
    });
    EXPECT_TRUE(bitwise_equal(y.t, ref.t));
  });
}

TEST(RunWalker, ReluBackwardMatchesScalarReference) {
  sweep(3, [](const std::vector<const Layout*>& l, const Shape4& ext) {
    Operand x = make_operand(ext, *l[0], 3);
    Operand dy = make_operand(ext, *l[1], 4);
    Operand dx = make_operand(ext, *l[2], 5);
    Operand ref = dx;
    relu_backward(x.t, x.box, dy.t, dy.box, dx.t, dx.box);
    for_each_index(x.box, [&](auto n, auto c, auto h, auto w) {
      at(ref, n, c, h, w) = at(x, n, c, h, w) > 0.0f ? at(dy, n, c, h, w) : 0.0f;
    });
    EXPECT_TRUE(bitwise_equal(dx.t, ref.t));
  });
}

TEST(RunWalker, AddInplaceMatchesScalarReference) {
  sweep(2, [](const std::vector<const Layout*>& l, const Shape4& ext) {
    Operand dst = make_operand(ext, *l[0], 6);
    Operand src = make_operand(ext, *l[1], 7);
    Operand ref = dst;
    add_inplace(dst.t, dst.box, src.t, src.box);
    for_each_index(dst.box, [&](auto n, auto c, auto h, auto w) {
      at(ref, n, c, h, w) += at(src, n, c, h, w);
    });
    EXPECT_TRUE(bitwise_equal(dst.t, ref.t));
  });
}

TEST(RunWalker, BiasForwardMatchesScalarReference) {
  sweep(1, [](const std::vector<const Layout*>& l, const Shape4& ext) {
    Operand y = make_operand(ext, *l[0], 8);
    std::vector<float> bias(ext.c);
    Rng rng(9);
    for (auto& b : bias) b = float(rng.uniform(-1, 1));
    Operand ref = y;
    bias_forward(y.t, y.box, bias.data());
    for_each_index(y.box, [&](auto n, auto c, auto h, auto w) {
      at(ref, n, c, h, w) += bias[c];
    });
    EXPECT_TRUE(bitwise_equal(y.t, ref.t));
  });
}

TEST(RunWalker, CopyBoxMatchesScalarReference) {
  sweep(2, [](const std::vector<const Layout*>& l, const Shape4& ext) {
    Operand src = make_operand(ext, *l[0], 10);
    Operand dst = make_operand(ext, *l[1], 11);
    Operand ref = dst;
    copy_box(src.t, src.box, dst.t, dst.box);
    for_each_index(src.box, [&](auto n, auto c, auto h, auto w) {
      at(ref, n, c, h, w) = at(src, n, c, h, w);
    });
    EXPECT_TRUE(bitwise_equal(dst.t, ref.t));
  });
}

TEST(RunWalker, PackAndUnpackMatchScalarReference) {
  sweep(1, [](const std::vector<const Layout*>& l, const Shape4& ext) {
    Operand src = make_operand(ext, *l[0], 12);
    const Box4& box = src.box;

    std::vector<float> packed(box.volume(), -7.0f), packed_ref(box.volume());
    pack_box(src.t, box, packed.data());
    std::int64_t i = 0;
    for_each_index(box, [&](auto n, auto c, auto h, auto w) {
      packed_ref[i++] = at(src, n, c, h, w);
    });
    EXPECT_EQ(std::memcmp(packed.data(), packed_ref.data(),
                          sizeof(float) * packed.size()),
              0);

    Operand dst = make_operand(ext, *l[0], 13);
    Operand ref = dst;
    unpack_box(packed_ref.data(), box, dst.t);
    i = 0;
    for_each_index(box, [&](auto n, auto c, auto h, auto w) {
      at(ref, n, c, h, w) = packed_ref[i++];
    });
    EXPECT_TRUE(bitwise_equal(dst.t, ref.t));

    Operand acc = make_operand(ext, *l[0], 14);
    Operand acc_ref = acc;
    unpack_box_accumulate(packed_ref.data(), box, acc.t);
    i = 0;
    for_each_index(box, [&](auto n, auto c, auto h, auto w) {
      at(acc_ref, n, c, h, w) += packed_ref[i++];
    });
    EXPECT_TRUE(bitwise_equal(acc.t, acc_ref.t));
  });
}

TEST(RunWalker, EmptyBoxTouchesNothing) {
  Operand x = make_operand(Shape4{2, 3, 4, 5}, kLayouts[1], 15);
  Operand ref = x;
  Box4 empty = x.box;
  empty.ext[2] = 0;
  relu_forward(x.t, empty, x.t, empty);
  EXPECT_TRUE(bitwise_equal(x.t, ref.t));
}

}  // namespace
}  // namespace distconv::kernels
