// Tensor<T>: an owning, contiguous NCHW tensor, plus the contiguous-run
// walker over strided boxes that the element-wise kernels and the box copy
// helpers (halo packing, redistribution) run on.
#pragma once

#include <algorithm>
#include <cstring>
#include <tuple>
#include <utility>
#include <vector>

#include "support/error.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "tensor/shape.hpp"

namespace distconv {

template <typename T>
class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(const Shape4& shape)
      : shape_(shape), strides_(Strides4::contiguous(shape)),
        data_(static_cast<std::size_t>(shape.size()), T{}) {}

  const Shape4& shape() const { return shape_; }
  const Strides4& strides() const { return strides_; }
  std::int64_t size() const { return shape_.size(); }
  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }
  bool empty() const { return data_.empty(); }

  T& operator()(std::int64_t n, std::int64_t c, std::int64_t h, std::int64_t w) {
    return data_[strides_.offset(n, c, h, w)];
  }
  const T& operator()(std::int64_t n, std::int64_t c, std::int64_t h,
                      std::int64_t w) const {
    return data_[strides_.offset(n, c, h, w)];
  }

  /// Bounds-checked access (tests and debugging).
  T& at(std::int64_t n, std::int64_t c, std::int64_t h, std::int64_t w) {
    DC_REQUIRE(n >= 0 && n < shape_.n && c >= 0 && c < shape_.c && h >= 0 &&
                   h < shape_.h && w >= 0 && w < shape_.w,
               "index (", n, ",", c, ",", h, ",", w, ") out of range for ",
               shape_.str());
    return (*this)(n, c, h, w);
  }

  void fill(T value) { std::fill(data_.begin(), data_.end(), value); }
  void zero() { fill(T{}); }

  /// Fill with uniform values in [lo, hi) from the given deterministic RNG.
  void fill_uniform(Rng& rng, T lo = T(-1), T hi = T(1)) {
    for (auto& v : data_) v = static_cast<T>(rng.uniform(double(lo), double(hi)));
  }

  /// Fill with N(mean, stddev) values.
  void fill_normal(Rng& rng, T mean = T(0), T stddev = T(1)) {
    for (auto& v : data_) v = static_cast<T>(rng.normal(double(mean), double(stddev)));
  }

 private:
  Shape4 shape_{0, 0, 0, 0};
  Strides4 strides_;
  std::vector<T> data_;
};

// ---------------------------------------------------------------------------
// Contiguous-run walker: the one loop every element-wise kernel and box copy
// runs on.
// ---------------------------------------------------------------------------

/// One operand of for_each_run: the first element of a box inside a strided
/// NCHW buffer whose w stride is 1.
template <typename T>
struct BoxRef {
  T* origin;
  std::int64_t stride[3];  ///< n, c, h strides of the buffer
};

/// A box of a tensor.
template <typename T>
BoxRef<T> box_ref(Tensor<T>& t, const Box4& b) {
  const Strides4& st = t.strides();
  return {t.data() + st.offset(b.off[0], b.off[1], b.off[2], b.off[3]),
          {st.n, st.c, st.h}};
}

template <typename T>
BoxRef<const T> box_ref(const Tensor<T>& t, const Box4& b) {
  const Strides4& st = t.strides();
  return {t.data() + st.offset(b.off[0], b.off[1], b.off[2], b.off[3]),
          {st.n, st.c, st.h}};
}

/// A buffer holding exactly the box, in canonical NCHW order (pack/unpack
/// staging).
template <typename T>
BoxRef<T> dense_ref(T* p, const Box4& b) {
  return {p, {b.ext[1] * b.ext[2] * b.ext[3], b.ext[2] * b.ext[3], b.ext[3]}};
}

namespace internal {

/// Minimum elements per pool chunk of a run walk.
inline constexpr std::int64_t kRunGrain = 1 << 14;

/// Walks the box extents in maximal contiguous runs. The run starts as one
/// w row; dim d joins it while every operand's stride of d equals the run
/// length so far (the box spans every dim below d in full in every
/// operand), and never for d < Keep. fn(c, ptrs..., len) receives the
/// box-relative channel of the run (meaningful only for Keep == 2), one
/// pointer per operand and the run length. Elements are independent, so the
/// pool splits the walk at any element.
template <int Keep, typename Fn, typename Ops, std::size_t... I>
void walk_runs(const Box4& box, const Fn& fn, const Ops& ops,
               std::index_sequence<I...>) {
  if (box.volume() <= 0) return;
  const std::int64_t* ext = box.ext;
  int k = 3;  // dims [0, k) index the runs, dims [k, 4) lie inside one
  std::int64_t run = ext[3];
  while (k > Keep &&
         (ext[k - 1] == 1 || ((std::get<I>(ops).stride[k - 1] == run) && ...))) {
    --k;
    run *= ext[k];
  }
  std::int64_t runs = 1;
  for (int d = 0; d < k; ++d) runs *= ext[d];
  parallel::parallel_for(0, runs * run, kRunGrain, [&](std::int64_t e0, std::int64_t e1) {
    std::int64_t idx[3] = {0, 0, 0};  // merged dims stay 0
    std::int64_t r = e0 / run, o = e0 % run;
    for (int d = k - 1; d >= 0; --d) {
      idx[d] = r % ext[d];
      r /= ext[d];
    }
    for (std::int64_t e = e0; e < e1;) {
      const std::int64_t len = std::min(run - o, e1 - e);
      fn(idx[1],
         (std::get<I>(ops).origin + idx[0] * std::get<I>(ops).stride[0] +
          idx[1] * std::get<I>(ops).stride[1] +
          idx[2] * std::get<I>(ops).stride[2] + o)...,
         len);
      e += len;
      o = 0;
      for (int d = k - 1; d >= 0; --d) {
        if (++idx[d] < ext[d]) break;
        idx[d] = 0;
      }
    }
  });
}

}  // namespace internal

/// for_each_run(box, operands..., fn): call fn(ptrs..., len) over `box` in
/// contiguous runs, one pointer per operand (BoxRef, each over a box with
/// box's extents). Runs merge trailing dims across rows, channels and
/// samples wherever every operand is dense there, so a margin-free tensor is
/// one run split only by the pool.
template <typename... Args>
void for_each_run(const Box4& box, Args&&... args) {
  constexpr std::size_t K = sizeof...(Args) - 1;
  const auto all = std::forward_as_tuple(args...);
  const auto& fn = std::get<K>(all);
  internal::walk_runs<0>(
      box, [&](std::int64_t, auto... run) { fn(run...); }, all,
      std::make_index_sequence<K>{});
}

/// for_each_channel_run(box, operands..., fn): as for_each_run, but runs
/// never cross a channel boundary and fn(c, ptrs..., len) also receives the
/// run's box-relative channel (per-channel kernels).
template <typename... Args>
void for_each_channel_run(const Box4& box, Args&&... args) {
  constexpr std::size_t K = sizeof...(Args) - 1;
  const auto all = std::forward_as_tuple(args...);
  internal::walk_runs<2>(box, std::get<K>(all), all,
                         std::make_index_sequence<K>{});
}

// ---------------------------------------------------------------------------
// Box copy helpers (canonical NCHW element order within the box).
// ---------------------------------------------------------------------------

/// Copy a box out of `src` into contiguous `dst` (dst holds box.volume()
/// elements, canonical order).
template <typename T>
void pack_box(const Tensor<T>& src, const Box4& box, T* dst) {
  for_each_run(box, box_ref(src, box), dense_ref(dst, box),
               [](const T* s, T* d, std::int64_t len) {
                 std::memcpy(d, s, sizeof(T) * len);
               });
}

/// Copy contiguous `src` (canonical order) into a box of `dst`.
template <typename T>
void unpack_box(const T* src, const Box4& box, Tensor<T>& dst) {
  for_each_run(box, dense_ref(src, box), box_ref(dst, box),
               [](const T* s, T* d, std::int64_t len) {
                 std::memcpy(d, s, sizeof(T) * len);
               });
}

/// Add contiguous `src` (canonical order) into a box of `dst` (halo
/// accumulation).
template <typename T>
void unpack_box_accumulate(const T* src, const Box4& box, Tensor<T>& dst) {
  for_each_run(box, dense_ref(src, box), box_ref(dst, box),
               [](const T* s, T* d, std::int64_t len) {
                 for (std::int64_t i = 0; i < len; ++i) d[i] += s[i];
               });
}

/// Direct tensor-to-tensor box copy (boxes must have equal extents).
template <typename T>
void copy_box(const Tensor<T>& src, const Box4& src_box, Tensor<T>& dst,
              const Box4& dst_box) {
  for (int d = 0; d < 4; ++d) {
    DC_REQUIRE(src_box.ext[d] == dst_box.ext[d], "box extent mismatch in dim ", d);
  }
  for_each_run(src_box, box_ref(src, src_box), box_ref(dst, dst_box),
               [](const T* s, T* d, std::int64_t len) {
                 std::memcpy(d, s, sizeof(T) * len);
               });
}

}  // namespace distconv
