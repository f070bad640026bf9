// google-benchmark microbenchmarks for the local compute kernels — the
// GEMM-backed convolution passes (forward, backward-data, backward-filter)
// and the raw GEMM, on shrunken versions of the Fig. 2/3 layer geometries,
// plus the non-conv layers (pooling, batchnorm, ReLU, residual add, box
// copy) on resnet_sample's per-rank shapes.
//
// Items processed are FLOP counts (2·N·F·H̃·W̃·C·Kh·Kw per conv pass), so
// items_per_second reads directly as FLOP/s; the non-conv captures count
// input elements instead. The *_threads variants sweep
// the intra-rank pool budget to expose kernel strong-scaling.
#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "bench/kernel_shapes.hpp"
#include "kernels/activations.hpp"
#include "kernels/batchnorm.hpp"
#include "kernels/conv.hpp"
#include "kernels/gemm.hpp"
#include "kernels/pooling.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace {

using namespace distconv;
using namespace distconv::kernels;

// Layer geometries and FLOP counts shared with calibrate_kernels, so the
// calibration table always times exactly these shapes.
using bench::LayerArgs;
using bench::conv_flops;
using bench::kConv1;
using bench::kMesh11;
using bench::kMesh61;
using bench::kRes3b;
using bench::kRes3x3;
using bench::kSmallPlane;
using bench::kSmallPlane3x3;
using bench::params_of;

/// Pin the pool budget from a benchmark Arg (0 keeps automatic sizing).
struct ThreadArg {
  explicit ThreadArg(benchmark::State& state) {
    parallel::set_num_threads(static_cast<int>(state.range(0)));
  }
  ~ThreadArg() { parallel::set_num_threads(0); }
};

void bench_forward(benchmark::State& state, const LayerArgs& a) {
  const ConvParams p = params_of(a);
  Tensor<float> x(Shape4{a.n, a.c, a.h + 2 * p.ph, a.w + 2 * p.pw});
  Tensor<float> w(Shape4{a.f, a.c, a.k, a.k});
  Tensor<float> y(Shape4{a.n, a.f, p.out_h(a.h), p.out_w(a.w)});
  Rng rng(5);
  x.fill_uniform(rng);
  w.fill_uniform(rng);
  const Range2 full{0, y.shape().h, 0, y.shape().w};
  for (auto _ : state) {
    conv2d_forward(x, Origin2{-p.ph, -p.pw}, w, y, Origin2{0, 0}, p, full);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() *
                                                    conv_flops(a)));
}

void bench_forward_threads(benchmark::State& state, const LayerArgs& a) {
  ThreadArg threads(state);
  bench_forward(state, a);
}

void bench_backward_data(benchmark::State& state, const LayerArgs& a) {
  const ConvParams p = params_of(a);
  Tensor<float> dy(Shape4{a.n, a.f, p.out_h(a.h), p.out_w(a.w)});
  Tensor<float> w(Shape4{a.f, a.c, a.k, a.k});
  Tensor<float> dx(Shape4{a.n, a.c, a.h, a.w});
  Rng rng(6);
  dy.fill_uniform(rng);
  w.fill_uniform(rng);
  for (auto _ : state) {
    conv2d_backward_data(dy, Origin2{0, 0}, w, dx, Origin2{0, 0}, p,
                         Range2{0, a.h, 0, a.w}, dy.shape().h, dy.shape().w);
    benchmark::DoNotOptimize(dx.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() *
                                                    conv_flops(a)));
}

void bench_backward_filter(benchmark::State& state, const LayerArgs& a) {
  const ConvParams p = params_of(a);
  Tensor<float> x(Shape4{a.n, a.c, a.h + 2 * p.ph, a.w + 2 * p.pw});
  Tensor<float> dy(Shape4{a.n, a.f, p.out_h(a.h), p.out_w(a.w)});
  Tensor<float> dw(Shape4{a.f, a.c, a.k, a.k});
  Rng rng(7);
  x.fill_uniform(rng);
  dy.fill_uniform(rng);
  const Range2 full{0, dy.shape().h, 0, dy.shape().w};
  for (auto _ : state) {
    conv2d_backward_filter(x, Origin2{-p.ph, -p.pw}, dy, Origin2{0, 0}, dw, p,
                           full, false);
    benchmark::DoNotOptimize(dw.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() *
                                                    conv_flops(a)));
}

// ---------------------------------------------------------------------------
// Non-conv layers on resnet_sample's per-rank shapes (8 samples): res2
// activations 8×32×16², res5 8×256×2², pool1 8×8×32² with 1-pixel margins.
// Items are elements of the layer input, so items_per_second reads as
// elements/s.
// ---------------------------------------------------------------------------

constexpr Shape4 kRes2Act{8, 32, 16, 16};
constexpr Shape4 kRes5Act{8, 256, 2, 2};

Box4 full_box(const Shape4& s) {
  Box4 b;
  for (int d = 0; d < 4; ++d) b.ext[d] = s[d];
  return b;
}

Tensor<float> random_tensor(const Shape4& s, std::uint64_t seed) {
  Tensor<float> t(s);
  Rng rng(seed);
  t.fill_uniform(rng);
  return t;
}

/// pool1: 3×3/2 pad-1 max/average pooling of an 8×8×32² input held with
/// 1-pixel margins, 16² outputs.
void bench_pool(benchmark::State& state, PoolMode mode) {
  PoolParams p{3, 3, 2, 2, 1, 1, mode};
  Tensor<float> x = random_tensor(Shape4{8, 8, 34, 34}, 8);
  Tensor<float> y(Shape4{8, 8, 16, 16});
  Tensor<std::int64_t> am(y.shape());
  for (auto _ : state) {
    pool2d_forward(x, Origin2{-1, -1}, y, Origin2{0, 0},
                   mode == PoolMode::kMax ? &am : nullptr, Origin2{0, 0}, p,
                   Range2{0, 16, 0, 16}, 32, 32);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 8 * 8 * 32 * 32);
}

/// pool1's backward: gather dx (8×8×32²) from dy and the argmax.
void bench_pool_backward(benchmark::State& state, PoolMode mode) {
  PoolParams p{3, 3, 2, 2, 1, 1, mode};
  Tensor<float> x = random_tensor(Shape4{8, 8, 34, 34}, 8);
  Tensor<float> y(Shape4{8, 8, 16, 16});
  Tensor<std::int64_t> am(y.shape());
  pool2d_forward(x, Origin2{-1, -1}, y, Origin2{0, 0}, &am, Origin2{0, 0}, p,
                 Range2{0, 16, 0, 16}, 32, 32);
  Tensor<float> dy = random_tensor(y.shape(), 9);
  Tensor<float> dx(Shape4{8, 8, 32, 32});
  for (auto _ : state) {
    pool2d_backward(dy, Origin2{0, 0}, mode == PoolMode::kMax ? &am : nullptr, dx,
                    Origin2{0, 0}, p, Range2{0, 32, 0, 32}, 16, 16, 32);
    benchmark::DoNotOptimize(dx.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * dx.size());
}

/// Per-channel statistics and coefficients of x, as the layer computes them.
struct BnStats {
  std::vector<float> mean, invstd, gamma, beta;
};

BnStats bn_stats(const Tensor<float>& x) {
  const std::int64_t C = x.shape().c;
  std::vector<double> sum(C), sumsq(C);
  bn_partial_sums(x, full_box(x.shape()), sum.data(), sumsq.data());
  const double count = double(x.shape().n) * x.shape().h * x.shape().w;
  BnStats st{std::vector<float>(C), std::vector<float>(C),
             std::vector<float>(C, 1.0f), std::vector<float>(C, 0.0f)};
  for (std::int64_t c = 0; c < C; ++c) {
    const double m = sum[c] / count;
    st.mean[c] = float(m);
    st.invstd[c] = float(1.0 / std::sqrt(sumsq[c] / count - m * m + 1e-5));
  }
  return st;
}

/// Training forward: per-channel sums, then the normalize-and-scale apply.
void bench_bn_forward(benchmark::State& state, Shape4 s) {
  const Tensor<float> x = random_tensor(s, 10);
  Tensor<float> y(s);
  const Box4 box = full_box(s);
  const BnStats st = bn_stats(x);
  std::vector<double> sum(s.c), sumsq(s.c);
  for (auto _ : state) {
    bn_partial_sums(x, box, sum.data(), sumsq.data());
    bn_forward_apply(x, box, y, box, st.mean.data(), st.invstd.data(),
                     st.gamma.data(), st.beta.data());
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * x.size());
}

/// Backward: the Σdy / Σdy·x̂ reduction, then the dx apply.
void bench_bn_backward(benchmark::State& state, Shape4 s) {
  const Tensor<float> x = random_tensor(s, 11);
  const Tensor<float> dy = random_tensor(s, 12);
  Tensor<float> dx(s);
  const Box4 box = full_box(s);
  const BnStats st = bn_stats(x);
  std::vector<double> sdy(s.c), sdyx(s.c);
  const double count = double(s.n) * s.h * s.w;
  for (auto _ : state) {
    bn_backward_reduce(x, box, dy, box, st.mean.data(), st.invstd.data(),
                       sdy.data(), sdyx.data());
    bn_backward_apply(x, box, dy, box, dx, box, st.mean.data(), st.invstd.data(),
                      st.gamma.data(), sdy.data(), sdyx.data(), count);
    benchmark::DoNotOptimize(dx.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * x.size());
}

void bench_relu_forward(benchmark::State& state, Shape4 s) {
  const Tensor<float> x = random_tensor(s, 13);
  Tensor<float> y(s);
  const Box4 box = full_box(s);
  for (auto _ : state) {
    relu_forward(x, box, y, box);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * x.size());
}

void bench_relu_backward(benchmark::State& state, Shape4 s) {
  const Tensor<float> x = random_tensor(s, 14);
  const Tensor<float> dy = random_tensor(s, 15);
  Tensor<float> dx(s);
  const Box4 box = full_box(s);
  for (auto _ : state) {
    relu_backward(x, box, dy, box, dx, box);
    benchmark::DoNotOptimize(dx.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * x.size());
}

/// The residual add: y += the shortcut branch.
void bench_add_inplace(benchmark::State& state, Shape4 s) {
  Tensor<float> y = random_tensor(s, 16);
  const Tensor<float> b = random_tensor(s, 17);
  const Box4 box = full_box(s);
  for (auto _ : state) {
    add_inplace(y, box, b, box);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * y.size());
}

/// A dense-to-dense box copy (the residual add's first operand, the add
/// backward's fan-out).
void bench_copy_box(benchmark::State& state, Shape4 s) {
  const Tensor<float> x = random_tensor(s, 18);
  Tensor<float> y(s);
  const Box4 box = full_box(s);
  for (auto _ : state) {
    copy_box(x, box, y, box);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * x.size());
}

// ---------------------------------------------------------------------------
// GEMM: the lowered contraction shapes of the paper's layer geometries
// (M = filters, N = output positions per sample, K = C·Kh·Kw), plus the
// model-parallel FC shape. items_per_second = FLOP/s.
// ---------------------------------------------------------------------------

void bench_gemm_shape(benchmark::State& state, std::int64_t m, std::int64_t n,
                      std::int64_t k) {
  std::vector<float> a(static_cast<std::size_t>(m) * k);
  std::vector<float> b(static_cast<std::size_t>(k) * n);
  std::vector<float> c(static_cast<std::size_t>(m) * n, 0.0f);
  Rng rng(9);
  for (auto& v : a) v = float(rng.uniform(-1, 1));
  for (auto& v : b) v = float(rng.uniform(-1, 1));
  for (auto _ : state) {
    sgemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f, c.data(),
          n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * 2.0 * m * n * k));
}

std::int64_t out_positions(const LayerArgs& a) {
  const ConvParams p = params_of(a);
  return p.out_h(a.h) * p.out_w(a.w);
}

void bench_gemm(benchmark::State& state, const LayerArgs& a) {
  bench_gemm_shape(state, a.f, out_positions(a), a.c * std::int64_t(a.k) * a.k);
}

void bench_gemm_threads(benchmark::State& state, const LayerArgs& a) {
  ThreadArg threads(state);
  bench_gemm(state, a);
}

}  // namespace

BENCHMARK_CAPTURE(bench_forward, conv1, kConv1);
BENCHMARK_CAPTURE(bench_forward, res3b, kRes3b);
BENCHMARK_CAPTURE(bench_forward, res3b_3x3, kRes3x3);
BENCHMARK_CAPTURE(bench_forward, mesh_conv1_1, kMesh11);
BENCHMARK_CAPTURE(bench_forward, mesh_conv6_1, kMesh61);
BENCHMARK_CAPTURE(bench_forward_threads, res3b, kRes3b)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8);
BENCHMARK_CAPTURE(bench_backward_data, res3b, kRes3b);
BENCHMARK_CAPTURE(bench_backward_data, mesh_conv6_1, kMesh61);
// Small plane (2² outputs per sample): all 8 samples' dy windows share one
// GEMM.
BENCHMARK_CAPTURE(bench_backward_data, small_plane_3x3, kSmallPlane3x3);
BENCHMARK_CAPTURE(bench_backward_filter, res3b, kRes3b);
BENCHMARK_CAPTURE(bench_backward_filter, mesh_conv1_1, kMesh11);
BENCHMARK_CAPTURE(bench_backward_filter, mesh_conv6_1, kMesh61);
// Small plane (2² outputs per sample): every k block is 4 long, so the
// accumulation of each block into dw dominates the GEMM.
BENCHMARK_CAPTURE(bench_backward_filter, small_plane, kSmallPlane);
BENCHMARK_CAPTURE(bench_pool, max, distconv::kernels::PoolMode::kMax);
BENCHMARK_CAPTURE(bench_pool, average, distconv::kernels::PoolMode::kAverage);
BENCHMARK_CAPTURE(bench_pool_backward, max, distconv::kernels::PoolMode::kMax);
BENCHMARK_CAPTURE(bench_bn_forward, res2, kRes2Act);
BENCHMARK_CAPTURE(bench_bn_forward, res5, kRes5Act);
BENCHMARK_CAPTURE(bench_bn_backward, res2, kRes2Act);
BENCHMARK_CAPTURE(bench_bn_backward, res5, kRes5Act);
BENCHMARK_CAPTURE(bench_relu_forward, res2, kRes2Act);
BENCHMARK_CAPTURE(bench_relu_forward, res5, kRes5Act);
BENCHMARK_CAPTURE(bench_relu_backward, res2, kRes2Act);
BENCHMARK_CAPTURE(bench_relu_backward, res5, kRes5Act);
BENCHMARK_CAPTURE(bench_add_inplace, res2, kRes2Act);
BENCHMARK_CAPTURE(bench_add_inplace, res5, kRes5Act);
BENCHMARK_CAPTURE(bench_copy_box, res2, kRes2Act);
BENCHMARK_CAPTURE(bench_copy_box, res5, kRes5Act);
BENCHMARK_CAPTURE(bench_gemm, conv1, kConv1);
BENCHMARK_CAPTURE(bench_gemm, res3b, kRes3b);
BENCHMARK_CAPTURE(bench_gemm, mesh_conv1_1, kMesh11);
BENCHMARK_CAPTURE(bench_gemm, mesh_conv6_1, kMesh61);
// FC forward: y (N × F) = x (N × D) · Wᵀ, N=32, D=2048, F=1000.
BENCHMARK_CAPTURE(bench_gemm_shape, fc1000, 32, 1000, 2048);
BENCHMARK_CAPTURE(bench_gemm_threads, res3b, kRes3b)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

BENCHMARK_MAIN();
