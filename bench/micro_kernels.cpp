// google-benchmark microbenchmarks for the local compute kernels — the
// algorithm-selection study behind the paper's reliance on cuDNN autotuning
// (direct vs im2col+GEMM, forward vs backward passes), on shrunken versions
// of the Fig. 2/3 layer geometries.
//
// Items processed are FLOP counts (2·N·F·H̃·W̃·C·Kh·Kw per conv pass), so
// items_per_second reads directly as FLOP/s. The *_threads variants sweep
// the intra-rank pool budget to expose kernel strong-scaling.
#include <benchmark/benchmark.h>

#include "bench/kernel_shapes.hpp"
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
using bench::params_of;

/// Pin the pool budget from a benchmark Arg (0 keeps automatic sizing).
struct ThreadArg {
  explicit ThreadArg(benchmark::State& state) {
    parallel::set_num_threads(static_cast<int>(state.range(0)));
  }
  ~ThreadArg() { parallel::set_num_threads(0); }
};

void bench_forward(benchmark::State& state, const LayerArgs& a, ConvAlgo algo) {
  const ConvParams p = params_of(a);
  Tensor<float> x(Shape4{a.n, a.c, a.h + 2 * p.ph, a.w + 2 * p.pw});
  Tensor<float> w(Shape4{a.f, a.c, a.k, a.k});
  Tensor<float> y(Shape4{a.n, a.f, p.out_h(a.h), p.out_w(a.w)});
  Rng rng(5);
  x.fill_uniform(rng);
  w.fill_uniform(rng);
  const Range2 full{0, y.shape().h, 0, y.shape().w};
  for (auto _ : state) {
    conv2d_forward(x, Origin2{-p.ph, -p.pw}, w, y, Origin2{0, 0}, p, full, algo);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() *
                                                    conv_flops(a)));
}

void bench_forward_threads(benchmark::State& state, const LayerArgs& a,
                           ConvAlgo algo) {
  ThreadArg threads(state);
  bench_forward(state, a, algo);
}

void bench_backward_data(benchmark::State& state, const LayerArgs& a,
                         ConvAlgo algo) {
  const ConvParams p = params_of(a);
  Tensor<float> dy(Shape4{a.n, a.f, p.out_h(a.h), p.out_w(a.w)});
  Tensor<float> w(Shape4{a.f, a.c, a.k, a.k});
  Tensor<float> dx(Shape4{a.n, a.c, a.h, a.w});
  Rng rng(6);
  dy.fill_uniform(rng);
  w.fill_uniform(rng);
  for (auto _ : state) {
    conv2d_backward_data(dy, Origin2{0, 0}, w, dx, Origin2{0, 0}, p,
                         Range2{0, a.h, 0, a.w}, dy.shape().h, dy.shape().w,
                         algo);
    benchmark::DoNotOptimize(dx.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() *
                                                    conv_flops(a)));
}

void bench_backward_filter(benchmark::State& state, const LayerArgs& a,
                           ConvAlgo algo) {
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
                           full, false, algo);
    benchmark::DoNotOptimize(dw.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() *
                                                    conv_flops(a)));
}

void bench_pool(benchmark::State& state, PoolMode mode) {
  PoolParams p{3, 3, 2, 2, 1, 1, mode};
  Tensor<float> x(Shape4{4, 64, 58, 58});
  Tensor<float> y(Shape4{4, 64, 28, 28});
  Tensor<std::int64_t> am(y.shape());
  Rng rng(8);
  x.fill_uniform(rng);
  for (auto _ : state) {
    pool2d_forward(x, Origin2{-1, -1}, y, Origin2{0, 0},
                   mode == PoolMode::kMax ? &am : nullptr, Origin2{0, 0}, p,
                   Range2{0, 28, 0, 28}, 56, 56);
    benchmark::DoNotOptimize(y.data());
  }
  // One comparison/add per window element.
  state.SetItemsProcessed(state.iterations() * y.size() * p.kh * p.kw);
}

// ---------------------------------------------------------------------------
// GEMM: the im2col contraction shapes of the paper's layer geometries
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

BENCHMARK_CAPTURE(bench_forward, conv1_direct, kConv1, ConvAlgo::kDirect);
BENCHMARK_CAPTURE(bench_forward, conv1_im2col, kConv1, ConvAlgo::kIm2col);
BENCHMARK_CAPTURE(bench_forward, res3b_direct, kRes3b, ConvAlgo::kDirect);
BENCHMARK_CAPTURE(bench_forward, res3b_im2col, kRes3b, ConvAlgo::kIm2col);
// kAuto's pack-free GEMM family (1×1/s1 layers): im2col minus the pack.
BENCHMARK_CAPTURE(bench_forward, res3b_gemm_strips, kRes3b,
                  ConvAlgo::kGemmStrips);
// Winograd F(2×2,3×3) vs the GEMM lowering on the 3×3 residual layer.
BENCHMARK_CAPTURE(bench_forward, res3b_3x3_im2col, kRes3x3, ConvAlgo::kIm2col);
BENCHMARK_CAPTURE(bench_forward, res3b_3x3_winograd, kRes3x3,
                  ConvAlgo::kWinograd);
BENCHMARK_CAPTURE(bench_forward, mesh_conv1_1_direct, kMesh11, ConvAlgo::kDirect);
BENCHMARK_CAPTURE(bench_forward, mesh_conv1_1_im2col, kMesh11, ConvAlgo::kIm2col);
BENCHMARK_CAPTURE(bench_forward, mesh_conv6_1_direct, kMesh61, ConvAlgo::kDirect);
BENCHMARK_CAPTURE(bench_forward, mesh_conv6_1_im2col, kMesh61, ConvAlgo::kIm2col);
BENCHMARK_CAPTURE(bench_forward_threads, res3b_im2col, kRes3b, ConvAlgo::kIm2col)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8);
BENCHMARK_CAPTURE(bench_backward_data, res3b_direct, kRes3b, ConvAlgo::kDirect);
BENCHMARK_CAPTURE(bench_backward_data, res3b_gemm, kRes3b, ConvAlgo::kIm2col);
BENCHMARK_CAPTURE(bench_backward_data, res3b_gemm_strips, kRes3b,
                  ConvAlgo::kGemmStrips);
BENCHMARK_CAPTURE(bench_backward_data, mesh_conv6_1_direct, kMesh61,
                  ConvAlgo::kDirect);
BENCHMARK_CAPTURE(bench_backward_data, mesh_conv6_1_gemm, kMesh61,
                  ConvAlgo::kIm2col);
BENCHMARK_CAPTURE(bench_backward_filter, res3b_direct, kRes3b, ConvAlgo::kDirect);
BENCHMARK_CAPTURE(bench_backward_filter, res3b_gemm, kRes3b, ConvAlgo::kIm2col);
BENCHMARK_CAPTURE(bench_backward_filter, res3b_gemm_strips, kRes3b,
                  ConvAlgo::kGemmStrips);
BENCHMARK_CAPTURE(bench_backward_filter, mesh_conv6_1_direct, kMesh61,
                  ConvAlgo::kDirect);
BENCHMARK_CAPTURE(bench_backward_filter, mesh_conv6_1_gemm, kMesh61,
                  ConvAlgo::kIm2col);
BENCHMARK_CAPTURE(bench_pool, max, distconv::kernels::PoolMode::kMax);
BENCHMARK_CAPTURE(bench_pool, average, distconv::kernels::PoolMode::kAverage);
BENCHMARK_CAPTURE(bench_gemm, conv1, kConv1);
BENCHMARK_CAPTURE(bench_gemm, res3b, kRes3b);
BENCHMARK_CAPTURE(bench_gemm, mesh_conv1_1, kMesh11);
BENCHMARK_CAPTURE(bench_gemm, mesh_conv6_1, kMesh61);
// FC forward: y (N × F) = x (N × D) · Wᵀ, N=32, D=2048, F=1000.
BENCHMARK_CAPTURE(bench_gemm_shape, fc1000, 32, 1000, 2048);
BENCHMARK_CAPTURE(bench_gemm_threads, res3b, kRes3b)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

BENCHMARK_MAIN();
