// The shared conv-layer geometries and timing helpers of the kernel
// harnesses: micro_kernels (google-benchmark sweeps), calibrate_kernels
// (the DC_KERNEL_CALIBRATION table writer) and ablation_channel_parallel
// all measure these same shapes, so they live in one place — the
// calibration table stays in sync with the benchmark it mirrors.
//
// Shapes are scaled-down versions of conv1 (ResNet), res3b_branch2a, mesh
// conv1_1 and conv6_1: same channel/kernel structure, reduced spatial
// extents so a CPU iteration stays in the microsecond-to-millisecond range.
#pragma once

#include <chrono>
#include <cstdint>

#include "kernels/conv.hpp"

namespace distconv::bench {

struct LayerArgs {
  const char* name;
  std::int64_t n, c, h, w, f;
  int k, s;
};

inline constexpr LayerArgs kConv1{"conv1", 1, 3, 112, 112, 64, 7, 2};
inline constexpr LayerArgs kRes3b{"res3b", 4, 512, 28, 28, 128, 1, 1};
inline constexpr LayerArgs kMesh11{"mesh_conv1_1", 1, 18, 256, 256, 32, 5, 2};
inline constexpr LayerArgs kMesh61{"mesh_conv6_1", 1, 96, 64, 64, 32, 3, 2};
/// res3b_branch2b: the 3×3 stride-1 body of the same block — the
/// winograd-eligible geometry.
inline constexpr LayerArgs kRes3x3{"res3b_3x3", 4, 128, 28, 28, 128, 3, 1};

/// The geometries the calibration table aggregates over.
inline constexpr LayerArgs kKernelShapes[] = {kConv1, kRes3b, kMesh11, kMesh61};

inline kernels::ConvParams params_of(const LayerArgs& a) {
  return kernels::ConvParams{a.k, a.k, a.s, a.s, a.k / 2, a.k / 2};
}

/// Multiply-add count of one convolution pass (fwd, bwd-data and bwd-filter
/// all contract the same index space).
inline double conv_flops(const LayerArgs& a) {
  const kernels::ConvParams p = params_of(a);
  return 2.0 * a.n * a.f * double(p.out_h(a.h)) * p.out_w(a.w) * a.c * a.k * a.k;
}

/// Average wall time of fn() over `reps` runs after `warmup` runs.
template <typename Fn>
double time_average(Fn&& fn, int warmup = 3, int reps = 10) {
  using Clock = std::chrono::steady_clock;
  for (int i = 0; i < warmup; ++i) fn();
  const auto start = Clock::now();
  for (int i = 0; i < reps; ++i) fn();
  return std::chrono::duration<double>(Clock::now() - start).count() / reps;
}

}  // namespace distconv::bench
