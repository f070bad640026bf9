// Per-layer cost model — the FP_ℓ, BP_ℓ^x, BP_ℓ^w, BP_ℓ^a decomposition of
// §V-A, including halo-exchange terms with intra-/inter-node link selection
// and the overlap adjustments of §IV-A.
#pragma once

#include <cstdint>

#include "perf/comm_model.hpp"
#include "perf/compute_model.hpp"
#include "tensor/partition.hpp"

namespace distconv::perf {

/// Global geometry of one convolutional layer.
struct ConvLayerDesc {
  std::int64_t n = 1, c = 1, h = 1, w = 1;  ///< input tensor
  std::int64_t f = 1;                       ///< filters
  int k = 1, s = 1, p = 0;                  ///< square kernel/stride/pad
  /// Something consumes dL/dx (NetworkSpec::gradient_liveness). When false
  /// the layer prices no backward-data compute and no dL/dy halo; a
  /// channel-parallel layer keeps its dL/dy allgather, which
  /// backward-filter reads.
  bool needs_dx = true;

  std::int64_t out_h() const { return (h + 2 * p - k) / s + 1; }
  std::int64_t out_w() const { return (w + 2 * p - k) / s + 1; }
};

struct LayerCost {
  double fp_compute = 0;   ///< C(I_N, I_C, I_H, I_W, I_F)
  double fp_halo = 0;      ///< 2SR(edge) + 2SR(edge) + 4SR(corner)
  double bpx_compute = 0;  ///< C_x(...)
  double bpx_halo = 0;     ///< halo exchange on dL/dy
  double bpw_compute = 0;  ///< C_w(...)
  double allreduce = 0;    ///< BP_ℓ^a = AR(P, I_F·I_C·K²)
  double boundary_overhead = 0;  ///< extra kernel launches for §IV-A splitting

  /// Forward time; overlapped → halo hidden behind interior compute.
  double fp(bool overlap) const {
    if (overlap) {
      return (fp_halo > 0 ? std::max(fp_compute, fp_halo) + boundary_overhead
                          : fp_compute);
    }
    return fp_compute + fp_halo;
  }

  /// Backward time excluding the gradient allreduce (handled at network
  /// level); overlapped → the dL/dy halo hides behind the filter kernel.
  double bp(bool overlap) const {
    if (overlap) {
      return std::max(bpw_compute, bpx_halo) + bpx_compute;
    }
    return bpw_compute + bpx_halo + bpx_compute;
  }

  /// CostD(ℓ) = FP + BPx + BPw + BPa (no cross-layer overlap adjustments).
  double total(bool overlap) const { return fp(overlap) + bp(overlap) + allreduce; }
};

/// Cost of one conv layer under a process-grid distribution. `total_ranks`
/// is the allreduce span (all ranks; weights are replicated).
LayerCost conv_layer_cost(const ConvLayerDesc& desc, const ProcessGrid& grid,
                          const CommModel& comm, const ComputeModel& compute,
                          int total_ranks);

/// Halo-exchange time alone (both directions + corners) for the given tensor
/// block; exposed for the microbenchmark harnesses.
double halo_exchange_time(const ConvLayerDesc& desc, const ProcessGrid& grid,
                          const CommModel& comm, bool on_error_signal);

}  // namespace distconv::perf
