#include "perf/channel_parallel.hpp"

#include "support/error.hpp"

namespace distconv::perf {
namespace {

std::int64_t ceil_ratio(std::int64_t a, int b) { return (a + b - 1) / b; }

}  // namespace

LayerCost channel_filter_cost(const ConvLayerDesc& desc, int grid_n, int pc,
                              const CommModel& comm, const ComputeModel& compute,
                              int total_ranks, int grid_h, int grid_w) {
  DC_REQUIRE(pc >= 1 && grid_n >= 1 && grid_h >= 1 && grid_w >= 1,
             "invalid channel-parallel configuration");
  LayerCost cost;

  // Backward local work: C/pc input channels against the *full* F filters
  // (backward-data and backward-filter contract full F against the
  // allgathered dL/dy — see core/layers.cpp). The forward swaps the split
  // axis (full C, F/pc filters) for identical FLOPs.
  ConvWork work;
  work.n = ceil_ratio(desc.n, grid_n);
  work.c = ceil_ratio(desc.c, pc);
  work.h = ceil_ratio(desc.out_h(), grid_h);
  work.w = ceil_ratio(desc.out_w(), grid_w);
  work.f = desc.f;
  work.kh = desc.k;
  work.kw = desc.k;
  if (desc.needs_dx) cost.bpx_compute = compute.conv_bwd_data(work);
  cost.bpw_compute = compute.conv_bwd_filter(work);

  // Forward (core/layers.cpp forward_channel): allgather the C-partitioned x
  // over the channel group — a ring allgather moves ((pc−1)/pc)·n bytes, the
  // ring allreduce's gather half — then compute the owned F/pc filter rows
  // against the full C locally.
  //
  // Backward runs one allgather of dL/dy (the same volume as y) over the
  // filter slices, after which both backward kernels are local — the engine
  // implements exactly this schedule (core/layers.cpp). With a spatial
  // split inside the group, the collectives carry only the owned spatial
  // block and the usual halo exchanges ride on top, on channel-thinned
  // (1/pc) tensors.
  ConvWork fwd_work = work;
  fwd_work.c = desc.c;
  fwd_work.f = ceil_ratio(desc.f, pc);
  cost.fp_compute = compute.conv_fwd(fwd_work);
  if (pc > 1) {
    const double x_bytes = 4.0 * work.n * desc.c * ceil_ratio(desc.h, grid_h) *
                           ceil_ratio(desc.w, grid_w);
    const double y_bytes = 4.0 * work.n * desc.f * work.h * work.w;
    cost.fp_halo = 0.5 * comm.ring_allreduce(pc, x_bytes);
    cost.bpx_halo = 0.5 * comm.ring_allreduce(pc, y_bytes);
  }
  if (grid_h > 1 || grid_w > 1) {
    const ProcessGrid grid{grid_n, pc, grid_h, grid_w};
    cost.fp_halo += halo_exchange_time(desc, grid, comm, false) / pc;
    if (desc.needs_dx) {
      cost.bpx_halo += halo_exchange_time(desc, grid, comm, true) / pc;
    }
  }

  // Weight gradients: each rank owns an F × C/pc slice, so the completing
  // allreduce spans the ranks sharing that slice (total/pc of them) at 1/pc
  // of the full weight volume; re-replicating the full gradient for the SGD
  // step adds an allgather of the slices over the channel group (the ring
  // allgather's half of a full-volume allreduce).
  const double w_slice_bytes =
      4.0 * double(desc.f) * ceil_ratio(desc.c, pc) * desc.k * desc.k;
  const double w_bytes = 4.0 * double(desc.f) * desc.c * desc.k * desc.k;
  cost.allreduce = comm.allreduce(std::max(1, total_ranks / pc), w_slice_bytes);
  if (pc > 1) cost.allreduce += 0.5 * comm.ring_allreduce(pc, w_bytes);
  return cost;
}

}  // namespace distconv::perf
