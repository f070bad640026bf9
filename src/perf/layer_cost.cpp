#include "perf/layer_cost.hpp"

#include <algorithm>

#include "perf/channel_parallel.hpp"
#include "support/error.hpp"
#include "support/intmath.hpp"

namespace distconv::perf {
namespace {

std::int64_t ceil_ratio(std::int64_t a, int b) { return (a + b - 1) / b; }

struct HaloLinks {
  // Per direction: how many of the two edge messages cross nodes.
  int h_inter = 0, h_intra = 0;
  int w_inter = 0, w_intra = 0;
};

/// Link classes for the bottleneck rank of a spatial group. Sample groups
/// are contiguous rank ranges (grid rank order is n-major), so a group of
/// size s = gh·gw occupies ranks [g·s, (g+1)·s); h-neighbours are gw ranks
/// apart, w-neighbours adjacent.
HaloLinks classify_links(const ProcessGrid& grid, int gpus_per_node) {
  HaloLinks links;
  const int s = grid.h * grid.w;
  if (grid.h > 1) {
    // h-neighbours are grid.w ranks apart: once the group spans nodes, the
    // bottleneck rank's h-exchanges cross nodes.
    const bool inter = s > gpus_per_node;
    links.h_inter = inter ? 2 : 0;
    links.h_intra = inter ? 0 : 2;
  }
  if (grid.w > 1) {
    if (grid.w > gpus_per_node) {
      links.w_inter = 2;
    } else if (s > gpus_per_node) {
      // A node-boundary rank sees one inter-node and one intra-node
      // w-neighbour.
      links.w_inter = 1;
      links.w_intra = 1;
    } else {
      links.w_intra = 2;
    }
  }
  return links;
}

}  // namespace

double halo_exchange_time(const ConvLayerDesc& desc, const ProcessGrid& grid,
                          const CommModel& comm, bool on_error_signal) {
  if (desc.k <= 1) return 0.0;  // K=1 → O=0 → no halo (§III-A)
  const int O = desc.k / 2;
  if (grid.h <= 1 && grid.w <= 1) return 0.0;

  // Local extents of the exchanged tensor (x in forward, dL/dy in backward).
  const std::int64_t n_loc = ceil_ratio(desc.n, grid.n);
  const std::int64_t c_loc = on_error_signal ? desc.f : desc.c;
  const std::int64_t h_loc =
      ceil_ratio(on_error_signal ? desc.out_h() : desc.h, grid.h);
  const std::int64_t w_loc =
      ceil_ratio(on_error_signal ? desc.out_w() : desc.w, grid.w);

  const HaloLinks links = classify_links(grid, comm.machine().gpus_per_node);
  const double edge_h_bytes = 4.0 * O * n_loc * c_loc * w_loc;  // north/south
  const double edge_w_bytes = 4.0 * O * n_loc * c_loc * h_loc;  // east/west
  const double corner_bytes = 4.0 * double(O) * O * n_loc * c_loc;

  double t = 0.0;
  t += links.h_inter * comm.sendrecv(edge_h_bytes, true);
  t += links.h_intra * comm.sendrecv(edge_h_bytes, false);
  t += links.w_inter * comm.sendrecv(edge_w_bytes, true);
  t += links.w_intra * comm.sendrecv(edge_w_bytes, false);
  if (grid.h > 1 && grid.w > 1) {
    const bool corner_inter = links.h_inter > 0 || links.w_inter > 0;
    t += 4.0 * comm.sendrecv(corner_bytes, corner_inter);
  }
  return t;
}

LayerCost conv_layer_cost(const ConvLayerDesc& desc, const ProcessGrid& grid,
                          const CommModel& comm, const ComputeModel& compute,
                          int total_ranks) {
  if (grid.c > 1) {
    // Channel/filter parallelism (§III-D), optionally combined with a
    // spatial split inside each channel group — every grid the engine
    // executes is priceable.
    return channel_filter_cost(desc, grid.n, grid.c, comm, compute, total_ranks,
                               grid.h, grid.w);
  }
  LayerCost cost;

  ConvWork work;
  work.n = ceil_ratio(desc.n, grid.n);
  work.c = desc.c;
  work.h = ceil_ratio(desc.out_h(), grid.h);
  work.w = ceil_ratio(desc.out_w(), grid.w);
  work.f = desc.f;
  work.kh = desc.k;
  work.kw = desc.k;

  cost.fp_compute = compute.conv_fwd(work);
  cost.bpw_compute = compute.conv_bwd_filter(work);
  cost.fp_halo = halo_exchange_time(desc, grid, comm, /*on_error_signal=*/false);
  if (desc.needs_dx) {
    cost.bpx_compute = compute.conv_bwd_data(work);
    cost.bpx_halo =
        halo_exchange_time(desc, grid, comm, /*on_error_signal=*/true);
  }

  const double ar_bytes = 4.0 * double(desc.f) * desc.c * desc.k * desc.k;
  cost.allreduce = comm.allreduce(total_ranks, ar_bytes);

  // §IV-A splits the local domain into interior + boundary regions; the
  // boundary strips per axis batch into one extra kernel launch each.
  int boundary_kernels = 0;
  if (desc.k > 1) {
    if (grid.h > 1) boundary_kernels += 1;
    if (grid.w > 1) boundary_kernels += 1;
  }
  cost.boundary_overhead =
      boundary_kernels * comm.machine().kernel_overhead;
  return cost;
}

}  // namespace distconv::perf
