// Channel and filter parallelism — the cost model of §III-D.
//
// The paper sketches these decompositions and defers implementation to
// future work; this repository *executes* them: grids with c > 1 run the
// channel/filter-parallel schedule in the training engine (see README
// "Channel/filter parallelism" and core/layers.cpp), and this model prices
// exactly that schedule so the §V-C optimizer can weigh it against spatial
// decompositions — e.g. deep ResNet layers with many filters and tiny
// spatial domains, where halo exchange dominates spatial splits.
//
// Modelled (and implemented) schedule for a channel group of pc ranks:
//   * x partitioned on C, y on F; weights replicated, each rank computing
//     against its w[:, I_C] / w[I_F, :] slices.
//   * Forward: one allgather of x over the channel group, after which each
//     rank computes its owned F/pc filters against the full C locally — no
//     partial sums, so every output keeps the single-rank accumulation chain.
//   * Backward: one allgather of dL/dy over the filter slices, after which
//     backward-data and backward-filter are exact local kernels.
//   * Weight gradient: each rank produces the F × C/pc slice it owns; the
//     completing allreduce spans only the total/pc ranks sharing that slice
//     (at 1/pc of the weight volume) and an allgather over the channel
//     group re-replicates the full gradient for the SGD step.
#pragma once

#include "perf/comm_model.hpp"
#include "perf/compute_model.hpp"
#include "perf/layer_cost.hpp"

namespace distconv::perf {

/// Cost of a conv layer partitioned over channels/filters on `pc` ranks,
/// combined with sample parallelism over grid_n groups and (optionally) a
/// grid_h × grid_w spatial split inside each channel group — equivalent to
/// conv_layer_cost with grid (grid_n, pc, grid_h, grid_w). The engine
/// executes all of these; the optimizer only generates the spatially
/// trivial ones.
LayerCost channel_filter_cost(const ConvLayerDesc& desc, int grid_n, int pc,
                              const CommModel& comm, const ComputeModel& compute,
                              int total_ranks, int grid_h = 1, int grid_w = 1);

}  // namespace distconv::perf
