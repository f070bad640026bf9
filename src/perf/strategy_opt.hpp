// Automatic parallel-execution-strategy selection (§V-C).
//
// Candidate distributions are generated per layer (load-balanced grids,
// cheaper parallelism preferred), then the best assignment is found by
// reduction to single-source shortest path over a DAG with one vertex per
// (layer, candidate distribution) and edges weighted
// Cost_Di(ℓi) + Shuffle(Di, Dj). Networks with branches (ResNets) are
// handled by the paper's longest-path decomposition: fix the most expensive
// input→output path first, then iterate on paths with the fewest
// already-fixed layers until every layer has a distribution.
#pragma once

#include <string>
#include <vector>

#include "core/spec.hpp"
#include "core/strategy.hpp"
#include "perf/network_cost.hpp"

namespace distconv::perf {

/// What the per-layer node costs price. kTrainingStep is the historical
/// full-step objective (FP + BPx + BPw + exposed allreduce). kInference is
/// the forward-only serving objective: no backprop, no gradient traffic,
/// one-way redistribution shuffles — so the optimizer can recommend
/// *different* grids for serving than for training (spatial/channel splits
/// that cut latency at a serving batch too small for sample parallelism,
/// sample parallelism at saturating throughput batches).
enum class Objective { kTrainingStep, kInference };

struct OptimizerOptions {
  int max_gpus_per_sample = 16;
  /// Largest channel/filter split offered as a candidate (§III-D grids
  /// (n, pc, 1, 1), now executable); 1 disables channel parallelism.
  int max_channel_ways = 8;
  Objective objective = Objective::kTrainingStep;
  NetworkCostOptions cost_options;
};

/// Candidate grids for one layer: sample parallelism first (cheapest), then
/// hybrid sample/spatial splits that stay load-balanced and halo-feasible,
/// then hybrid sample/channel splits whose channel and filter slices are all
/// non-empty.
std::vector<ProcessGrid> candidate_grids(int ranks, const Shape4& in_shape,
                                         const Shape4& out_shape, int kernel,
                                         const OptimizerOptions& options);

/// Select a per-layer strategy for `ranks` GPUs.
core::Strategy optimize_strategy(const core::NetworkSpec& spec, int ranks,
                                 const MachineModel& machine,
                                 const OptimizerOptions& options = {});

/// Single-node cost used both for path weights and DP node weights:
/// conv layers use the §V-A model, BN a small allreduce, the rest are free.
/// `live` is spec.gradient_liveness(): a conv whose input port is dead runs
/// backward-filter only, exactly as network_cost and the runtime price and
/// run it. `compute` lets callers in a loop reuse one model (the
/// optimizer's DP calls this per (layer, candidate) pair); nullptr builds
/// the default model (calibrated via DC_KERNEL_CALIBRATION, else roofline)
/// per call.
double layer_node_cost(const core::NetworkSpec& spec, int layer,
                       const std::vector<Shape4>& shapes,
                       const core::NetworkSpec::GradientLiveness& live,
                       const ProcessGrid& grid, const MachineModel& machine,
                       const OptimizerOptions& options,
                       const ComputeModel* compute = nullptr);

/// §VI-B2 advisory: "Channel/filter parallelism may be more promising, as
/// many layers have many filters." For each conv layer, compare the best
/// sample/spatial candidate against the best channel/filter decomposition
/// (modelled per §III-D and executable since the channel-parallel engine
/// landed) and report layers where channel parallelism wins.
struct ChannelOpportunity {
  int layer = -1;
  std::string name;
  double best_spatial_cost = 0;  ///< best sample/spatial/hybrid candidate
  double best_channel_cost = 0;  ///< best sample×channel split
  int channel_ways = 0;          ///< the winning channel split
};

std::vector<ChannelOpportunity> analyze_channel_opportunities(
    const core::NetworkSpec& spec, int ranks, const MachineModel& machine,
    const OptimizerOptions& options = {});

}  // namespace distconv::perf
