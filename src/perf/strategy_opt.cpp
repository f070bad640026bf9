#include "perf/strategy_opt.hpp"

#include <algorithm>
#include <limits>

#include "core/layers.hpp"
#include "perf/channel_parallel.hpp"
#include "support/error.hpp"

namespace distconv::perf {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::int64_t ceil_ratio(std::int64_t a, int b) { return (a + b - 1) / b; }

double shuffle_cost(const Shape4& shape, const ProcessGrid& from,
                    const ProcessGrid& to, const CommModel& comm, int ranks,
                    const OptimizerOptions& options) {
  if (from == to) return 0.0;
  const double bytes = 4.0 * double(ceil_ratio(shape.n, from.n)) *
                       ceil_ratio(shape.c, from.c) * ceil_ratio(shape.h, from.h) *
                       ceil_ratio(shape.w, from.w);
  // Training redistributes activations forward and error signals backward; a
  // forward-only serving pass shuffles once. With overlap_shuffle, the
  // backward move rides the gradient wire channel and
  // hides behind backprop compute, so — like the §IV-A halo terms under
  // overlap — the edge weight optimistically prices the exposed direction
  // only, and mixed-grid strategies stop being double-taxed.
  const double directions =
      options.objective == Objective::kInference ||
              options.cost_options.overlap_shuffle
          ? 1.0
          : 2.0;
  return directions * comm.alltoall(ranks, bytes);
}

}  // namespace

std::vector<ProcessGrid> candidate_grids(int ranks, const Shape4& in_shape,
                                         const Shape4& out_shape, int kernel,
                                         const OptimizerOptions& options) {
  std::vector<ProcessGrid> grids;
  for (int s = 1; s <= std::min(ranks, options.max_gpus_per_sample); s *= 2) {
    if (ranks % s != 0) continue;
    const int groups = ranks / s;
    if (groups > in_shape.n) continue;  // every sample group needs a sample
    const auto [gh, gw] = core::Strategy::spatial_factors(s);
    // Load balance: at least one output row/col per rank.
    if (out_shape.h < gh || out_shape.w < gw) continue;
    // Halo feasibility: a margin of ⌊K/2⌋ must fit inside the neighbour's
    // block (§III-A edge case).
    const int O = kernel / 2;
    if (s > 1 && kernel > 1) {
      if (in_shape.h / gh <= O || in_shape.w / gw <= O) continue;
    }
    grids.push_back(ProcessGrid{groups, 1, gh, gw});
  }
  // Channel/filter parallelism (§III-D): split C (input) and F (output)
  // pc ways with the remaining ranks on samples — spatially trivial, the
  // regime where deep layers with tiny domains beat halo-bound spatial
  // splits. Every divisor is offered (channel groups are often
  // non-power-of-two); slices must be non-empty on both sides so the
  // optimizer never emits idle ranks.
  for (int pc = 2; pc <= std::min(ranks, options.max_channel_ways); ++pc) {
    if (ranks % pc != 0) continue;
    if (in_shape.c < pc || out_shape.c < pc) continue;
    const int groups = ranks / pc;
    if (groups > in_shape.n) continue;
    grids.push_back(ProcessGrid{groups, pc, 1, 1});
  }
  if (grids.empty()) {
    // Head layers (1×1 outputs, or fewer samples than ranks with spatial
    // splits infeasible) fall back to sample parallelism with empty blocks
    // on the excess ranks — the engine supports zero-sized local shards.
    grids.push_back(ProcessGrid{ranks, 1, 1, 1});
  }
  return grids;
}

double layer_node_cost(const core::NetworkSpec& spec, int layer,
                       const std::vector<Shape4>& shapes,
                       const core::NetworkSpec::GradientLiveness& live,
                       const ProcessGrid& grid, const MachineModel& machine,
                       const OptimizerOptions& options,
                       const ComputeModel* compute_in) {
  const CommModel comm(machine);
  // Measured kernel rates when DC_KERNEL_CALIBRATION is set, roofline
  // surrogate otherwise (see compute_model.hpp).
  std::unique_ptr<ComputeModel> owned;
  if (compute_in == nullptr) {
    owned = default_compute_model(machine);
    compute_in = owned.get();
  }
  const ComputeModel& compute = *compute_in;
  if (auto d = conv_desc(spec, layer, shapes)) {
    d->needs_dx = live.ports[layer][0];
    const LayerCost c = conv_layer_cost(*d, grid, comm, compute, grid.size());
    if (options.objective == Objective::kInference) {
      // Forward-only serving objective: no backprop, no gradient allreduce.
      return c.fp(options.cost_options.overlap_halo);
    }
    return c.fp(options.cost_options.overlap_halo) +
           c.bp(options.cost_options.overlap_halo) +
           (options.cost_options.overlap_allreduce ? 0.0 : c.allreduce);
  }
  if (dynamic_cast<const core::BatchNormLayer*>(&spec.layer(layer)) != nullptr &&
      options.objective == Objective::kTrainingStep &&
      !options.cost_options.overlap_allreduce) {
    return comm.allreduce(grid.size(), 2.0 * 4.0 * shapes[layer].c);
  }
  return 0.0;
}

namespace {

/// Assign distributions along one path (a chain of layer indices) via
/// shortest path; `fixed[i]` restricts a layer to its already-chosen grid.
void assign_path(const core::NetworkSpec& spec, const std::vector<Shape4>& shapes,
                 const core::NetworkSpec::GradientLiveness& live,
                 const std::vector<int>& path,
                 const std::vector<std::vector<ProcessGrid>>& candidates,
                 const MachineModel& machine, const ComputeModel& compute,
                 const OptimizerOptions& options, std::vector<bool>& fixed,
                 core::Strategy& strategy, int ranks) {
  const CommModel comm(machine);
  const int L = static_cast<int>(path.size());
  std::vector<std::vector<double>> dist(L);
  std::vector<std::vector<int>> back(L);

  auto cands_of = [&](int k) -> std::vector<ProcessGrid> {
    const int layer = path[k];
    if (fixed[layer]) return {strategy.grids[layer]};
    return candidates[layer];
  };

  std::vector<ProcessGrid> prev_cands = cands_of(0);
  dist[0].assign(prev_cands.size(), 0.0);
  for (std::size_t a = 0; a < prev_cands.size(); ++a) {
    dist[0][a] = layer_node_cost(spec, path[0], shapes, live, prev_cands[a],
                                 machine, options, &compute);
  }
  back[0].assign(prev_cands.size(), -1);

  std::vector<std::vector<ProcessGrid>> all_cands{prev_cands};
  for (int k = 1; k < L; ++k) {
    const auto cands = cands_of(k);
    all_cands.push_back(cands);
    dist[k].assign(cands.size(), kInf);
    back[k].assign(cands.size(), -1);
    for (std::size_t b = 0; b < cands.size(); ++b) {
      const double node = layer_node_cost(spec, path[k], shapes, live,
                                          cands[b], machine, options, &compute);
      for (std::size_t a = 0; a < all_cands[k - 1].size(); ++a) {
        if (dist[k - 1][a] == kInf) continue;
        const double edge = shuffle_cost(shapes[path[k - 1]],
                                         all_cands[k - 1][a], cands[b], comm,
                                         ranks, options);
        const double total = dist[k - 1][a] + edge + node;
        if (total < dist[k][b]) {
          dist[k][b] = total;
          back[k][b] = static_cast<int>(a);
        }
      }
    }
  }

  // Backtrack the best assignment.
  int best = 0;
  for (std::size_t b = 1; b < dist[L - 1].size(); ++b) {
    if (dist[L - 1][b] < dist[L - 1][best]) best = static_cast<int>(b);
  }
  for (int k = L - 1; k >= 0; --k) {
    strategy.grids[path[k]] = all_cands[k][best];
    fixed[path[k]] = true;
    best = back[k][best];
  }
}

/// Path from an input to a sink maximizing the summed proxy weight of
/// not-yet-fixed layers (the paper's "longest path", then "next longest path
/// that contains as few of the already-used layers as possible").
std::vector<int> heaviest_path(const core::NetworkSpec& spec,
                               const std::vector<double>& proxy,
                               const std::vector<bool>& fixed) {
  const int n = spec.size();
  std::vector<double> best(n, -kInf);
  std::vector<int> pred(n, -1);
  for (int i = 0; i < n; ++i) {
    const double mine = fixed[i] ? 0.0 : proxy[i];
    if (spec.layer(i).parents().empty()) {
      best[i] = mine;
      continue;
    }
    for (int p : spec.layer(i).parents()) {
      if (best[p] + mine > best[i]) {
        best[i] = best[p] + mine;
        pred[i] = p;
      }
    }
  }
  const auto children = spec.children();
  int sink = -1;
  for (int i = 0; i < n; ++i) {
    if (children[i].empty() && (sink < 0 || best[i] > best[sink])) sink = i;
  }
  std::vector<int> path;
  for (int v = sink; v >= 0; v = pred[v]) path.push_back(v);
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace

core::Strategy optimize_strategy(const core::NetworkSpec& spec, int ranks,
                                 const MachineModel& machine,
                                 const OptimizerOptions& options) {
  const auto shapes = spec.infer_shapes();
  const auto live = spec.gradient_liveness();
  // One compute model for the whole optimization (hundreds of node-cost
  // evaluations across the DP loops).
  const auto compute = default_compute_model(machine);
  std::vector<std::vector<ProcessGrid>> candidates(spec.size());
  std::vector<double> proxy(spec.size(), 0.0);
  for (int i = 0; i < spec.size(); ++i) {
    const Shape4 in_shape =
        spec.layer(i).parents().empty() ? shapes[i]
                                        : shapes[spec.layer(i).parents()[0]];
    int kernel = 1;
    if (const auto d = conv_desc(spec, i, shapes)) kernel = d->k;
    // FC/GAP heads must stay spatially trivial (§III-C: FC layers are
    // sample- or model-parallel).
    const bool head =
        dynamic_cast<const core::FullyConnectedLayer*>(&spec.layer(i)) != nullptr;
    if (head) {
      candidates[i] = {ProcessGrid{ranks, 1, 1, 1}};
    } else {
      candidates[i] =
          candidate_grids(ranks, in_shape, shapes[i], kernel, options);
    }
    // Path weight proxy: the layer's cost under its cheapest candidate.
    proxy[i] = layer_node_cost(spec, i, shapes, live, candidates[i][0],
                               machine, options, compute.get());
  }

  core::Strategy strategy = core::Strategy::sample_parallel(spec.size(), ranks);
  std::vector<bool> fixed(spec.size(), false);
  int guard = 0;
  while (std::find(fixed.begin(), fixed.end(), false) != fixed.end()) {
    DC_REQUIRE(++guard <= spec.size() + 1, "strategy optimizer failed to cover "
               "all layers (disconnected graph?)");
    const std::vector<int> path = heaviest_path(spec, proxy, fixed);
    const bool any_unfixed =
        std::any_of(path.begin(), path.end(), [&](int v) { return !fixed[v]; });
    if (!any_unfixed) {
      // Remaining layers inherit their parent's distribution (§V-C).
      for (int i = 0; i < spec.size(); ++i) {
        if (fixed[i]) continue;
        if (!spec.layer(i).parents().empty()) {
          strategy.grids[i] = strategy.grids[spec.layer(i).parents()[0]];
        }
        fixed[i] = true;
      }
      break;
    }
    assign_path(spec, shapes, live, path, candidates, machine, *compute,
                options, fixed, strategy, ranks);
  }
  return strategy;
}

std::vector<ChannelOpportunity> analyze_channel_opportunities(
    const core::NetworkSpec& spec, int ranks, const MachineModel& machine,
    const OptimizerOptions& options) {
  const auto shapes = spec.infer_shapes();
  const auto live = spec.gradient_liveness();
  const CommModel comm(machine);
  const auto compute_ptr = default_compute_model(machine);
  const ComputeModel& compute = *compute_ptr;
  const bool overlap = options.cost_options.overlap_halo;

  std::vector<ChannelOpportunity> out;
  for (int i = 0; i < spec.size(); ++i) {
    auto desc = conv_desc(spec, i, shapes);
    if (!desc.has_value()) continue;
    desc->needs_dx = live.ports[i][0];
    const Shape4 in_shape = shapes[spec.layer(i).parents()[0]];

    double best_spatial = kInf;
    for (const auto& g :
         candidate_grids(ranks, in_shape, shapes[i], desc->k, options)) {
      if (g.c > 1) continue;  // compare against sample/spatial only
      best_spatial = std::min(
          best_spatial,
          conv_layer_cost(*desc, g, comm, compute, ranks).total(overlap));
    }

    double best_channel = kInf;
    int best_ways = 0;
    for (int pc = 2; pc <= ranks; pc *= 2) {
      if (ranks % pc != 0) continue;
      if (desc->c < pc || desc->f < pc) continue;  // need channels to split
      const int grid_n = ranks / pc;
      if (grid_n > desc->n) continue;
      const double cost =
          channel_filter_cost(*desc, grid_n, pc, comm, compute, ranks)
              .total(overlap);
      if (cost < best_channel) {
        best_channel = cost;
        best_ways = pc;
      }
    }
    if (best_ways != 0 && best_channel < best_spatial) {
      ChannelOpportunity opp;
      opp.layer = i;
      opp.name = spec.layer(i).name();
      opp.best_spatial_cost = best_spatial;
      opp.best_channel_cost = best_channel;
      opp.channel_ways = best_ways;
      out.push_back(std::move(opp));
    }
  }
  return out;
}

}  // namespace distconv::perf
