// Whole-network cost (§V-B): sum conv layer costs (other layers are treated
// as free, as in the paper), add redistribution shuffles between mismatched
// layer grids, model greedy allreduce/backprop overlap with a single
// in-flight allreduce, and account GPU memory for feasibility and
// memory-pressure slowdowns.
#pragma once

#include <optional>
#include <vector>

#include "core/spec.hpp"
#include "core/strategy.hpp"
#include "perf/layer_cost.hpp"

namespace distconv::perf {

struct NetworkCostOptions {
  bool overlap_halo = true;       ///< §IV-A interior/boundary overlap
  bool overlap_allreduce = true;  ///< hide BP_ℓ^a behind backprop compute
  /// Backward-direction redistribution shuffles ride the model engine's
  /// single wire channel alongside the gradient allreduces (the executable
  /// engine defers each cross-grid edge's error move until its consumer
  /// layer runs, hiding the rounds behind the backprop in between). Forward
  /// shuffles stay exposed: on a chain the consumer is the very next layer.
  bool overlap_shuffle = true;
};

struct MemoryEstimate {
  double activation_bytes = 0;  ///< y + live dy local blocks
  double parameter_bytes = 0;   ///< params + grads + momentum
  double comm_bytes = 0;        ///< job-size-dependent buffers
  double total_bytes = 0;       ///< with workspace multiplier + base
  bool feasible = false;
  bool pressured = false;  ///< above the slowdown threshold
};

struct NetworkCost {
  double forward = 0;
  double backward = 0;  ///< BPx + BPw incl. exposed wire time
  /// Unhidden wire time of the backward pass's greedy single-channel
  /// schedule: gradient allreduces plus (with overlap_shuffle) the
  /// backward-direction redistribution shuffles that share the channel.
  double allreduce_exposed = 0;
  /// §III-C redistribution cost outside the backward channel: forward
  /// shuffles always; backward shuffles too when overlap_shuffle is off.
  double shuffle = 0;
  MemoryEstimate memory;
  std::vector<std::optional<LayerCost>> layers;  ///< per layer (conv only)

  double minibatch_time() const { return forward + backward + shuffle; }
};

/// Forward-only cost of a strategy — the serving objective. No backprop, no
/// gradient-allreduce terms, one-way redistribution shuffles, batchnorm
/// normalizing with running statistics (a pure elementwise pass, no
/// statistics traffic). Conv layers are priced with the same forward terms
/// as network_cost: training and serving run one forward schedule.
struct InferenceCost {
  double forward = 0;  ///< conv FP + aux forward costs
  double shuffle = 0;  ///< §III-C redistribution, forward direction only
  MemoryEstimate memory;  ///< forward-only footprint (no dy/grads/momentum)
  std::vector<std::optional<LayerCost>> layers;  ///< per layer (conv only)

  /// Model time to push one batch through the distributed forward.
  double batch_latency() const { return forward + shuffle; }
};

/// What the serving cost model predicts for a (strategy, batching policy)
/// pair: the spec's input batch is the dispatch batch, `max_delay_seconds`
/// the batcher's max-delay knob. p50 adds the expected batching delay of a
/// request arriving uniformly within the fill window; p99 adds the
/// worst-case wait before the delay cut.
struct ServingEstimate {
  double batch_latency = 0;  ///< distributed forward for one batch
  double p50_latency = 0;
  double p99_latency = 0;
  double throughput = 0;        ///< samples/second at full batches, per replica
  int replicas = 1;             ///< replica groups the fleet estimate assumed
  double fleet_throughput = 0;  ///< throughput × replicas (latency unchanged)
};

/// Extract conv geometry of layer `i` (nullopt for non-conv layers).
std::optional<ConvLayerDesc> conv_desc(const core::NetworkSpec& spec, int i,
                                       const std::vector<Shape4>& shapes);

/// Per-rank memory estimate for a strategy on a machine, with `total_ranks`
/// GPUs in the job.
MemoryEstimate estimate_memory(const core::NetworkSpec& spec,
                               const core::Strategy& strategy,
                               const MachineModel& machine, int total_ranks);

/// Forward-only footprint: activations once (no error signals), parameters
/// once (no gradients or momentum).
MemoryEstimate estimate_memory_inference(const core::NetworkSpec& spec,
                                         const core::Strategy& strategy,
                                         const MachineModel& machine,
                                         int total_ranks);

/// Evaluate the full §V model. When `compute` is null, a roofline model (with
/// any memory-pressure slowdown applied) is built from `machine`.
NetworkCost network_cost(const core::NetworkSpec& spec,
                         const core::Strategy& strategy,
                         const MachineModel& machine,
                         const NetworkCostOptions& options = {},
                         const ComputeModel* compute = nullptr);

/// Evaluate the forward-only serving model.
InferenceCost inference_cost(const core::NetworkSpec& spec,
                             const core::Strategy& strategy,
                             const MachineModel& machine,
                             const NetworkCostOptions& options = {},
                             const ComputeModel* compute = nullptr);

/// Combine inference_cost with a max-batch / max-delay batching policy (the
/// serve::Batcher's knobs) into latency percentiles and throughput. The
/// spec's input batch is the dispatch batch.
ServingEstimate estimate_serving(const core::NetworkSpec& spec,
                                 const core::Strategy& strategy,
                                 const MachineModel& machine,
                                 double max_delay_seconds,
                                 const NetworkCostOptions& options = {},
                                 const ComputeModel* compute = nullptr);

/// Fleet variant: `replicas` independent replica groups each run this
/// strategy. Latency percentiles are unchanged (each request is served by
/// exactly one replica); fleet_throughput scales with the replica count.
ServingEstimate estimate_serving(const core::NetworkSpec& spec,
                                 const core::Strategy& strategy,
                                 const MachineModel& machine,
                                 double max_delay_seconds, int replicas,
                                 const NetworkCostOptions& options = {},
                                 const ComputeModel* compute = nullptr);

}  // namespace distconv::perf
