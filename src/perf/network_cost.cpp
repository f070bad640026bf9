#include "perf/network_cost.hpp"

#include <algorithm>

#include "core/layers.hpp"
#include "support/error.hpp"

namespace distconv::perf {
namespace {

std::int64_t ceil_ratio(std::int64_t a, int b) { return (a + b - 1) / b; }

/// Max local elements of a tensor under a grid (bottleneck rank).
double local_elements(const Shape4& shape, const ProcessGrid& grid) {
  return double(ceil_ratio(shape.n, grid.n)) * ceil_ratio(shape.c, grid.c) *
         ceil_ratio(shape.h, grid.h) * ceil_ratio(shape.w, grid.w);
}

/// Memory-bound element-wise cost: `passes` traversals of the local tensor
/// plus kernel launches. The paper treats these layers as free and notes the
/// resulting model error ("much of the inaccuracy is due to lower-order
/// computations that are not accounted for"); we keep them in the model and
/// record the deviation in EXPERIMENTS.md instead.
double elementwise_time(double local_bytes, int passes, int kernels,
                        const MachineModel& m) {
  return passes * local_bytes / m.mem_bandwidth + kernels * m.kernel_overhead;
}

struct AuxCost {
  double forward = 0;
  double backward = 0;
  double allreduce = 0;  ///< parameter allreduce (BN γ/β)
};

/// Costs of the non-conv layers (BN statistics + traffic, element-wise
/// traffic, pooling with its halo).
AuxCost aux_layer_cost(const core::NetworkSpec& spec, int i,
                       const std::vector<Shape4>& shapes,
                       const ProcessGrid& grid, const CommModel& comm,
                       const MachineModel& m, int total_ranks) {
  AuxCost aux;
  const core::Layer& layer = spec.layer(i);
  const double local_bytes = 4.0 * local_elements(shapes[i], grid);

  if (const auto* bn = dynamic_cast<const core::BatchNormLayer*>(&layer)) {
    // Forward: statistics pass + normalize pass; backward: reduction pass +
    // apply pass (each reads x and dy).
    aux.forward = elementwise_time(local_bytes, 3, 2, m);
    aux.backward = elementwise_time(local_bytes, 5, 2, m);
    const double stat_bytes = 3.0 * 4.0 * shapes[i].c;  // Σx, Σx², count
    int group = 1;
    switch (bn->mode()) {
      case core::BatchNormMode::kLocal: group = 1; break;
      case core::BatchNormMode::kSpatial: group = grid.h * grid.w; break;
      case core::BatchNormMode::kGlobal: group = total_ranks; break;
    }
    if (group > 1) {
      aux.forward += comm.allreduce(group, stat_bytes);
      aux.backward += comm.allreduce(group, stat_bytes);
    }
    // Running-stat tracking (engine default, ModelOptions::
    // bn_track_running_stats): training forwards aggregate the statistics
    // over the whole job for the EMA unless the kGlobal normalization
    // already did exactly that.
    if (bn->mode() != core::BatchNormMode::kGlobal && total_ranks > 1) {
      aux.forward += comm.allreduce(total_ranks, stat_bytes);
    }
    aux.allreduce = comm.allreduce(total_ranks, 2.0 * 4.0 * shapes[i].c);
    return aux;
  }
  if (dynamic_cast<const core::ReluLayer*>(&layer) != nullptr ||
      dynamic_cast<const core::AddLayer*>(&layer) != nullptr) {
    aux.forward = elementwise_time(local_bytes, 2, 1, m);
    aux.backward = elementwise_time(local_bytes, 3, 1, m);
    return aux;
  }
  if (const auto* pool = dynamic_cast<const core::Pool2dLayer*>(&layer)) {
    const Shape4& in = shapes[layer.parents()[0]];
    const double in_bytes = 4.0 * local_elements(in, grid);
    const auto p = pool->pool_params();
    aux.forward = elementwise_time(in_bytes + local_bytes, 1, 1, m);
    aux.backward = elementwise_time(in_bytes + local_bytes, 1, 1, m);
    ConvLayerDesc d;
    d.n = in.n;
    d.c = in.c;
    d.h = in.h;
    d.w = in.w;
    d.f = in.c;
    d.k = p.kh;
    d.s = p.sh;
    d.p = p.ph;
    aux.forward += halo_exchange_time(d, grid, comm, false);
    aux.backward += halo_exchange_time(d, grid, comm, true);
    return aux;
  }
  if (dynamic_cast<const core::GlobalAvgPoolLayer*>(&layer) != nullptr) {
    const Shape4& in = shapes[layer.parents()[0]];
    const double in_bytes = 4.0 * local_elements(in, grid);
    const int group = grid.h * grid.w;
    aux.forward = elementwise_time(in_bytes, 1, 1, m) +
                  comm.allreduce(group, 4.0 * local_elements(shapes[i], grid));
    aux.backward = aux.forward;
    return aux;
  }
  return aux;  // Input / FC (not present in the evaluated nets) are free.
}

}  // namespace

std::optional<ConvLayerDesc> conv_desc(const core::NetworkSpec& spec, int i,
                                       const std::vector<Shape4>& shapes) {
  const auto* conv = dynamic_cast<const core::Conv2dLayer*>(&spec.layer(i));
  if (conv == nullptr) return std::nullopt;
  const Shape4& in = shapes[conv->parents()[0]];
  ConvLayerDesc d;
  d.n = in.n;
  d.c = in.c;
  d.h = in.h;
  d.w = in.w;
  d.f = conv->filters();
  const auto p = conv->conv_params();
  d.k = p.kh;
  d.s = p.sh;
  d.p = p.ph;
  return d;
}

namespace {

MemoryEstimate estimate_memory_impl(const core::NetworkSpec& spec,
                                    const core::Strategy& strategy,
                                    const MachineModel& machine,
                                    int total_ranks, bool inference) {
  const auto shapes = spec.infer_shapes();
  MemoryEstimate est;
  // Training holds y plus the dy blocks backward consumes
  // (NetworkSpec::gradient_liveness); forward-only serving holds y alone.
  const std::vector<bool> dy_live =
      inference ? std::vector<bool>(spec.size(), false)
                : spec.gradient_liveness().dy;
  // Training replicates parameters, gradients and momentum on every rank;
  // serving needs the parameters alone.
  const double param_copies = inference ? 1.0 : 3.0;
  double y_bytes = 0;
  for (int i = 0; i < spec.size(); ++i) {
    const double bytes = 4.0 * local_elements(shapes[i], strategy.grids[i]);
    y_bytes += bytes;
    est.activation_bytes += dy_live[i] ? 2.0 * bytes : bytes;
  }
  for (int i = 0; i < spec.size(); ++i) {
    if (const auto d = conv_desc(spec, i, shapes)) {
      est.parameter_bytes +=
          param_copies * 4.0 * double(d->f) * d->c * d->k * d->k;
    }
  }
  est.comm_bytes = machine.comm_buffer_bytes_per_gpu_in_job * total_ranks;
  est.total_bytes = est.activation_bytes * machine.activation_overhead +
                    est.parameter_bytes + est.comm_bytes +
                    machine.base_memory_bytes;
  est.feasible = est.total_bytes <= machine.gpu_memory_bytes;
  // Workspace pressure: large job-wide comm state squeezing the workspace of
  // ranks that hold big local tensors (the paper's 2048-GPU sample-parallel
  // degradation).
  est.pressured = est.comm_bytes > machine.pressure_comm_bytes &&
                  y_bytes > machine.pressure_activation_bytes;
  return est;
}

}  // namespace

MemoryEstimate estimate_memory(const core::NetworkSpec& spec,
                               const core::Strategy& strategy,
                               const MachineModel& machine, int total_ranks) {
  return estimate_memory_impl(spec, strategy, machine, total_ranks,
                              /*inference=*/false);
}

MemoryEstimate estimate_memory_inference(const core::NetworkSpec& spec,
                                         const core::Strategy& strategy,
                                         const MachineModel& machine,
                                         int total_ranks) {
  return estimate_memory_impl(spec, strategy, machine, total_ranks,
                              /*inference=*/true);
}

NetworkCost network_cost(const core::NetworkSpec& spec,
                         const core::Strategy& strategy,
                         const MachineModel& machine,
                         const NetworkCostOptions& options,
                         const ComputeModel* compute) {
  DC_REQUIRE(static_cast<int>(strategy.grids.size()) == spec.size(),
             "strategy/spec size mismatch");
  const int P = strategy.num_ranks();
  const auto shapes = spec.infer_shapes();
  const auto live = spec.gradient_liveness();
  const CommModel comm(machine);

  NetworkCost cost;
  cost.memory = estimate_memory(spec, strategy, machine, P);

  const double slowdown =
      cost.memory.pressured ? machine.memory_pressure_slowdown : 1.0;
  // Caller-supplied model first; otherwise the calibrated table when
  // DC_KERNEL_CALIBRATION is set, else the roofline surrogate.
  const auto fallback = default_compute_model(machine, slowdown);
  const ComputeModel& cm = compute != nullptr ? *compute : *fallback;

  cost.layers.assign(spec.size(), std::nullopt);
  std::vector<double> aux_bp(spec.size(), 0.0);
  std::vector<double> aux_ar(spec.size(), 0.0);
  std::vector<double> bwd_shuffle(spec.size(), 0.0);

  // Forward pass + forward shuffles; collect backward-side aux costs and the
  // per-consumer backward shuffle volumes. Backward prices only what the
  // engine runs: no backward for a layer whose dy is dead, no dL/dx work
  // for a dead port, no backward shuffle on a dead cross-grid edge.
  for (int i = 0; i < spec.size(); ++i) {
    const auto& ports = live.ports[i];
    if (auto d = conv_desc(spec, i, shapes)) {
      d->needs_dx = ports[0];
      cost.layers[i] = conv_layer_cost(*d, strategy.grids[i], comm, cm, P);
      cost.forward += cost.layers[i]->fp(options.overlap_halo);
    } else {
      const AuxCost aux =
          aux_layer_cost(spec, i, shapes, strategy.grids[i], comm, machine, P);
      cost.forward += aux.forward;
      if (live.dy[i]) aux_bp[i] = aux.backward;
      aux_ar[i] = aux.allreduce;
    }
    const auto& parents = spec.layer(i).parents();
    for (std::size_t k = 0; k < parents.size(); ++k) {
      const int parent = parents[k];
      if (!(strategy.grids[parent] == strategy.grids[i])) {
        const double bytes =
            4.0 * local_elements(shapes[parent], strategy.grids[parent]);
        const double one_way = comm.alltoall(P, bytes);
        cost.shuffle += one_way;  // forward direction: always exposed
        if (!ports[k]) continue;  // dead edge: no error signal moves back
        if (options.overlap_shuffle) {
          bwd_shuffle[i] += one_way;  // rides the backward wire channel
        } else {
          cost.shuffle += one_way;  // blocking: paid in full, like forward
        }
      }
    }
  }

  // Backward pass: compute runs layer by layer in reverse; gradient
  // allreduces — and, with overlap_shuffle, the backward-direction
  // shuffles — queue on a single channel and overlap with subsequent
  // compute ("we estimate allreduce overlap ... greedily; only one allreduce
  // at a time is considered to run"). A consumer's error shuffle is
  // enqueued when its backward retires (before the layer's own gradient
  // completion), matching the executable engine's FIFO.
  double t = 0.0;       // backprop compute clock
  double nic_free = 0;  // when the in-flight wire op completes
  for (int i = spec.size() - 1; i >= 0; --i) {
    double ar = 0.0;
    if (cost.layers[i].has_value()) {
      t += cost.layers[i]->bp(options.overlap_halo);
      ar = cost.layers[i]->allreduce;
    } else {
      t += aux_bp[i];
      ar = aux_ar[i];
    }
    if (bwd_shuffle[i] > 0.0) {
      const double start = std::max(t, nic_free);
      nic_free = start + bwd_shuffle[i];
    }
    if (ar > 0.0) {
      if (options.overlap_allreduce) {
        const double start = std::max(t, nic_free);
        nic_free = start + ar;
      } else {
        t += ar;
      }
    }
  }
  const double bp_total = std::max(t, nic_free);
  cost.allreduce_exposed = bp_total - t;
  cost.backward = bp_total;
  return cost;
}

InferenceCost inference_cost(const core::NetworkSpec& spec,
                             const core::Strategy& strategy,
                             const MachineModel& machine,
                             const NetworkCostOptions& options,
                             const ComputeModel* compute) {
  DC_REQUIRE(static_cast<int>(strategy.grids.size()) == spec.size(),
             "strategy/spec size mismatch");
  const int P = strategy.num_ranks();
  const auto shapes = spec.infer_shapes();
  const CommModel comm(machine);

  InferenceCost cost;
  cost.memory = estimate_memory_inference(spec, strategy, machine, P);
  const double slowdown =
      cost.memory.pressured ? machine.memory_pressure_slowdown : 1.0;
  const auto fallback = default_compute_model(machine, slowdown);
  const ComputeModel& cm = compute != nullptr ? *compute : *fallback;

  cost.layers.assign(spec.size(), std::nullopt);
  for (int i = 0; i < spec.size(); ++i) {
    const core::Layer& layer = spec.layer(i);
    if (const auto d = conv_desc(spec, i, shapes)) {
      // Price the schedule serving actually executes: channel-parallel
      // convs complete via the allgather-x path in eval mode
      // (forward_channel_inference), not the training reduce-scatter.
      cost.layers[i] = conv_layer_cost(*d, strategy.grids[i], comm, cm, P,
                                       ChannelFwdSchedule::kAllgatherX);
      cost.forward += cost.layers[i]->fp(options.overlap_halo);
    } else if (dynamic_cast<const core::BatchNormLayer*>(&layer) != nullptr) {
      // Eval-mode BN normalizes with running statistics: one elementwise
      // pass, no statistics reductions and no parameter-gradient traffic.
      const double local_bytes =
          4.0 * local_elements(shapes[i], strategy.grids[i]);
      cost.forward += elementwise_time(local_bytes, 2, 1, machine);
    } else {
      const AuxCost aux =
          aux_layer_cost(spec, i, shapes, strategy.grids[i], comm, machine, P);
      cost.forward += aux.forward;
    }
    for (int parent : layer.parents()) {
      if (!(strategy.grids[parent] == strategy.grids[i])) {
        const double bytes =
            4.0 * local_elements(shapes[parent], strategy.grids[parent]);
        cost.shuffle += comm.alltoall(P, bytes);  // forward direction only
      }
    }
  }
  return cost;
}

ServingEstimate estimate_serving(const core::NetworkSpec& spec,
                                 const core::Strategy& strategy,
                                 const MachineModel& machine,
                                 double max_delay_seconds,
                                 const NetworkCostOptions& options,
                                 const ComputeModel* compute) {
  return estimate_serving(spec, strategy, machine, max_delay_seconds,
                          /*replicas=*/1, options, compute);
}

ServingEstimate estimate_serving(const core::NetworkSpec& spec,
                                 const core::Strategy& strategy,
                                 const MachineModel& machine,
                                 double max_delay_seconds, int replicas,
                                 const NetworkCostOptions& options,
                                 const ComputeModel* compute) {
  DC_REQUIRE(replicas >= 1, "estimate_serving needs >= 1 replica, got ",
             replicas);
  const InferenceCost cost =
      inference_cost(spec, strategy, machine, options, compute);
  const auto shapes = spec.infer_shapes();
  const double batch = static_cast<double>(shapes.empty() ? 1 : shapes[0].n);
  ServingEstimate est;
  est.batch_latency = cost.batch_latency();
  // Replicas serve independent batches concurrently: latency percentiles
  // are per-replica properties, throughput scales with the replica count.
  est.p50_latency = est.batch_latency + 0.5 * max_delay_seconds;
  est.p99_latency = est.batch_latency + max_delay_seconds;
  est.throughput =
      est.batch_latency > 0 ? batch / est.batch_latency : 0.0;
  est.replicas = replicas;
  est.fleet_throughput = est.throughput * replicas;
  return est;
}

}  // namespace distconv::perf
