// Model: the per-rank instantiation of a NetworkSpec under a parallel
// execution strategy — the training engine (the LBANN-substrate stand-in).
//
// Construction wires the whole distributed dataflow once:
//   * every layer gets its grid from the strategy (all grids span the full
//     communicator, as in the paper's experiments);
//   * activation tensors get margins merged over their same-grid stencil
//     consumers;
//   * error tensors exist only where a gradient consumes them
//     (NetworkSpec::gradient_liveness): a layer's dy only when its backward
//     runs, with transpose-stencil margins only when it has a live input
//     port, and a port's dx only when the parent's dy is live — so the first
//     conv runs backward-filter alone, with no dy halo and no dx;
//   * edges whose endpoint grids differ get Shufflers (§III-C), the backward
//     one only on live edges;
//   * parameters are replicated and deterministically initialized, so they
//     stay bitwise identical across ranks after every allreduced update.
//
// forward()/loss_*()/backward()/sgd_step() then run SPMD on each rank.
#pragma once

#include <optional>
#include <vector>

#include "comm/nonblocking.hpp"
#include "core/spec.hpp"
#include "core/strategy.hpp"
#include "kernels/losses.hpp"
#include "kernels/sgd.hpp"
#include "obs/metrics.hpp"

namespace distconv::core {

class Model {
 public:
  Model(const NetworkSpec& spec, comm::Comm& comm, const Strategy& strategy,
        std::uint64_t seed = 1, ModelOptions opts = {});

  int num_layers() const { return spec_->size(); }
  LayerRt& rt(int i) { return rts_[i]; }
  const LayerRt& rt(int i) const { return rts_[i]; }
  comm::Comm& comm() { return *comm_; }
  const ModelOptions& options() const { return opts_; }
  const NetworkSpec& spec() const { return *spec_; }
  int output_layer() const { return num_layers() - 1; }

  /// Spatial-group communicator of a layer's grid (ranks sharing the same
  /// (n, c) grid coordinates); created only for layers that aggregate across
  /// the spatial decomposition (BN kSpatial, global average pooling).
  comm::Comm& spatial_comm(int layer);

  /// Channel-group communicator of a layer's grid (ranks sharing the same
  /// (n, h, w) coordinates, spanning the c dimension). Created for conv
  /// layers with grid.c > 1: the forward partial-sum reduce-scatter and the
  /// backward dL/dy allgather run here. Its rank order follows the grid's c
  /// coordinate.
  comm::Comm& channel_comm(int layer);

  /// Slice communicator: ranks sharing the same c coordinate — i.e. the same
  /// weight slice w[:, I_C^(c)] — across all sample groups. The shrunk
  /// weight-gradient allreduce (1/pc of the weight volume over P/pc ranks)
  /// runs here; created alongside channel_comm().
  comm::Comm& slice_comm(int layer);

  /// True when `layer` executes the channel/filter-parallel schedule.
  bool is_channel_parallel(int layer) const {
    return channel_comms_[layer].has_value();
  }

  /// The model's communication engine: gradient completions, pre-posted
  /// shuffles, halo refreshes and the channel-parallel forward's
  /// reduce-scatter all serialize onto this one wire channel (the cost
  /// model's greedy single-op schedule). Ops advance only in this rank's
  /// enqueue/progress/drain calls.
  comm::CollectiveEngine& comm_engine() { return engine_; }
  const comm::CollectiveEngine& comm_engine() const { return engine_; }

  /// Enqueue a margin refresh of `a` on the engine when its margins are
  /// stale; returns the ticket for finish_refresh (0: nothing to refresh).
  /// Compute that reads no margins may run in between.
  std::uint64_t post_refresh(ActTensor& a);
  /// Drain the engine up to a post_refresh ticket and mark `a` fresh.
  void finish_refresh(ActTensor& a, std::uint64_t ticket);
  /// post_refresh + finish_refresh: `a`'s margins are fresh on return.
  void refresh(ActTensor& a) { finish_refresh(a, post_refresh(a)); }

  /// Copy the owned box of a replicated global tensor into an input layer.
  void set_input(int layer, const Tensor<float>& global);

  /// Run forward propagation over the whole DAG. Mode::kTraining computes
  /// batch statistics (and tracks BN running statistics); Mode::kInference
  /// normalizes with the tracked running statistics and mutates no state
  /// beyond the activations, so serving can interleave with training on the
  /// same model. Channel-parallel conv layers switch to the allgather-x
  /// schedule under inference, which keeps every output element's
  /// floating-point accumulation chain identical to the single-rank oracle
  /// (see README "Inference serving").
  void forward(Mode mode);
  void forward() { forward(Mode::kTraining); }

  /// Mode of the most recent forward() (kTraining before any forward).
  Mode mode() const { return mode_; }

  /// Mean sigmoid-BCE loss of the last layer vs. replicated global targets;
  /// seeds the backward error signal. Collective. `grad_scale_count`
  /// overrides the denominator of the seeded gradient (used by micro-batched
  /// training, where the mean is over the full mini-batch rather than this
  /// micro-batch); 0 means "this batch's element count".
  double loss_bce(const Tensor<float>& global_targets,
                  std::int64_t grad_scale_count = 0);

  /// Mean softmax cross-entropy of the last layer (shape (N, classes, 1, 1),
  /// sample-parallel grid required) vs. integer labels. Seeds backward.
  double loss_softmax(const std::vector<int>& labels,
                      std::int64_t grad_scale_count = 0);

  /// Zero all parameter gradients (start of a gradient-accumulation span).
  void zero_gradients();

  /// Run backpropagation (requires a prior loss_* call). By default the
  /// gradients are zeroed first and completed with an allreduce (one full
  /// step). With accumulate=true, gradients add onto the existing buffers
  /// and the allreduce is deferred — call allreduce_gradients() after the
  /// last micro-batch (§VII micro-batching: "mini-batches are split into
  /// micro-batches and updates accumulated").
  void backward(bool accumulate = false);

  /// Backpropagation with explicit gradient completion: complete=true
  /// finishes every cross-rank gradient sum before returning: each layer's
  /// ops (full allreduce, the shrunk slice-allreduce + channel-group
  /// allgather for channel-parallel convs, or the small-gradient bucket) go
  /// on the engine, which is drained before returning — so sgd_step()
  /// always sees completed gradients. With options().overlap_allreduce the
  /// ops are enqueued as soon as the layer's backward kernels retire,
  /// otherwise all at once after backprop. The one-argument overload
  /// keeps the historical meaning (complete = !accumulate).
  void backward(bool accumulate, bool complete);

  /// Complete deferred gradient sums across all ranks: enqueue every
  /// layer's completion ops, then drain.
  void allreduce_gradients();

  /// Seconds the most recent completing backward() spent finishing
  /// gradients after its last backprop kernel: allreduce_gradients(), or —
  /// overlapped — the final engine drain, the executable analogue of the
  /// model's `allreduce_exposed` (ideally ~0 when every op was hidden behind
  /// backprop compute). Both include whatever rank skew the completion
  /// absorbs, so the two modes compare like for like.
  double last_grad_completion_seconds() const {
    return grad_completion_seconds_;
  }

  /// Apply SGD on every parameter (replicated update).
  void sgd_step(const kernels::SgdConfig& cfg);

  /// Gather a layer's output activations into a full global tensor on every
  /// rank (test/debug utility; collective).
  Tensor<float> gather_output(int layer);

  std::int64_t num_parameters() const;

  /// Total bytes this rank allocated for activations/errors (memory model
  /// validation).
  std::int64_t activation_bytes() const;

 private:
  void build_tensors(const std::vector<Shape4>& shapes);
  /// Zero every allocated dy before a loss seeds the output's.
  void zero_error_signals();
  /// Enqueue each live parent edge's dx move (a shuffle op for cross-grid
  /// edges) and record the contribution; the adds into the parents' dy are
  /// applied by apply_pending_dy() right before each parent runs, in
  /// descending child order, so the floating-point accumulation chains are
  /// fixed.
  void defer_parent_dy(int layer);
  /// Apply (and where needed, drain) the recorded dy contributions of
  /// `layer` in recorded order.
  void apply_pending_dy(int layer);
  /// Enqueue the completion ops for a layer's gradients on the engine.
  void enqueue_gradient_completion(int layer);

  const NetworkSpec* spec_;
  comm::Comm* comm_;
  Strategy strategy_;
  ModelOptions opts_;
  std::vector<LayerRt> rts_;
  std::vector<std::optional<comm::Comm>> spatial_comms_;  // per layer
  std::vector<std::optional<comm::Comm>> channel_comms_;  // per layer, c > 1
  std::vector<std::optional<comm::Comm>> slice_comms_;    // per layer, c > 1
  comm::CollectiveEngine engine_;  ///< the model's single wire channel
  /// Cross-grid edges by producer: (consumer layer, port index) pairs whose
  /// forward shuffle is pre-posted the moment the producer's output is
  /// final, so the move overlaps every layer between producer and consumer.
  std::vector<std::vector<std::pair<int, int>>> shuffle_children_;
  /// Deferred backward dy contributions per parent layer, in application
  /// order: (child layer, port index).
  std::vector<std::vector<std::pair<int, int>>> pending_dy_;
  /// Per-layer observability instruments (layer.<i>.{fwd,bwd}[.blocked].ns),
  /// interned once at construction so the train loop never composes names.
  struct LayerObs {
    obs::metrics::Counter fwd_ns, fwd_blocked_ns, bwd_ns, bwd_blocked_ns;
  };
  std::vector<LayerObs> layer_obs_;
  double grad_completion_seconds_ = 0;
  bool loss_seeded_ = false;
  Mode mode_ = Mode::kTraining;  ///< mode of the most recent forward()
};

}  // namespace distconv::core
