#include "core/model.hpp"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "comm/collectives.hpp"
#include "core/layers.hpp"
#include "kernels/activations.hpp"
#include "obs/attribution.hpp"
#include "support/error.hpp"
#include "support/logging.hpp"

namespace distconv::core {

namespace {

/// Complete a channel-parallel conv's weight gradient: each rank holds the
/// dL/dw columns of its channel slice. Pack them, run the shrunk allreduce
/// (1/pc of the weight volume) over the P/pc ranks sharing the slice, then
/// allgather the slices across the channel group and unpack, so every rank
/// applies the bitwise-identical full gradient. Both tags are allocated at
/// construction (enqueue) time so every member rank draws them in the same
/// program order regardless of how wire schedules interleave.
class SlicedWeightGradOp final : public comm::NbOp {
 public:
  SlicedWeightGradOp(comm::Comm& slice_comm, comm::Comm& channel_comm,
                     Tensor<float>& grad, const DimPartition& cpart, int coord_c)
      : slice_comm_(&slice_comm), channel_comm_(&channel_comm), grad_(&grad),
        cpart_(cpart), coord_c_(coord_c),
        ar_tag_(slice_comm.next_internal_tag()),
        ag_tag_(channel_comm.next_internal_tag()) {}

  const char* name() const override { return "sliced-weight-grad"; }

 protected:
  bool begin() override {
    const Shape4& ws = grad_->shape();  // (F, C, Kh, Kw)
    const Box4 my_cols = channel_slice_box(cpart_, coord_c_, ws.n, ws.h, ws.w);
    slice_.resize(static_cast<std::size_t>(my_cols.volume()));
    pack_box(*grad_, my_cols, slice_.data());
    ar_ = comm::make_iallreduce(*slice_comm_, slice_.data(), slice_.size(),
                                comm::ReduceOp::kSum, comm::AllreduceAlgo::kAuto,
                                ar_tag_);
    ar_->start();
    return pump();
  }
  bool advance() override { return pump(); }
  void block() override {
    if (allgathering_) {
      ag_->wait_progress();
    } else {
      ar_->wait_progress();
    }
  }

 private:
  bool pump() {
    if (!allgathering_) {
      if (!ar_->progress()) return false;
      const Shape4& ws = grad_->shape();
      blocks_ = channel_slice_blocks(cpart_, ws.n, ws.h, ws.w);
      all_.resize(blocks_.total);
      ag_ = std::make_unique<comm::NbAllgatherv<float>>(
          *channel_comm_, slice_.data(), slice_.size(), all_.data(),
          blocks_.counts, blocks_.displs, ag_tag_);
      ag_->start();
      allgathering_ = true;
    }
    if (!ag_->progress()) return false;
    const Shape4& ws = grad_->shape();
    for (int q = 0; q < channel_comm_->size(); ++q) {
      unpack_box(all_.data() + blocks_.displs[q],
                 channel_slice_box(cpart_, q, ws.n, ws.h, ws.w), *grad_);
    }
    return true;
  }

  comm::Comm* slice_comm_;
  comm::Comm* channel_comm_;
  Tensor<float>* grad_;
  DimPartition cpart_;
  int coord_c_;
  int ar_tag_, ag_tag_;
  bool allgathering_ = false;
  std::vector<float> slice_, all_;
  SliceBlocks blocks_;
  std::unique_ptr<comm::NbOp> ar_;
  std::unique_ptr<comm::NbAllgatherv<float>> ag_;
};

/// One layer's small gradients (BN γ/β, biases) concatenated into a single
/// recursive-doubling allreduce to amortize latency. Recursive doubling
/// applies the reduction element-wise with the same partner order whatever
/// the buffer layout, and each bucketed gradient is individually at or
/// below the ring threshold, so per-gradient kAuto allreduces would compute
/// the bitwise-identical sums.
class SmallGradBucketOp final : public comm::NbOp {
 public:
  SmallGradBucketOp(comm::Comm& comm,
                    std::vector<std::pair<float*, std::size_t>> spans)
      : comm_(&comm), spans_(std::move(spans)),
        tag_(comm.next_internal_tag()) {}

  const char* name() const override { return "small-grad-bucket"; }

 protected:
  bool begin() override {
    std::size_t total = 0;
    for (const auto& s : spans_) total += s.second;
    buf_.resize(total);
    std::size_t off = 0;
    for (const auto& s : spans_) {
      std::copy(s.first, s.first + s.second, buf_.data() + off);
      off += s.second;
    }
    ar_ = std::make_unique<comm::NbAllreduceRd<float>>(
        *comm_, buf_.data(), buf_.size(), comm::ReduceOp::kSum, tag_);
    ar_->start();
    return pump();
  }
  bool advance() override { return pump(); }
  void block() override { ar_->wait_progress(); }

 private:
  bool pump() {
    if (!ar_->progress()) return false;
    std::size_t off = 0;
    for (const auto& s : spans_) {
      std::copy(buf_.data() + off, buf_.data() + off + s.second, s.first);
      off += s.second;
    }
    return true;
  }

  comm::Comm* comm_;
  std::vector<std::pair<float*, std::size_t>> spans_;
  int tag_;
  std::vector<float> buf_;
  std::unique_ptr<comm::NbAllreduceRd<float>> ar_;
};

/// Halo plans exchange with immediate neighbours only, so each margin must
/// fit in the neighbouring block that fills it (whatever lies past the
/// global boundary is padding). Raises an Error naming the layer, the tensor
/// and the dim, instead of the halo plan's anonymous requirement failure.
void require_margins_fit(const std::string& layer, const char* tensor,
                         const char* dim, const DimPartition& part,
                         const MarginTable& m) {
  for (int p = 0; p < part.parts(); ++p) {
    if (p > 0) {
      DC_REQUIRE(std::min(m.lo[p], part.start(p)) <= part.size(p - 1), "layer '",
                 layer, "': ", tensor, " ", dim, " margin ", m.lo[p],
                 " below part ", p, " is wider than the neighbour's block of ",
                 part.size(p - 1), ": partition too fine for the stencil");
    }
    if (p + 1 < part.parts()) {
      DC_REQUIRE(std::min(m.hi[p], part.global() - part.end(p)) <= part.size(p + 1),
                 "layer '", layer, "': ", tensor, " ", dim, " margin ", m.hi[p],
                 " above part ", p, " is wider than the neighbour's block of ",
                 part.size(p + 1), ": partition too fine for the stencil");
    }
  }
}

}  // namespace

Model::Model(const NetworkSpec& spec, comm::Comm& comm, const Strategy& strategy,
             std::uint64_t seed, ModelOptions opts)
    : spec_(&spec), comm_(&comm), strategy_(strategy), opts_(std::move(opts)) {
  DC_REQUIRE(static_cast<int>(strategy_.grids.size()) == spec.size(),
             "strategy has ", strategy_.grids.size(), " grids for ", spec.size(),
             " layers");
  for (int i = 0; i < spec.size(); ++i) {
    const auto& g = strategy_.grids[i];
    DC_REQUIRE(g.size() == comm.size(), "layer ", i, " grid ", g.str(),
               " does not span the communicator (", comm.size(), " ranks)");
  }

  const auto shapes = spec.infer_shapes();
  build_tensors(shapes);

  layer_obs_.reserve(spec.size());
  for (int i = 0; i < spec.size(); ++i) {
    const std::string base = "layer." + std::to_string(i);
    layer_obs_.push_back(LayerObs{
        obs::metrics::counter(base + ".fwd.ns"),
        obs::metrics::counter(base + ".fwd.blocked.ns"),
        obs::metrics::counter(base + ".bwd.ns"),
        obs::metrics::counter(base + ".bwd.blocked.ns")});
  }

  // Cross-grid edges indexed by producer, in (consumer, port) order — the
  // SPMD enqueue order of pre-posted forward shuffles.
  shuffle_children_.assign(spec.size(), {});
  pending_dy_.assign(spec.size(), {});
  for (int i = 0; i < spec.size(); ++i) {
    for (std::size_t k = 0; k < rts_[i].inputs.size(); ++k) {
      if (rts_[i].inputs[k].fwd_shuffle != nullptr) {
        shuffle_children_[rts_[i].inputs[k].parent].emplace_back(
            i, static_cast<int>(k));
      }
    }
  }

  // Parameters: deterministic per-layer streams so replicas agree bitwise.
  for (int i = 0; i < spec.size(); ++i) {
    Rng rng(seed, 1000 + static_cast<std::uint64_t>(i));
    spec.layer(i).init_params(rts_[i], rng);
    // Gradient liveness starts from has_params(); it must match what
    // init_params allocated.
    DC_CHECK(spec.layer(i).has_params() == !rts_[i].params.empty());
    for (const auto& p : rts_[i].params) {
      DC_CHECK(p.size() > 0);
    }
  }

  // Spatial-group communicators for layers that aggregate across the spatial
  // decomposition, and channel-group + slice communicators for conv layers
  // running the channel/filter-parallel schedule. Creation is collective and
  // happens in layer order on every rank.
  spatial_comms_.resize(spec.size());
  channel_comms_.resize(spec.size());
  slice_comms_.resize(spec.size());
  for (int i = 0; i < spec.size(); ++i) {
    const Layer& l = spec.layer(i);
    const ProcessGrid& g = strategy_.grids[i];
    const auto coord = g.coord_of(comm.rank());
    const auto* bn = dynamic_cast<const BatchNormLayer*>(&l);
    const bool needs = (bn != nullptr && bn->mode() == BatchNormMode::kSpatial) ||
                       dynamic_cast<const GlobalAvgPoolLayer*>(&l) != nullptr;
    if (needs) {
      const int color = coord.n * g.c + coord.c;
      spatial_comms_[i].emplace(comm.split(color, comm.rank()));
    }
    if (g.c > 1 && dynamic_cast<const Conv2dLayer*>(&l) != nullptr) {
      // Channel group: ranks differing only in the c coordinate. Keyed by
      // parent rank, so the group rank equals the c coordinate (ranks are
      // c-contiguous within a fixed (n, h, w)).
      const int group_color = (coord.n * g.h + coord.h) * g.w + coord.w;
      channel_comms_[i].emplace(comm.split(group_color, comm.rank()));
      slice_comms_[i].emplace(comm.split(coord.c, comm.rank()));
    }
  }

  for (int i = 0; i < spec.size(); ++i) {
    spec.layer(i).init_scratch(*this, i, rts_[i]);
  }
}

void Model::build_tensors(const std::vector<Shape4>& shapes) {
  const NetworkSpec& spec = *spec_;
  const auto children = spec.children();
  const auto live = spec.gradient_liveness();
  rts_.resize(spec.size());

  for (int i = 0; i < spec.size(); ++i) {
    auto& rt = rts_[i];
    rt.grid = strategy_.grids[i];
    rt.out_shape = shapes[i];
    for (int p : spec.layer(i).parents()) rt.in_shapes.push_back(shapes[p]);
  }

  for (int i = 0; i < spec.size(); ++i) {
    auto& rt = rts_[i];
    const Distribution out_dist = Distribution::make(rt.out_shape, rt.grid);

    // Margins on y: union of same-grid stencil consumers' needs.
    MarginTable ymh(rt.grid.h), ymw(rt.grid.w);
    for (int j : children[i]) {
      const Layer& child = spec.layer(j);
      if (!child.has_stencil()) continue;
      if (!(strategy_.grids[j] == rt.grid)) continue;  // staged edge instead
      const StencilSpec st = child.stencil();
      ymh.merge_max(forward_stencil_margins(
          out_dist.h, DimPartition(shapes[j].h, rt.grid.h), st));
      ymw.merge_max(forward_stencil_margins(
          out_dist.w, DimPartition(shapes[j].w, rt.grid.w), st));
    }
    const std::string& name = spec.layer(i).name();
    require_margins_fit(name, "y", "H", out_dist.h, ymh);
    require_margins_fit(name, "y", "W", out_dist.w, ymw);
    rt.y.t = DistTensor<float>(comm_, out_dist, ymh, ymw);
    rt.y.init_halo();

    // dy exists only when backward consumes it. Its margins serve the
    // transpose stencil of backward-data, so a layer computing no dx (the
    // first conv) gets none, and so no dy halo exchange either.
    rt.dy_live = live.dy[i];
    if (rt.dy_live) {
      MarginTable dmh(rt.grid.h), dmw(rt.grid.w);
      if (spec.layer(i).has_stencil() && live.ports[i][0]) {
        const StencilSpec st = spec.layer(i).stencil();
        dmh = transpose_stencil_margins(
            DimPartition(rt.in_shapes[0].h, rt.grid.h), out_dist.h, st);
        dmw = transpose_stencil_margins(
            DimPartition(rt.in_shapes[0].w, rt.grid.w), out_dist.w, st);
      }
      require_margins_fit(name, "dy", "H", out_dist.h, dmh);
      require_margins_fit(name, "dy", "W", out_dist.w, dmw);
      rt.dy.t = DistTensor<float>(comm_, out_dist, dmh, dmw);
      rt.dy.init_halo();
    }

    // Input ports.
    const auto& parents = spec.layer(i).parents();
    rt.inputs.resize(parents.size());
    for (std::size_t k = 0; k < parents.size(); ++k) {
      auto& port = rt.inputs[k];
      port.parent = parents[k];
      port.live = live.ports[i][k];
      const Shape4& in_shape = shapes[port.parent];
      const Distribution in_dist_mine = Distribution::make(in_shape, rt.grid);
      const ProcessGrid& pgrid = strategy_.grids[port.parent];
      if (pgrid == rt.grid) {
        port.read = &rts_[port.parent].y;
      } else {
        MarginTable smh(rt.grid.h), smw(rt.grid.w);
        if (spec.layer(i).has_stencil()) {
          const StencilSpec st = spec.layer(i).stencil();
          smh = forward_stencil_margins(in_dist_mine.h, out_dist.h, st);
          smw = forward_stencil_margins(in_dist_mine.w, out_dist.w, st);
        }
        require_margins_fit(name, "staged x", "H", in_dist_mine.h, smh);
        require_margins_fit(name, "staged x", "W", in_dist_mine.w, smw);
        port.staging = std::make_unique<ActTensor>();
        port.staging->t = DistTensor<float>(comm_, in_dist_mine, smh, smw);
        port.staging->init_halo();
        const Distribution in_dist_parent = Distribution::make(in_shape, pgrid);
        port.fwd_shuffle =
            std::make_unique<Shuffler<float>>(in_dist_parent, in_dist_mine, *comm_);
        if (port.live) {
          port.bwd_staging =
              std::make_unique<DistTensor<float>>(comm_, in_dist_parent);
          port.bwd_shuffle = std::make_unique<Shuffler<float>>(
              in_dist_mine, in_dist_parent, *comm_);
        }
        port.read = port.staging.get();
      }
      if (port.live) port.dx = DistTensor<float>(comm_, in_dist_mine);
    }
  }
}

comm::Comm& Model::spatial_comm(int layer) {
  DC_REQUIRE(layer >= 0 && layer < num_layers(), "bad layer index ", layer);
  DC_REQUIRE(spatial_comms_[layer].has_value(),
             "layer ", layer, " has no spatial communicator");
  return *spatial_comms_[layer];
}

comm::Comm& Model::channel_comm(int layer) {
  DC_REQUIRE(layer >= 0 && layer < num_layers(), "bad layer index ", layer);
  DC_REQUIRE(channel_comms_[layer].has_value(),
             "layer ", layer, " has no channel-group communicator");
  return *channel_comms_[layer];
}

comm::Comm& Model::slice_comm(int layer) {
  DC_REQUIRE(layer >= 0 && layer < num_layers(), "bad layer index ", layer);
  DC_REQUIRE(slice_comms_[layer].has_value(),
             "layer ", layer, " has no slice communicator");
  return *slice_comms_[layer];
}

void Model::set_input(int layer, const Tensor<float>& global) {
  auto& rt = rts_[layer];
  DC_REQUIRE(dynamic_cast<const InputLayer*>(&spec_->layer(layer)) != nullptr,
             "layer ", layer, " is not an input layer");
  DC_REQUIRE(global.shape() == rt.out_shape, "input shape ", global.shape().str(),
             " does not match declared ", rt.out_shape.str());
  copy_box(global, rt.y.t.owned_box(), rt.y.t.buffer(), rt.y.t.interior_box());
  rt.y.mark_stale();
}

void Model::forward(Mode mode) {
  mode_ = mode;
  const bool timing = obs::timing_enabled();
  for (int i = 0; i < num_layers(); ++i) {
    const std::int64_t t0 = timing ? obs::trace::now_ns() : 0;
    const std::uint64_t w0 =
        timing ? obs::thread_wait_totals().total_ns() : 0;
    auto& rt = rts_[i];
    for (auto& port : rt.inputs) {
      if (port.fwd_shuffle != nullptr) {
        // Pre-posted when the parent finished; the rounds advanced behind
        // the layers in between, so this usually just retires the op.
        DC_CHECK(port.pending_fwd_shuffle != 0);
        engine_.drain_until(port.pending_fwd_shuffle);
        port.pending_fwd_shuffle = 0;
        port.staging->mark_stale();
      }
    }
    spec_->layer(i).forward(*this, i, rt);
    rt.y.mark_stale();
    // This layer's output is final: pre-post every consumer shuffle fed by
    // it (topological order guarantees consumers run later).
    for (const auto& [child, k] : shuffle_children_[i]) {
      auto& cport = rts_[child].inputs[k];
      cport.pending_fwd_shuffle =
          engine_.enqueue(cport.fwd_shuffle->make_op(rt.y.t, cport.staging->t));
    }
    if (timing) {
      const std::int64_t dur = obs::trace::now_ns() - t0;
      layer_obs_[i].fwd_ns.add(static_cast<std::uint64_t>(dur));
      layer_obs_[i].fwd_blocked_ns.add(obs::thread_wait_totals().total_ns() -
                                       w0);
      const obs::trace::Arg args[] = {{"layer", static_cast<double>(i)}};
      obs::trace::emit_complete("layer.fwd", "layer", t0, dur, args, 1);
    }
  }
  loss_seeded_ = false;
}

double Model::loss_bce(const Tensor<float>& global_targets,
                       std::int64_t grad_scale_count) {
  auto& rt = rts_[output_layer()];
  DC_REQUIRE(global_targets.shape() == rt.out_shape, "target shape ",
             global_targets.shape().str(), " != output shape ",
             rt.out_shape.str());
  zero_error_signals();
  const Box4 ib = rt.y.t.interior_box();
  const Box4 ob = rt.y.t.owned_box();
  double loss = kernels::sigmoid_bce_forward(rt.y.t.buffer(), ib, global_targets,
                                             ob);
  comm::allreduce(*comm_, &loss, 1, comm::ReduceOp::kSum);
  const double total = static_cast<double>(rt.out_shape.size());
  const double grad_total =
      grad_scale_count > 0 ? static_cast<double>(grad_scale_count) : total;
  if (rt.dy_live) {
    kernels::sigmoid_bce_backward(rt.y.t.buffer(), ib, global_targets, ob,
                                  rt.dy.t.buffer(), rt.dy.t.interior_box(),
                                  static_cast<float>(1.0 / grad_total));
  }
  loss_seeded_ = true;
  return loss / total;
}

double Model::loss_softmax(const std::vector<int>& labels,
                           std::int64_t grad_scale_count) {
  auto& rt = rts_[output_layer()];
  DC_REQUIRE(rt.out_shape.h == 1 && rt.out_shape.w == 1,
             "softmax head expects (N, classes, 1, 1) output, got ",
             rt.out_shape.str());
  DC_REQUIRE(rt.grid.h == 1 && rt.grid.w == 1 && rt.grid.c == 1,
             "softmax head requires a sample-parallel grid for the last layer "
             "(the per-sample softmax reads all classes locally)");
  DC_REQUIRE(static_cast<std::int64_t>(labels.size()) == rt.out_shape.n,
             "label count mismatch");
  zero_error_signals();

  const std::int64_t n_loc = rt.y.t.local_shape().n;
  const std::int64_t ns = rt.y.t.owned_start(0);
  const std::int64_t cls = rt.out_shape.c;
  double loss = 0.0;
  if (n_loc > 0) {
    Tensor<float> logits(Shape4{n_loc, cls, 1, 1});
    pack_box(rt.y.t.buffer(), rt.y.t.interior_box(), logits.data());
    std::vector<int> local_labels(labels.begin() + ns,
                                  labels.begin() + ns + n_loc);
    Tensor<float> probs(logits.shape());
    loss = kernels::softmax_xent_forward(logits, local_labels, probs);
    const double grad_total = grad_scale_count > 0
                                  ? static_cast<double>(grad_scale_count)
                                  : static_cast<double>(rt.out_shape.n);
    Tensor<float> dlogits(logits.shape());
    kernels::softmax_xent_backward(probs, local_labels, dlogits,
                                   static_cast<float>(1.0 / grad_total));
    if (rt.dy_live) {
      unpack_box(dlogits.data(), rt.dy.t.interior_box(), rt.dy.t.buffer());
    }
  }
  comm::allreduce(*comm_, &loss, 1, comm::ReduceOp::kSum);
  loss_seeded_ = true;
  return loss / static_cast<double>(rt.out_shape.n);
}

void Model::zero_error_signals() {
  for (auto& r : rts_) {
    if (!r.dy_live) continue;
    r.dy.t.zero();
    r.dy.mark_stale();
  }
}

std::uint64_t Model::post_refresh(ActTensor& a) {
  if (a.fresh || a.halo == nullptr) return 0;
  return engine_.enqueue(std::make_unique<HaloRefreshOp<float>>(
      *a.halo, HaloOp::kReplace, a.t.comm()));
}

void Model::finish_refresh(ActTensor& a, std::uint64_t ticket) {
  if (ticket == 0) return;
  engine_.drain_until(ticket);
  a.fresh = true;
}

void Model::defer_parent_dy(int layer) {
  auto& rt = rts_[layer];
  for (std::size_t k = 0; k < rt.inputs.size(); ++k) {
    auto& port = rt.inputs[k];
    if (!port.live) continue;
    if (port.bwd_shuffle != nullptr) {
      port.pending_bwd_shuffle =
          engine_.enqueue(port.bwd_shuffle->make_op(port.dx, *port.bwd_staging));
    }
    pending_dy_[port.parent].emplace_back(layer, static_cast<int>(k));
  }
}

void Model::apply_pending_dy(int layer) {
  auto& pending = pending_dy_[layer];
  if (pending.empty()) return;
  auto& pdy = rts_[layer].dy;
  // Children were recorded in descending layer order, so the sums into dy
  // follow one fixed order; the shuffles' wire time stays off the critical
  // path.
  for (const auto& [child, k] : pending) {
    auto& port = rts_[child].inputs[k];
    if (port.bwd_shuffle != nullptr) {
      engine_.drain_until(port.pending_bwd_shuffle);
      port.pending_bwd_shuffle = 0;
      kernels::add_inplace(pdy.t.buffer(), pdy.t.interior_box(),
                           port.bwd_staging->buffer(),
                           port.bwd_staging->interior_box());
    } else {
      kernels::add_inplace(pdy.t.buffer(), pdy.t.interior_box(),
                           port.dx.buffer(), port.dx.interior_box());
    }
    pdy.mark_stale();
  }
  pending.clear();
}

void Model::zero_gradients() {
  for (auto& rt : rts_) {
    for (auto& g : rt.grads) g.zero();
  }
}

void Model::allreduce_gradients() {
  // Complete dL/dw: allreduce over every rank (weights are replicated on
  // all of them — the BPa_ℓ term of the performance model), in the reverse
  // layer order of the backprop schedule the overlapped path follows.
  for (int i = num_layers() - 1; i >= 0; --i) enqueue_gradient_completion(i);
  engine_.drain();
}

void Model::enqueue_gradient_completion(int layer) {
  auto& rt = rts_[layer];
  if (rt.grads.empty()) return;
  // All gradient-completion ops share the "gradreduce" obs label so the
  // model comparison can sum comm.op.gradreduce.* regardless of which route
  // (full iallreduce, sliced, or bucketed) a gradient took.
  const auto tag_and_enqueue = [&](std::unique_ptr<comm::NbOp> op,
                                   std::uint64_t bytes) {
    op->set_obs_label("gradreduce");
    op->set_obs_bytes(bytes);
    engine_.enqueue(std::move(op));
  };
  // Channel-parallel conv layers computed only the channel-slice columns of
  // their weight gradient, so those take the shrunk slice allreduce +
  // allgather route; their bias gradients (disjoint filter slices, zeros
  // elsewhere) and every other layer's gradients sum over the full
  // communicator.
  std::vector<std::pair<float*, std::size_t>> small;
  for (std::size_t k = 0; k < rt.grads.size(); ++k) {
    auto& g = rt.grads[k];
    const auto n = static_cast<std::size_t>(g.size());
    if (k == 0 && is_channel_parallel(layer)) {
      const ProcessGrid& grid = rt.grid;
      tag_and_enqueue(std::make_unique<SlicedWeightGradOp>(
                          slice_comm(layer), channel_comm(layer), g,
                          DimPartition(g.shape().c, grid.c),
                          grid.coord_of(comm_->rank()).c),
                      n * sizeof(float));
    } else if (n * sizeof(float) <= comm::kAllreduceRingThresholdBytes) {
      small.emplace_back(g.data(), n);
    } else {
      tag_and_enqueue(comm::make_iallreduce(*comm_, g.data(), n,
                                            comm::ReduceOp::kSum),
                      n * sizeof(float));
    }
  }
  if (!small.empty()) {
    std::uint64_t small_bytes = 0;
    for (const auto& s : small) small_bytes += s.second * sizeof(float);
    tag_and_enqueue(
        std::make_unique<SmallGradBucketOp>(*comm_, std::move(small)),
        small_bytes);
  }
}

void Model::backward(bool accumulate) { backward(accumulate, !accumulate); }

void Model::backward(bool accumulate, bool complete) {
  DC_REQUIRE(loss_seeded_, "backward() requires a prior loss_*() call");
  DC_REQUIRE(mode_ == Mode::kTraining,
             "backward() requires a training-mode forward(): an inference "
             "forward normalizes with running statistics, which the batchnorm "
             "backward kernels do not differentiate through");
  DC_CHECK(engine_.idle());
  if (!accumulate) zero_gradients();
  const bool overlap = complete && opts_.overlap_allreduce;
  grad_completion_seconds_ = 0;
  const bool timing = obs::timing_enabled();
  for (int i = num_layers() - 1; i >= 0; --i) {
    const std::int64_t lt0 = timing ? obs::trace::now_ns() : 0;
    const std::uint64_t lw0 =
        timing ? obs::thread_wait_totals().total_ns() : 0;
    auto& rt = rts_[i];
    // Children ran already (reverse order): fold their deferred error
    // contributions into this layer's dy before its backward reads it.
    apply_pending_dy(i);
    // A layer whose dL/dy nothing consumes (no parameters, no live input
    // port) has no backward at all.
    if (rt.dy_live) {
      spec_->layer(i).backward(*this, i, rt);
      defer_parent_dy(i);
    }
    // This layer's gradients are final (later layers only touch their own):
    // put their completion on the wire behind whatever is already in
    // flight — the engine-side realization of the model's greedy
    // single-channel schedule. Then poll so finished ops free the channel.
    if (overlap) enqueue_gradient_completion(i);
    engine_.progress();
    if (timing) {
      const std::int64_t dur = obs::trace::now_ns() - lt0;
      layer_obs_[i].bwd_ns.add(static_cast<std::uint64_t>(dur));
      layer_obs_[i].bwd_blocked_ns.add(obs::thread_wait_totals().total_ns() -
                                       lw0);
      const obs::trace::Arg args[] = {{"layer", static_cast<double>(i)}};
      obs::trace::emit_complete("layer.bwd", "layer", lt0, dur, args, 1);
    }
  }
  if (complete) {
    // Waits from here to the end of the drain are the step's completion
    // tail: gradient sums that did not hide behind backprop compute.
    obs::TailPhase tail_phase;
    obs::trace::Span tail_span("grad-completion", "step");
    const auto t0 = std::chrono::steady_clock::now();
    if (overlap) {
      engine_.drain();
    } else {
      allreduce_gradients();
    }
    grad_completion_seconds_ =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  } else {
    engine_.drain();  // accumulation steps leave no shuffle ops in flight
  }
  loss_seeded_ = false;
}

void Model::sgd_step(const kernels::SgdConfig& cfg) {
  for (auto& rt : rts_) {
    if (rt.params.empty()) continue;
    if (cfg.momentum != 0.0f && rt.velocity.size() != rt.params.size()) {
      rt.velocity.clear();
      for (const auto& p : rt.params) rt.velocity.emplace_back(p.shape());
    }
    for (std::size_t k = 0; k < rt.params.size(); ++k) {
      float* vel = cfg.momentum != 0.0f ? rt.velocity[k].data() : nullptr;
      kernels::sgd_update(rt.params[k].data(), rt.grads[k].data(), vel,
                          static_cast<std::size_t>(rt.params[k].size()), cfg);
    }
  }
}

Tensor<float> Model::gather_output(int layer) {
  return gather_to_all(rts_[layer].y.t);
}

std::int64_t Model::num_parameters() const {
  std::int64_t n = 0;
  for (const auto& rt : rts_) {
    for (const auto& p : rt.params) n += p.size();
  }
  return n;
}

std::int64_t Model::activation_bytes() const {
  std::int64_t bytes = 0;
  for (const auto& rt : rts_) {
    bytes += rt.y.t.buffer().size() * static_cast<std::int64_t>(sizeof(float));
    bytes += rt.dy.t.buffer().size() * static_cast<std::int64_t>(sizeof(float));
    for (const auto& port : rt.inputs) {
      bytes += port.dx.buffer().size() * static_cast<std::int64_t>(sizeof(float));
      if (port.staging != nullptr) {
        bytes += port.staging->t.buffer().size() *
                 static_cast<std::int64_t>(sizeof(float));
      }
    }
  }
  return bytes;
}

}  // namespace distconv::core
