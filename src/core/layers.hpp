// Concrete layer types. See layer.hpp for the execution contract.
#pragma once

#include "core/layer.hpp"
#include "kernels/pooling.hpp"

namespace distconv::core {

class InputLayer final : public Layer {
 public:
  InputLayer(std::string name, const Shape4& shape)
      : Layer(std::move(name), {}), shape_(shape) {}
  Shape4 infer_shape(const std::vector<Shape4>&) const override { return shape_; }
  void forward(Model&, int, LayerRt&) const override {}
  void backward(Model&, int, LayerRt&) const override {}

 private:
  Shape4 shape_;
};

/// Distributed 2D convolution — the paper's core algorithm (§III-A): halo
/// exchange on x, local cuDNN-style kernels, halo exchange on dL/dy in
/// backprop, allreduce on dL/dw, with interior/boundary overlap (§IV-A).
///
/// Grids with c > 1 run the channel/filter-parallel schedule of §III-D
/// instead: x is partitioned on C and y on F over the channel group; forward
/// allgathers x and computes the owned filter slice against all channels,
/// backward allgathers dL/dy over the filter slices and runs exact local
/// kernels against the weight column slice, and the weight gradient is
/// completed per slice (see README "Channel/filter parallelism").
class Conv2dLayer final : public Layer {
 public:
  Conv2dLayer(std::string name, int parent, int filters, int kernel, int stride,
              int pad, bool bias)
      : Layer(std::move(name), {parent}), filters_(filters), kernel_(kernel),
        stride_(stride), pad_(pad), bias_(bias) {}

  Shape4 infer_shape(const std::vector<Shape4>& in) const override;
  StencilSpec stencil() const override { return {kernel_, stride_, pad_}; }
  bool has_params() const override { return true; }
  void init_params(LayerRt& rt, Rng& rng) const override;
  void init_scratch(Model& model, int index, LayerRt& rt) const override;
  void forward(Model& model, int index, LayerRt& rt) const override;
  void backward(Model& model, int index, LayerRt& rt) const override;

  int filters() const { return filters_; }
  bool has_bias() const { return bias_; }
  kernels::ConvParams conv_params() const {
    return {kernel_, kernel_, stride_, stride_, pad_, pad_};
  }

 private:
  /// Channel-parallel forward: allgather x over the channel group, then
  /// compute the owned filter slice against *all* input channels locally.
  /// Every output element keeps the single-rank oracle's accumulation chain,
  /// so the distributed forward is bitwise exact.
  void forward_channel(Model& model, int index, LayerRt& rt) const;
  void backward_channel(Model& model, int index, LayerRt& rt) const;

  int filters_, kernel_, stride_, pad_;
  bool bias_;
};

class Pool2dLayer final : public Layer {
 public:
  Pool2dLayer(std::string name, int parent, kernels::PoolMode mode, int kernel,
              int stride, int pad)
      : Layer(std::move(name), {parent}), mode_(mode), kernel_(kernel),
        stride_(stride), pad_(pad) {}

  Shape4 infer_shape(const std::vector<Shape4>& in) const override;
  StencilSpec stencil() const override { return {kernel_, stride_, pad_}; }
  void init_scratch(Model& model, int index, LayerRt& rt) const override;
  void forward(Model& model, int index, LayerRt& rt) const override;
  void backward(Model& model, int index, LayerRt& rt) const override;

  kernels::PoolParams pool_params() const {
    return {kernel_, kernel_, stride_, stride_, pad_, pad_, mode_};
  }

 private:
  kernels::PoolMode mode_;
  int kernel_, stride_, pad_;
};

class BatchNormLayer final : public Layer {
 public:
  BatchNormLayer(std::string name, int parent, BatchNormMode mode)
      : Layer(std::move(name), {parent}), mode_(mode) {}

  Shape4 infer_shape(const std::vector<Shape4>& in) const override {
    return in[0];
  }
  bool has_params() const override { return true; }
  void init_params(LayerRt& rt, Rng& rng) const override;
  void init_buffers(LayerRt& rt) const override;
  void init_scratch(Model& model, int index, LayerRt& rt) const override;
  void forward(Model& model, int index, LayerRt& rt) const override;
  void backward(Model& model, int index, LayerRt& rt) const override;
  BatchNormMode mode() const { return mode_; }

  /// rt.buffers layout: [0] running mean (1, C, 1, 1), [1] running variance
  /// (population, biased), [2] a (1, 1, 1, 1) update counter — 0 means "no
  /// running statistics yet" (fresh model or v1 checkpoint), in which case
  /// inference falls back to batch statistics with a logged warning.
  static bool has_running_stats(const LayerRt& rt) {
    return rt.buffers.size() == 3 && rt.buffers[2].data()[0] > 0.0f;
  }

 private:
  BatchNormMode mode_;
};

class ReluLayer final : public Layer {
 public:
  ReluLayer(std::string name, int parent) : Layer(std::move(name), {parent}) {}
  Shape4 infer_shape(const std::vector<Shape4>& in) const override {
    return in[0];
  }
  void forward(Model& model, int index, LayerRt& rt) const override;
  void backward(Model& model, int index, LayerRt& rt) const override;
};

/// Element-wise sum of two parents (residual connections).
class AddLayer final : public Layer {
 public:
  AddLayer(std::string name, int a, int b) : Layer(std::move(name), {a, b}) {}
  Shape4 infer_shape(const std::vector<Shape4>& in) const override;
  void forward(Model& model, int index, LayerRt& rt) const override;
  void backward(Model& model, int index, LayerRt& rt) const override;
};

/// Global average pooling to (N, C, 1, 1); aggregates across the spatial
/// decomposition with an allreduce over the sample group.
class GlobalAvgPoolLayer final : public Layer {
 public:
  GlobalAvgPoolLayer(std::string name, int parent)
      : Layer(std::move(name), {parent}) {}
  Shape4 infer_shape(const std::vector<Shape4>& in) const override {
    return Shape4{in[0].n, in[0].c, 1, 1};
  }
  void forward(Model& model, int index, LayerRt& rt) const override;
  void backward(Model& model, int index, LayerRt& rt) const override;
};

/// Fully-connected layer in the sample-parallel regime (weights replicated,
/// local GEMM, gradient allreduce). Requires a spatially-trivial grid; the
/// strategy layer arranges the preceding shuffle, mirroring the paper's
/// conv→FC redistribution (§III-C).
class FullyConnectedLayer final : public Layer {
 public:
  FullyConnectedLayer(std::string name, int parent, int out_features, bool bias)
      : Layer(std::move(name), {parent}), out_(out_features), bias_(bias) {}
  Shape4 infer_shape(const std::vector<Shape4>& in) const override {
    return Shape4{in[0].n, out_, 1, 1};
  }
  bool has_params() const override { return true; }
  void init_params(LayerRt& rt, Rng& rng) const override;
  void forward(Model& model, int index, LayerRt& rt) const override;
  void backward(Model& model, int index, LayerRt& rt) const override;

 private:
  int out_;
  bool bias_;
};

}  // namespace distconv::core
