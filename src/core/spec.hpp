// NetworkSpec: an immutable DAG of layers (§II-C3 "we think of a CNN as a
// directed acyclic graph"), plus a fluent builder.
//
// Layers must be added parents-first, so insertion order is a topological
// order; residual connections are expressed with AddLayer nodes carrying two
// parents.
#pragma once

#include <memory>
#include <vector>

#include "core/layer.hpp"
#include "kernels/pooling.hpp"

namespace distconv::core {

class NetworkSpec {
 public:
  /// Append a layer; all parents must already be present. Returns the index.
  int add(std::unique_ptr<Layer> layer);

  int size() const { return static_cast<int>(layers_.size()); }
  const Layer& layer(int i) const;

  /// Global output shape of every layer (index-aligned).
  std::vector<Shape4> infer_shapes() const;

  /// Children adjacency (index-aligned).
  std::vector<std::vector<int>> children() const;

  /// Which error signals backpropagation consumes, from the graph alone.
  /// dL/dy of layer i is live iff layer i has trainable parameters or some
  /// parent's dL/dy is live; input port k of layer i is live iff its
  /// parent's dL/dy is live. A layer's backward runs iff its dL/dy is live,
  /// and computes dL/dx only for live ports. The runtime (Model) and the §V
  /// cost model both read this, so they agree on what backward does.
  struct GradientLiveness {
    std::vector<bool> dy;                  ///< per layer
    std::vector<std::vector<bool>> ports;  ///< per layer, per parent edge
  };
  GradientLiveness gradient_liveness() const;

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

/// Convenience builder. Methods return the new layer's index.
class NetworkBuilder {
 public:
  int input(const Shape4& shape, const std::string& name = "input");
  int conv(const std::string& name, int parent, int filters, int kernel,
           int stride = 1, int pad = -1 /* -1 → kernel/2 ("same") */,
           bool bias = false);
  int pool_max(const std::string& name, int parent, int kernel, int stride,
               int pad = 0);
  int pool_avg(const std::string& name, int parent, int kernel, int stride,
               int pad = 0);
  int batchnorm(const std::string& name, int parent,
                BatchNormMode mode = BatchNormMode::kGlobal);
  int relu(const std::string& name, int parent);
  int add(const std::string& name, int a, int b);
  int global_avg_pool(const std::string& name, int parent);
  int fully_connected(const std::string& name, int parent, int out_features,
                      bool bias = true);

  /// conv → batchnorm → relu block.
  int conv_bn_relu(const std::string& prefix, int parent, int filters, int kernel,
                   int stride = 1, BatchNormMode bn = BatchNormMode::kGlobal);

  NetworkSpec take() { return std::move(spec_); }
  NetworkSpec& spec() { return spec_; }

 private:
  NetworkSpec spec_;
};

}  // namespace distconv::core
