#include "core/spec.hpp"

#include "core/layers.hpp"
#include "support/error.hpp"

namespace distconv::core {
namespace {

/// Window geometry every stencil layer needs: a non-empty kernel that moves,
/// and padding that leaves every window at least one input pixel.
void validate_window(const std::string& name, int kernel, int stride, int pad) {
  DC_REQUIRE(kernel >= 1, "layer '", name, "': kernel ", kernel, " < 1");
  DC_REQUIRE(stride >= 1, "layer '", name, "': stride ", stride, " < 1");
  DC_REQUIRE(pad >= 0 && pad < kernel, "layer '", name, "': pad ", pad,
             " outside [0, kernel ", kernel, ")");
}

}  // namespace

int NetworkSpec::add(std::unique_ptr<Layer> layer) {
  DC_REQUIRE(layer != nullptr, "null layer");
  const int index = size();
  for (int p : layer->parents()) {
    DC_REQUIRE(p >= 0 && p < index, "layer '", layer->name(), "' references parent ",
               p, " which does not precede it (layers must be added in "
               "topological order)");
  }
  layers_.push_back(std::move(layer));
  return index;
}

const Layer& NetworkSpec::layer(int i) const {
  DC_REQUIRE(i >= 0 && i < size(), "layer index ", i, " out of range");
  return *layers_[i];
}

std::vector<Shape4> NetworkSpec::infer_shapes() const {
  std::vector<Shape4> shapes;
  shapes.reserve(layers_.size());
  for (const auto& l : layers_) {
    std::vector<Shape4> in;
    in.reserve(l->parents().size());
    for (int p : l->parents()) in.push_back(shapes[p]);
    shapes.push_back(l->infer_shape(in));
  }
  return shapes;
}

std::vector<std::vector<int>> NetworkSpec::children() const {
  std::vector<std::vector<int>> ch(layers_.size());
  for (int i = 0; i < size(); ++i) {
    for (int p : layers_[i]->parents()) ch[p].push_back(i);
  }
  return ch;
}

NetworkSpec::GradientLiveness NetworkSpec::gradient_liveness() const {
  GradientLiveness live;
  live.dy.assign(layers_.size(), false);
  live.ports.resize(layers_.size());
  // Insertion order is topological, so every parent is decided first.
  for (int i = 0; i < size(); ++i) {
    bool any_port = false;
    for (int p : layers_[i]->parents()) {
      live.ports[i].push_back(live.dy[p]);
      any_port = any_port || live.dy[p];
    }
    live.dy[i] = layers_[i]->has_params() || any_port;
  }
  return live;
}

int NetworkBuilder::input(const Shape4& shape, const std::string& name) {
  return spec_.add(std::make_unique<InputLayer>(name, shape));
}

int NetworkBuilder::conv(const std::string& name, int parent, int filters,
                         int kernel, int stride, int pad, bool bias) {
  if (pad == -1) pad = kernel / 2;
  DC_REQUIRE(filters >= 1, "layer '", name, "': filters ", filters, " < 1");
  validate_window(name, kernel, stride, pad);
  return spec_.add(std::make_unique<Conv2dLayer>(name, parent, filters, kernel,
                                                 stride, pad, bias));
}

int NetworkBuilder::pool_max(const std::string& name, int parent, int kernel,
                             int stride, int pad) {
  validate_window(name, kernel, stride, pad);
  return spec_.add(std::make_unique<Pool2dLayer>(name, parent,
                                                 kernels::PoolMode::kMax, kernel,
                                                 stride, pad));
}

int NetworkBuilder::pool_avg(const std::string& name, int parent, int kernel,
                             int stride, int pad) {
  validate_window(name, kernel, stride, pad);
  return spec_.add(std::make_unique<Pool2dLayer>(
      name, parent, kernels::PoolMode::kAverage, kernel, stride, pad));
}

int NetworkBuilder::batchnorm(const std::string& name, int parent,
                              BatchNormMode mode) {
  return spec_.add(std::make_unique<BatchNormLayer>(name, parent, mode));
}

int NetworkBuilder::relu(const std::string& name, int parent) {
  return spec_.add(std::make_unique<ReluLayer>(name, parent));
}

int NetworkBuilder::add(const std::string& name, int a, int b) {
  return spec_.add(std::make_unique<AddLayer>(name, a, b));
}

int NetworkBuilder::global_avg_pool(const std::string& name, int parent) {
  return spec_.add(std::make_unique<GlobalAvgPoolLayer>(name, parent));
}

int NetworkBuilder::fully_connected(const std::string& name, int parent,
                                    int out_features, bool bias) {
  DC_REQUIRE(out_features >= 1, "layer '", name, "': out_features ",
             out_features, " < 1");
  return spec_.add(
      std::make_unique<FullyConnectedLayer>(name, parent, out_features, bias));
}

int NetworkBuilder::conv_bn_relu(const std::string& prefix, int parent,
                                 int filters, int kernel, int stride,
                                 BatchNormMode bn) {
  const int c = conv(prefix, parent, filters, kernel, stride);
  const int b = batchnorm(prefix + "_bn", c, bn);
  return relu(prefix + "_relu", b);
}

}  // namespace distconv::core
