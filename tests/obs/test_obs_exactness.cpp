// Observability must be a pure observer: enabling metrics + tracing may not
// change a single bit of the training computation. One forward + BCE loss +
// backward + SGD step runs twice — obs off, then obs on — under sample,
// spatial and channel parallelism, and outputs, losses and post-update
// parameters must match bitwise.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "core/layers.hpp"
#include "core/model.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace distconv::core {
namespace {

struct RunResult {
  Tensor<float> output;
  double loss = 0.0;
  std::vector<Tensor<float>> params;
};

Tensor<float> make_input(const Shape4& shape, std::uint64_t seed) {
  Tensor<float> t(shape);
  Rng rng(seed);
  t.fill_uniform(rng, -1.0f, 1.0f);
  return t;
}

Tensor<float> make_targets(const Shape4& shape, std::uint64_t seed) {
  Tensor<float> t(shape);
  Rng rng(seed ^ 0xb0beull);
  for (std::int64_t i = 0; i < t.size(); ++i) {
    t.data()[i] = rng.uniform() < 0.5 ? 0.0f : 1.0f;
  }
  return t;
}

NetworkSpec small_conv_net() {
  NetworkBuilder nb;
  const int in = nb.input(Shape4{4, 3, 16, 16});
  int x = nb.conv("c1", in, 6, 3, 1);
  x = nb.batchnorm("bn1", x, BatchNormMode::kGlobal);
  x = nb.relu("r1", x);
  x = nb.conv("c2", x, 8, 5, 2);
  x = nb.relu("r2", x);
  x = nb.conv("head", x, 1, 1, 1, 0, /*bias=*/true);
  return nb.take();
}

RunResult run_once(int ranks,
                   const std::function<Strategy(int, int)>& make_strategy,
                   bool obs_on) {
  // The collection switches are process-global; flip them around the run and
  // always restore the off state so the reference runs stay uninstrumented.
  obs::metrics::set_enabled(obs_on);
  obs::trace::set_enabled(obs_on);
  RunResult result;
  comm::World world(ranks);
  world.run([&](comm::Comm& comm) {
    const NetworkSpec spec = small_conv_net();
    Model model(spec, comm, make_strategy(spec.size(), ranks), /*seed=*/7);
    const Shape4 in_shape = model.rt(0).out_shape;
    const Shape4 out_shape = model.rt(model.output_layer()).out_shape;
    model.set_input(0, make_input(in_shape, 99));
    model.forward();
    const double loss = model.loss_bce(make_targets(out_shape, 55));
    model.backward();
    model.sgd_step(kernels::SgdConfig{0.05f, 0.9f, 1e-4f});
    Tensor<float> out = model.gather_output(model.output_layer());
    if (comm.rank() == 0) {
      result.output = std::move(out);
      result.loss = loss;
      for (int i = 0; i < model.num_layers(); ++i) {
        for (const auto& p : model.rt(i).params) result.params.push_back(p);
      }
    }
  });
  obs::metrics::set_enabled(false);
  obs::trace::set_enabled(false);
  obs::metrics::reset();
  obs::trace::reset();
  return result;
}

void expect_bitwise(const RunResult& got, const RunResult& ref) {
  EXPECT_EQ(got.loss, ref.loss);
  ASSERT_EQ(got.output.shape(), ref.output.shape());
  for (std::int64_t i = 0; i < got.output.size(); ++i) {
    ASSERT_EQ(got.output.data()[i], ref.output.data()[i])
        << "output diverges at flat index " << i;
  }
  ASSERT_EQ(got.params.size(), ref.params.size());
  for (std::size_t p = 0; p < got.params.size(); ++p) {
    ASSERT_EQ(got.params[p].size(), ref.params[p].size());
    for (std::int64_t i = 0; i < got.params[p].size(); ++i) {
      ASSERT_EQ(got.params[p].data()[i], ref.params[p].data()[i])
          << "param " << p << " diverges at flat index " << i;
    }
  }
}

TEST(ObsExactness, InstrumentationIsBitwiseInvisibleAcrossStrategies) {
  struct StrategyCase {
    const char* name;
    std::function<Strategy(int, int)> make;
  };
  const std::vector<StrategyCase> strategies = {
      {"sample4", [](int l, int p) { return Strategy::sample_parallel(l, p); }},
      {"spatial_2x2",
       [](int l, int) { return Strategy::uniform(l, ProcessGrid{1, 1, 2, 2}); }},
      {"channel4",
       [](int l, int) { return Strategy::uniform(l, ProcessGrid{1, 4, 1, 1}); }},
  };
  for (const auto& sc : strategies) {
    SCOPED_TRACE(sc.name);
    const RunResult ref = run_once(4, sc.make, /*obs_on=*/false);
    const RunResult got = run_once(4, sc.make, /*obs_on=*/true);
    expect_bitwise(got, ref);
  }
}

}  // namespace
}  // namespace distconv::core
