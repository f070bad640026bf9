// Regression tests for decomposition edge cases: empty local blocks (more
// ranks than rows/samples), stride-2 stacks shrinking domains below the grid
// size, and deep models whose late layers collapse to 1×1.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/layers.hpp"
#include "core/model.hpp"
#include "models/models.hpp"

namespace distconv::core {
namespace {

Tensor<float> gather_params_digest(Model& model) {
  // Hash-ish digest: concatenated first/last weights of each layer.
  std::vector<float> values;
  for (int i = 0; i < model.num_layers(); ++i) {
    for (const auto& p : model.rt(i).params) {
      values.push_back(p.data()[0]);
      values.push_back(p.data()[p.size() - 1]);
    }
  }
  Tensor<float> t(Shape4{1, 1, 1, static_cast<std::int64_t>(values.size())});
  std::copy(values.begin(), values.end(), t.data());
  return t;
}

// The regression that bit the mesh model: a stride-2 conv whose output has
// fewer rows than the spatial grid leaves some ranks with input rows but an
// empty output block; their backward-data still needs dL/dy halos.
TEST(EdgeCases, EmptyOutputBlocksBackpropagate) {
  comm::World world(4);
  world.run([](comm::Comm& comm) {
    NetworkBuilder nb;
    const int in = nb.input(Shape4{2, 2, 4, 4});
    int x = nb.conv("c1", in, 4, 3, 2);   // 4x4 -> 2x2
    x = nb.conv("c2", x, 4, 3, 2);        // 2x2 -> 1x1 (empty blocks on 2x2 grid)
    x = nb.conv("head", x, 1, 1, 1, 0, true);
    const NetworkSpec spec = nb.take();
    Model model(spec, comm, Strategy::uniform(spec.size(), ProcessGrid{1, 1, 2, 2}),
                3);
    Tensor<float> input(Shape4{2, 2, 4, 4});
    Rng rng(1);
    input.fill_uniform(rng);
    model.set_input(0, input);
    model.forward();
    Tensor<float> targets(model.rt(model.output_layer()).out_shape);
    const double loss = model.loss_bce(targets);
    model.backward();
    model.sgd_step(kernels::SgdConfig{0.1f, 0.0f, 0.0f});
    EXPECT_TRUE(std::isfinite(loss));
  });
}

TEST(EdgeCases, EmptyOutputBlocksMatchSerial) {
  auto run_once = [](int ranks, const ProcessGrid& grid) {
    Tensor<float> digest;
    comm::World world(ranks);
    world.run([&](comm::Comm& comm) {
      NetworkBuilder nb;
      const int in = nb.input(Shape4{2, 2, 8, 8});
      int x = nb.conv("c1", in, 4, 3, 2);
      x = nb.conv("c2", x, 4, 3, 2);
      x = nb.conv("c3", x, 4, 3, 2);  // 1x1 output on spatial grids
      x = nb.conv("head", x, 1, 1, 1, 0, true);
      const NetworkSpec spec = nb.take();
      Model model(spec, comm, Strategy::uniform(spec.size(), grid), 5);
      Tensor<float> input(Shape4{2, 2, 8, 8});
      Rng rng(9);
      input.fill_uniform(rng);
      model.set_input(0, input);
      model.forward();
      Tensor<float> targets(model.rt(model.output_layer()).out_shape);
      targets.fill(1.0f);
      model.loss_bce(targets);
      model.backward();
      model.sgd_step(kernels::SgdConfig{0.1f, 0.0f, 0.0f});
      Tensor<float> d = gather_params_digest(model);
      if (comm.rank() == 0) digest = std::move(d);
    });
    return digest;
  };
  const Tensor<float> serial = run_once(1, ProcessGrid{1, 1, 1, 1});
  const Tensor<float> spatial = run_once(4, ProcessGrid{1, 1, 2, 2});
  ASSERT_EQ(serial.size(), spatial.size());
  for (std::int64_t i = 0; i < serial.size(); ++i) {
    EXPECT_NEAR(spatial.data()[i], serial.data()[i],
                2e-4f * std::max(1.0f, std::abs(serial.data()[i])))
        << i;
  }
}

TEST(EdgeCases, MoreRanksThanSamples) {
  // Sample parallelism with empty sample shards on the excess ranks.
  comm::World world(4);
  world.run([](comm::Comm& comm) {
    NetworkBuilder nb;
    const int in = nb.input(Shape4{2, 2, 8, 8});
    int x = nb.conv("c1", in, 4, 3, 1);
    x = nb.conv("head", x, 1, 1, 1, 0, true);
    const NetworkSpec spec = nb.take();
    Model model(spec, comm, Strategy::sample_parallel(spec.size(), 4), 7);
    Tensor<float> input(Shape4{2, 2, 8, 8});
    Rng rng(2);
    input.fill_uniform(rng);
    model.set_input(0, input);
    model.forward();
    Tensor<float> targets(model.rt(model.output_layer()).out_shape);
    const double loss = model.loss_bce(targets);
    model.backward();
    EXPECT_TRUE(std::isfinite(loss));
  });
}

TEST(EdgeCases, FullMeshTestModelTrainsUnderSpatialGrid) {
  // The mesh test model runs six stride-2 blocks down to a 1×1 output while
  // every layer keeps a 2×2 spatial grid.
  comm::World world(4);
  world.run([](comm::Comm& comm) {
    const NetworkSpec spec = models::make_mesh_model_test(2, 64);
    Model model(spec, comm,
                Strategy::uniform(spec.size(), ProcessGrid{1, 1, 2, 2}), 5);
    Tensor<float> input(model.rt(0).out_shape);
    Rng rng(4);
    input.fill_uniform(rng);
    model.set_input(0, input);
    double first = 0, last = 0;
    Tensor<float> targets(model.rt(model.output_layer()).out_shape);
    targets.fill(1.0f);
    for (int step = 0; step < 8; ++step) {
      model.forward();
      const double loss = model.loss_bce(targets);
      if (step == 0) first = loss;
      last = loss;
      model.backward();
      model.sgd_step(kernels::SgdConfig{0.3f, 0.9f, 0.0f});
    }
    EXPECT_LT(last, first);
  });
}

TEST(EdgeCases, HaloWiderThanNeighbourBlockNamesTheLayer) {
  // Four H parts of the 32² mesh test model: by conv3_1 the planes are 4
  // rows, one per rank, while the following 3×3 stencils need 2-row
  // margins. Model construction must say which layer and margin cannot be
  // filled from the neighbouring block.
  comm::World world(4);
  try {
    world.run([](comm::Comm& comm) {
      const NetworkSpec spec = models::make_mesh_model_test(4, 32);
      Model model(spec, comm, Strategy::uniform(spec.size(), ProcessGrid{1, 1, 4, 1}),
                  7);
    });
    FAIL() << "model construction should have raised";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("layer 'conv3_1_relu'"), std::string::npos) << what;
    EXPECT_NE(what.find("y H margin 2"), std::string::npos) << what;
    EXPECT_NE(what.find("neighbour's block of 1"), std::string::npos) << what;
  }
}

TEST(EdgeCases, OddSizesWithUnevenPartitions) {
  // 17×13 input on a 3×2 grid: unequal blocks, stride 2, odd kernel.
  comm::World world(6);
  world.run([](comm::Comm& comm) {
    NetworkBuilder nb;
    const int in = nb.input(Shape4{3, 2, 17, 13});
    int x = nb.conv("c1", in, 4, 3, 1);
    x = nb.conv("c2", x, 4, 5, 2);
    x = nb.conv("head", x, 1, 1, 1, 0, true);
    const NetworkSpec spec = nb.take();
    Model model(spec, comm, Strategy::uniform(spec.size(), ProcessGrid{1, 1, 3, 2}),
                11);
    Tensor<float> input(Shape4{3, 2, 17, 13});
    Rng rng(6);
    input.fill_uniform(rng);
    model.set_input(0, input);
    model.forward();
    Tensor<float> targets(model.rt(model.output_layer()).out_shape);
    const double loss = model.loss_bce(targets);
    model.backward();
    EXPECT_TRUE(std::isfinite(loss));
  });
}

}  // namespace
}  // namespace distconv::core
