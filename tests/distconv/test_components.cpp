// Component-level checks of the engine: spec validation, builder wiring,
// strategy helpers, memory accounting, and error paths.
#include <gtest/gtest.h>

#include "core/layers.hpp"
#include "core/model.hpp"

namespace distconv::core {
namespace {

TEST(Spec, TopologicalOrderEnforced) {
  NetworkSpec spec;
  EXPECT_THROW(spec.add(std::make_unique<ReluLayer>("r", 0)), Error);
  spec.add(std::make_unique<InputLayer>("in", Shape4{1, 1, 4, 4}));
  EXPECT_NO_THROW(spec.add(std::make_unique<ReluLayer>("r", 0)));
  EXPECT_THROW(spec.add(std::make_unique<ReluLayer>("bad", 5)), Error);
}

TEST(Spec, ShapeInferenceThroughStack) {
  NetworkBuilder nb;
  const int in = nb.input(Shape4{2, 3, 224, 224});
  const int c1 = nb.conv("conv1", in, 64, 7, 2, 3);
  const int p1 = nb.pool_max("pool1", c1, 3, 2, 1);
  const int g = nb.global_avg_pool("gap", p1);
  const int fc = nb.fully_connected("fc", g, 10);
  const NetworkSpec spec = nb.take();
  const auto shapes = spec.infer_shapes();
  EXPECT_EQ(shapes[c1], (Shape4{2, 64, 112, 112}));
  EXPECT_EQ(shapes[p1], (Shape4{2, 64, 56, 56}));
  EXPECT_EQ(shapes[g], (Shape4{2, 64, 1, 1}));
  EXPECT_EQ(shapes[fc], (Shape4{2, 10, 1, 1}));
}

TEST(Spec, ChildrenAdjacency) {
  NetworkBuilder nb;
  const int in = nb.input(Shape4{1, 1, 8, 8});
  const int a = nb.conv("a", in, 2, 3);
  const int b = nb.conv("b", in, 2, 3);
  const int s = nb.add("s", a, b);
  const NetworkSpec spec = nb.take();
  const auto ch = spec.children();
  EXPECT_EQ(ch[in], (std::vector<int>{a, b}));
  EXPECT_EQ(ch[a], (std::vector<int>{s}));
  EXPECT_EQ(ch[s], (std::vector<int>{}));
}

TEST(Spec, AddLayerShapeMismatchThrows) {
  NetworkBuilder nb;
  const int in = nb.input(Shape4{1, 2, 8, 8});
  const int a = nb.conv("a", in, 2, 3);
  const int b = nb.conv("b", in, 3, 3);  // different filter count
  nb.add("bad", a, b);
  const NetworkSpec spec = nb.take();
  EXPECT_THROW(spec.infer_shapes(), Error);
}

TEST(Spec, ConvSmallerThanKernelThrows) {
  NetworkBuilder nb;
  const int in = nb.input(Shape4{1, 1, 2, 2});
  nb.conv("c", in, 1, 7, 1, 0);
  EXPECT_THROW(nb.spec().infer_shapes(), Error);
}

/// `build` must raise an Error whose message names layer `name`.
template <typename Build>
void expect_layer_error(Build&& build, const std::string& name) {
  NetworkBuilder nb;
  const int in = nb.input(Shape4{1, 4, 14, 14});
  try {
    build(nb, in);
    ADD_FAILURE() << "no error for layer '" << name << "'";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("'" + name + "'"), std::string::npos)
        << e.what();
  }
}

TEST(Spec, RejectsFewerThanOneOutput) {
  expect_layer_error([](NetworkBuilder& nb, int in) { nb.conv("c", in, 0, 3); },
                     "c");
  expect_layer_error(
      [](NetworkBuilder& nb, int in) { nb.fully_connected("fc", in, 0); }, "fc");
}

TEST(Spec, RejectsKernelBelowOne) {
  expect_layer_error([](NetworkBuilder& nb, int in) { nb.conv("c", in, 4, 0); },
                     "c");
  expect_layer_error(
      [](NetworkBuilder& nb, int in) { nb.pool_max("p", in, 0, 1); }, "p");
  expect_layer_error(
      [](NetworkBuilder& nb, int in) { nb.pool_avg("a", in, 0, 1); }, "a");
}

TEST(Spec, RejectsStrideBelowOne) {
  // A zero stride used to reach the output-size division.
  expect_layer_error(
      [](NetworkBuilder& nb, int in) { nb.conv("c", in, 4, 3, /*stride=*/0); },
      "c");
  expect_layer_error(
      [](NetworkBuilder& nb, int in) { nb.pool_max("p", in, 3, 0); }, "p");
  expect_layer_error(
      [](NetworkBuilder& nb, int in) { nb.pool_avg("a", in, 3, -1); }, "a");
}

TEST(Spec, RejectsPadOutsideKernel) {
  // pad ≥ kernel would make border windows of padding alone.
  expect_layer_error(
      [](NetworkBuilder& nb, int in) { nb.conv("c", in, 4, 1, 1, /*pad=*/3); },
      "c");
  expect_layer_error(
      [](NetworkBuilder& nb, int in) { nb.conv("c", in, 4, 3, 1, /*pad=*/-2); },
      "c");
  expect_layer_error(
      [](NetworkBuilder& nb, int in) { nb.pool_max("p", in, 3, 2, 3); }, "p");
  expect_layer_error(
      [](NetworkBuilder& nb, int in) { nb.pool_avg("a", in, 2, 2, -1); }, "a");
  // The "same" default resolves before the check: kernel/2 < kernel.
  NetworkBuilder nb;
  const int in = nb.input(Shape4{1, 4, 14, 14});
  EXPECT_NO_THROW(nb.conv("one", in, 4, 1));
  EXPECT_NO_THROW(nb.conv("seven", in, 4, 7));
}

TEST(Strategy, SpatialFactorsNearSquare) {
  EXPECT_EQ(Strategy::spatial_factors(1), (std::pair<int, int>{1, 1}));
  EXPECT_EQ(Strategy::spatial_factors(2), (std::pair<int, int>{2, 1}));
  EXPECT_EQ(Strategy::spatial_factors(4), (std::pair<int, int>{2, 2}));
  EXPECT_EQ(Strategy::spatial_factors(8), (std::pair<int, int>{4, 2}));
  EXPECT_EQ(Strategy::spatial_factors(16), (std::pair<int, int>{4, 4}));
  EXPECT_EQ(Strategy::spatial_factors(6), (std::pair<int, int>{3, 2}));
}

TEST(Strategy, HybridValidatesDivisibility) {
  EXPECT_THROW(Strategy::hybrid(3, 4, 3), Error);
  const Strategy s = Strategy::hybrid(3, 8, 4);
  EXPECT_EQ(s.grids[0], (ProcessGrid{2, 1, 2, 2}));
}

TEST(Model, StrategySizeMismatchThrows) {
  comm::World world(2);
  EXPECT_THROW(world.run([](comm::Comm& comm) {
                 NetworkBuilder nb;
                 nb.input(Shape4{1, 1, 4, 4});
                 const NetworkSpec spec = nb.take();
                 Strategy s;  // empty
                 Model model(spec, comm, s);
               }),
               Error);
}

TEST(Model, GridNotSpanningCommThrows) {
  comm::World world(4);
  EXPECT_THROW(world.run([](comm::Comm& comm) {
                 NetworkBuilder nb;
                 nb.input(Shape4{1, 1, 4, 4});
                 const NetworkSpec spec = nb.take();
                 Model model(spec, comm,
                             Strategy::uniform(1, ProcessGrid{2, 1, 1, 1}));
               }),
               Error);
}

TEST(Model, ChannelParallelGridExecutes) {
  // c > 1 grids used to be rejected by the engine (channel/filter parallelism
  // was modelled only); they now run the §III-D schedule end-to-end.
  comm::World world(2);
  world.run([](comm::Comm& comm) {
    NetworkBuilder nb;
    const int in = nb.input(Shape4{2, 4, 4, 4});
    nb.conv("c", in, 4, 3, 1);
    const NetworkSpec spec = nb.take();
    Model model(spec, comm, Strategy::channel_parallel(spec.size(), 2, 2));
    EXPECT_TRUE(model.is_channel_parallel(1));
    EXPECT_EQ(model.channel_comm(1).size(), 2);
    EXPECT_EQ(model.slice_comm(1).size(), 1);
    Tensor<float> input(Shape4{2, 4, 4, 4});
    Rng rng(11);
    input.fill_uniform(rng);
    model.set_input(0, input);
    model.forward();
    const Tensor<float> out = model.gather_output(1);
    EXPECT_EQ(out.shape(), (Shape4{2, 4, 4, 4}));
  });
}

TEST(Model, FullyConnectedRejectsChannelGrid) {
  comm::World world(2);
  EXPECT_THROW(world.run([](comm::Comm& comm) {
                 NetworkBuilder nb;
                 const int in = nb.input(Shape4{2, 4, 1, 1});
                 nb.fully_connected("fc", in, 3);
                 const NetworkSpec spec = nb.take();
                 Model model(spec, comm,
                             Strategy::uniform(2, ProcessGrid{1, 2, 1, 1}));
                 Tensor<float> input(Shape4{2, 4, 1, 1});
                 Rng rng(1);
                 input.fill_uniform(rng);
                 model.set_input(0, input);
                 model.forward();
               }),
               Error);
}

TEST(Model, InputShapeMismatchThrows) {
  comm::World world(1);
  EXPECT_THROW(world.run([](comm::Comm& comm) {
                 NetworkBuilder nb;
                 nb.input(Shape4{1, 1, 4, 4});
                 const NetworkSpec spec = nb.take();
                 Model model(spec, comm, Strategy::sample_parallel(1, 1));
                 model.set_input(0, Tensor<float>(Shape4{1, 1, 5, 5}));
               }),
               Error);
}

TEST(Model, BackwardWithoutLossThrows) {
  comm::World world(1);
  EXPECT_THROW(world.run([](comm::Comm& comm) {
                 NetworkBuilder nb;
                 const int in = nb.input(Shape4{1, 1, 4, 4});
                 nb.conv("c", in, 1, 3);
                 const NetworkSpec spec = nb.take();
                 Model model(spec, comm, Strategy::sample_parallel(2, 1));
                 model.set_input(0, Tensor<float>(Shape4{1, 1, 4, 4}));
                 model.forward();
                 model.backward();
               }),
               Error);
}

TEST(Model, ParameterCountResNetStyleBlock) {
  comm::World world(1);
  world.run([](comm::Comm& comm) {
    NetworkBuilder nb;
    const int in = nb.input(Shape4{1, 4, 8, 8});
    nb.conv("c", in, 8, 3);  // 8*4*3*3 weights
    const NetworkSpec spec = nb.take();
    Model model(spec, comm, Strategy::sample_parallel(spec.size(), 1));
    EXPECT_EQ(model.num_parameters(), 8 * 4 * 3 * 3);
  });
}

TEST(Model, ActivationBytesScaleDownWithSpatialParallelism) {
  // The core memory argument of the paper: spatial decomposition reduces
  // per-rank activation memory, which sample parallelism cannot.
  std::int64_t serial_bytes = 0, spatial_bytes = 0;
  {
    comm::World world(1);
    world.run([&](comm::Comm& comm) {
      NetworkBuilder nb;
      const int in = nb.input(Shape4{1, 4, 32, 32});
      nb.conv_bn_relu("b", in, 8, 3);
      const NetworkSpec spec = nb.take();
      Model model(spec, comm, Strategy::sample_parallel(spec.size(), 1));
      serial_bytes = model.activation_bytes();
    });
  }
  {
    comm::World world(4);
    world.run([&](comm::Comm& comm) {
      NetworkBuilder nb;
      const int in = nb.input(Shape4{1, 4, 32, 32});
      nb.conv_bn_relu("b", in, 8, 3);
      const NetworkSpec spec = nb.take();
      Model model(spec, comm,
                  Strategy::uniform(spec.size(), ProcessGrid{1, 1, 2, 2}));
      if (comm.rank() == 0) spatial_bytes = model.activation_bytes();
    });
  }
  EXPECT_LT(spatial_bytes, serial_bytes / 2);
  EXPECT_GT(spatial_bytes, serial_bytes / 8);  // halo overhead keeps it > 1/4
}

TEST(Model, GatherOutputReassembles) {
  comm::World world(4);
  world.run([](comm::Comm& comm) {
    NetworkBuilder nb;
    const int in = nb.input(Shape4{2, 1, 8, 8});
    nb.relu("r", in);
    const NetworkSpec spec = nb.take();
    Model model(spec, comm, Strategy::uniform(spec.size(), ProcessGrid{1, 1, 2, 2}));
    Tensor<float> input(Shape4{2, 1, 8, 8});
    Rng rng(2);
    input.fill_uniform(rng);
    model.set_input(0, input);
    model.forward();
    const Tensor<float> out = model.gather_output(1);
    for (std::int64_t i = 0; i < out.size(); ++i) {
      ASSERT_FLOAT_EQ(out.data()[i], std::max(0.0f, input.data()[i]));
    }
  });
}

}  // namespace
}  // namespace distconv::core
