// The paper's §III correctness claim: "Our algorithms exactly replicate
// convolution as if it were performed on a single GPU (up to floating point
// accumulation issues)." These tests run the same network, weights and data
// serially (1 rank) and distributed (sample / spatial / hybrid / mixed
// strategies) and compare outputs, losses, and post-update weights.
#include <gtest/gtest.h>

#include <functional>

#include "core/model.hpp"
#include "core/layers.hpp"

namespace distconv::core {
namespace {

struct RunResult {
  Tensor<float> output;
  double loss = 0.0;
  std::vector<Tensor<float>> params;  // all parameters post-SGD, layer order
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

/// Run one forward + BCE loss + backward + SGD step under the given strategy.
RunResult run_once(const std::function<NetworkSpec()>& make_spec, int ranks,
                   const std::function<Strategy(int layers, int p)>& make_strategy,
                   const ModelOptions& opts = {}) {
  RunResult result;
  comm::World world(ranks);
  world.run([&](comm::Comm& comm) {
    const NetworkSpec spec = make_spec();
    Model model(spec, comm, make_strategy(spec.size(), ranks), /*seed=*/7, opts);
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
  return result;
}

void expect_close(const Tensor<float>& a, const Tensor<float>& b, float tol,
                  const std::string& what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  for (std::int64_t i = 0; i < a.size(); ++i) {
    const float denom = std::max(1.0f, std::abs(b.data()[i]));
    ASSERT_NEAR(a.data()[i], b.data()[i], tol * denom)
        << what << " diverges at flat index " << i;
  }
}

void expect_same_run(const RunResult& got, const RunResult& ref, float tol) {
  EXPECT_NEAR(got.loss, ref.loss, 1e-5 * std::max(1.0, std::abs(ref.loss)));
  expect_close(got.output, ref.output, tol, "output");
  ASSERT_EQ(got.params.size(), ref.params.size());
  for (std::size_t i = 0; i < got.params.size(); ++i) {
    expect_close(got.params[i], ref.params[i], tol,
                 "param " + std::to_string(i));
  }
}

// A small all-conv network exercising stride, kernel sizes, BN, ReLU.
NetworkSpec small_conv_net() {
  NetworkBuilder nb;
  const int in = nb.input(Shape4{4, 3, 16, 16});
  int x = nb.conv("c1", in, 6, 3, 1);
  x = nb.batchnorm("bn1", x, BatchNormMode::kGlobal);
  x = nb.relu("r1", x);
  x = nb.conv("c2", x, 8, 5, 2);
  x = nb.relu("r2", x);
  x = nb.conv("c3", x, 4, 3, 1);
  x = nb.conv("head", x, 1, 1, 1, 0, /*bias=*/true);
  return nb.take();
}

// With max pooling and a residual connection.
NetworkSpec residual_pool_net() {
  NetworkBuilder nb;
  const int in = nb.input(Shape4{4, 4, 16, 16});
  int x = nb.conv("c1", in, 8, 3, 1);
  x = nb.relu("r1", x);
  const int skip = x;
  int y = nb.conv("c2a", x, 8, 3, 1);
  y = nb.relu("r2a", y);
  y = nb.conv("c2b", y, 8, 3, 1);
  const int sum = nb.add("res", skip, y);
  int z = nb.relu("r2", sum);
  z = nb.pool_max("pool", z, 3, 2, 1);
  z = nb.conv("head", z, 1, 1, 1, 0, true);
  return nb.take();
}

// Dead error signals: the parameter-free prefix (input, pool) consumes no
// gradient, c1's input port is dead (it runs backward-filter only), and the
// add has one dead port (pool) and one live port (c1).
NetworkSpec dead_port_net() {
  NetworkBuilder nb;
  const int in = nb.input(Shape4{4, 4, 16, 16});
  const int pool = nb.pool_max("pool", in, 3, 1, 1);
  const int c1 = nb.conv("c1", pool, 4, 3, 1);
  int x = nb.add("res", pool, c1);
  x = nb.relu("r", x);
  nb.conv("head", x, 1, 1, 1, 0, /*bias=*/true);
  return nb.take();
}

struct StrategyCase {
  const char* name;
  int ranks;
  std::function<Strategy(int, int)> make;
};

std::vector<StrategyCase> strategy_cases() {
  return {
      {"sample4", 4,
       [](int l, int p) { return Strategy::sample_parallel(l, p); }},
      {"spatial_h4", 4,
       [](int l, int) {
         return Strategy::uniform(l, ProcessGrid{1, 1, 4, 1});
       }},
      {"spatial_2x2", 4,
       [](int l, int) {
         return Strategy::uniform(l, ProcessGrid{1, 1, 2, 2});
       }},
      {"hybrid_2x(1x2)", 4,
       [](int l, int p) { return Strategy::hybrid(l, p, 2); }},
      {"hybrid_2x(2x2)", 8,
       [](int l, int p) { return Strategy::hybrid(l, p, 4); }},
      {"mixed_spatial_then_sample", 4,
       [](int l, int p) {
         // First half spatial, second half sample-parallel: forces a
         // redistribution (§III-C) mid-network in both directions.
         Strategy s = Strategy::uniform(l, ProcessGrid{1, 1, 2, 2});
         for (int i = l / 2; i < l; ++i) s.grids[i] = ProcessGrid{p, 1, 1, 1};
         return s;
       }},
      // Channel/filter parallelism (§III-D): x partitioned on C, y on F,
      // partial-sum forward + reduce-scatter. channel4 also stresses empty
      // slices (layers with C or F < 4 leave some ranks without channels).
      {"channel4", 4,
       [](int l, int) {
         return Strategy::uniform(l, ProcessGrid{1, 4, 1, 1});
       }},
      {"sample2_channel2", 4,
       [](int l, int) {
         return Strategy::uniform(l, ProcessGrid{2, 2, 1, 1});
       }},
      {"channel2_spatial2", 4,
       [](int l, int) {
         // Channel groups combined with a spatial split: the partial-sum
         // reduce-scatter and the halo machinery must compose.
         return Strategy::uniform(l, ProcessGrid{1, 2, 2, 1});
       }},
      {"mixed_spatial_then_channel", 4,
       [](int l, int) {
         // Spatial early layers, channel-parallel deep layers — the §VI-B2
         // mixed regime the optimizer targets; shuffles redistribute between
         // the spatial and channel grids in both directions.
         Strategy s = Strategy::uniform(l, ProcessGrid{1, 1, 2, 2});
         for (int i = l / 2; i < l; ++i) s.grids[i] = ProcessGrid{2, 2, 1, 1};
         return s;
       }},
  };
}

TEST(Exactness, SmallConvNetMatchesSerialUnderAllStrategies) {
  const auto ref = run_once(small_conv_net, 1, [](int l, int p) {
    return Strategy::sample_parallel(l, p);
  });
  ASSERT_GT(ref.loss, 0.0);
  for (const auto& sc : strategy_cases()) {
    SCOPED_TRACE(sc.name);
    const auto got = run_once(small_conv_net, sc.ranks, sc.make);
    expect_same_run(got, ref, 2e-4f);
  }
}

TEST(Exactness, ResidualPoolNetMatchesSerialUnderAllStrategies) {
  const auto ref = run_once(residual_pool_net, 1, [](int l, int p) {
    return Strategy::sample_parallel(l, p);
  });
  for (const auto& sc : strategy_cases()) {
    SCOPED_TRACE(sc.name);
    const auto got = run_once(residual_pool_net, sc.ranks, sc.make);
    expect_same_run(got, ref, 2e-4f);
  }
}

TEST(Exactness, DeadPortNetMatchesSerialUnderAllStrategies) {
  const auto ref = run_once(dead_port_net, 1, [](int l, int p) {
    return Strategy::sample_parallel(l, p);
  });
  for (const auto& sc : strategy_cases()) {
    SCOPED_TRACE(sc.name);
    const auto got = run_once(dead_port_net, sc.ranks, sc.make);
    expect_same_run(got, ref, 2e-4f);
  }
}

TEST(Exactness, DeadErrorSignalsAreNotAllocated) {
  const NetworkSpec probe = dead_port_net();
  const auto shapes = probe.infer_shapes();
  const int pool = 1, c1 = 2, res = 3;
  for (const auto& sc : strategy_cases()) {
    SCOPED_TRACE(sc.name);
    comm::World world(sc.ranks);
    world.run([&](comm::Comm& comm) {
      const NetworkSpec spec = dead_port_net();
      Model model(spec, comm, sc.make(spec.size(), sc.ranks), /*seed=*/7);
      // Which signals are dead is decided by the graph alone.
      EXPECT_FALSE(model.rt(0).dy_live);
      EXPECT_FALSE(model.rt(pool).dy_live);
      EXPECT_TRUE(model.rt(c1).dy_live);
      EXPECT_FALSE(model.rt(pool).inputs[0].live);
      EXPECT_FALSE(model.rt(c1).inputs[0].live);
      EXPECT_FALSE(model.rt(res).inputs[0].live);
      EXPECT_TRUE(model.rt(res).inputs[1].live);
      // c1 computes no dL/dx, so its dy needs no transpose margins or halo.
      EXPECT_EQ(model.rt(c1).dy.halo, nullptr);

      // activation_bytes() holds exactly the live buffers; each dead one,
      // sized from its layer's shapes, is absent.
      const std::int64_t f = sizeof(float);
      auto block = [&](const Shape4& global, const ProcessGrid& grid) {
        return Distribution::make(global, grid).local_shape(comm.rank()).size();
      };
      std::int64_t live_bytes = 0, dead_bytes = 0;
      for (int i = 0; i < model.num_layers(); ++i) {
        const LayerRt& rt = model.rt(i);
        live_bytes += rt.y.t.buffer().size() * f;
        const std::int64_t dy_block = block(rt.out_shape, rt.grid);
        if (rt.dy_live) {
          EXPECT_GE(rt.dy.t.buffer().size(), dy_block) << i;
          live_bytes += rt.dy.t.buffer().size() * f;
        } else {
          EXPECT_EQ(rt.dy.t.buffer().size(), 0) << i;
          dead_bytes += dy_block * f;
        }
        for (const auto& port : rt.inputs) {
          if (port.staging != nullptr) {
            live_bytes += port.staging->t.buffer().size() * f;
          }
          const std::int64_t dx_block = block(shapes[port.parent], rt.grid);
          if (port.live) {
            EXPECT_EQ(port.dx.buffer().size(), dx_block) << i;
            live_bytes += dx_block * f;
          } else {
            EXPECT_EQ(port.dx.buffer().size(), 0) << i;
            EXPECT_EQ(port.bwd_staging, nullptr) << i;
            dead_bytes += dx_block * f;
          }
        }
      }
      EXPECT_EQ(model.activation_bytes(), live_bytes);
      // input + pool dy and three dead dx blocks, all of input shape.
      EXPECT_EQ(dead_bytes, 5 * block(shapes[0], model.rt(0).grid) * f);
    });
  }
}

TEST(Exactness, OverlapOnAndOffAgreeBitwise) {
  // Interior/boundary decomposition must not change any value: the same
  // floating-point operations happen in the same per-pixel order.
  ModelOptions no_overlap;
  no_overlap.overlap_halo = false;
  const auto a = run_once(small_conv_net, 4, [](int l, int) {
    return Strategy::uniform(l, ProcessGrid{1, 1, 2, 2});
  });
  const auto b = run_once(
      small_conv_net, 4,
      [](int l, int) { return Strategy::uniform(l, ProcessGrid{1, 1, 2, 2}); },
      no_overlap);
  ASSERT_EQ(a.output.shape(), b.output.shape());
  for (std::int64_t i = 0; i < a.output.size(); ++i) {
    ASSERT_EQ(a.output.data()[i], b.output.data()[i]) << i;
  }
  EXPECT_EQ(a.loss, b.loss);
}

TEST(Exactness, Im2colAlgoMatchesDirectAtModelLevel) {
  // The planner's family knob moved from ModelOptions to the kernel-level
  // override; forcing im2col everywhere must still match planned runs.
  const auto a = run_once(small_conv_net, 4, [](int l, int p) {
    return Strategy::hybrid(l, p, 2);
  });
  kernels::set_conv_algo_override(kernels::ConvAlgo::kIm2col);
  const auto b = run_once(small_conv_net, 4, [](int l, int p) {
    return Strategy::hybrid(l, p, 2);
  });
  kernels::set_conv_algo_override(kernels::ConvAlgo::kAuto);
  expect_same_run(b, a, 1e-4f);
}

TEST(Exactness, RepeatedStepsStayReplicated) {
  // After several optimizer steps, replicated weights must remain bitwise
  // identical across ranks (deterministic allreduce).
  comm::World world(4);
  world.run([&](comm::Comm& comm) {
    const NetworkSpec spec = small_conv_net();
    Model model(spec, comm, Strategy::hybrid(spec.size(), 4, 2), 3);
    const Shape4 in_shape = model.rt(0).out_shape;
    const Shape4 out_shape = model.rt(model.output_layer()).out_shape;
    for (int step = 0; step < 3; ++step) {
      model.set_input(0, make_input(in_shape, 100 + step));
      model.forward();
      model.loss_bce(make_targets(out_shape, 200 + step));
      model.backward();
      model.sgd_step(kernels::SgdConfig{0.05f, 0.9f, 0.0f});
    }
    // Compare every parameter against rank 0 bitwise.
    for (int i = 0; i < model.num_layers(); ++i) {
      for (auto& p : model.rt(i).params) {
        Tensor<float> reference(p.shape());
        std::copy(p.data(), p.data() + p.size(), reference.data());
        comm::broadcast(comm, reference.data(), reference.size(), 0);
        for (std::int64_t j = 0; j < p.size(); ++j) {
          ASSERT_EQ(p.data()[j], reference.data()[j])
              << "layer " << i << " param diverged at " << j;
        }
      }
    }
  });
}

TEST(Exactness, ChannelParallelStepsStayReplicated) {
  // The sliced weight-gradient completion (slice allreduce + allgather over
  // the channel group) must leave the replicated parameters bitwise
  // identical on every rank, across repeated optimizer steps.
  comm::World world(4);
  world.run([&](comm::Comm& comm) {
    const NetworkSpec spec = small_conv_net();
    Model model(spec, comm, Strategy::channel_parallel(spec.size(), 4, 2), 3);
    const Shape4 in_shape = model.rt(0).out_shape;
    const Shape4 out_shape = model.rt(model.output_layer()).out_shape;
    for (int step = 0; step < 3; ++step) {
      model.set_input(0, make_input(in_shape, 300 + step));
      model.forward();
      model.loss_bce(make_targets(out_shape, 400 + step));
      model.backward();
      model.sgd_step(kernels::SgdConfig{0.05f, 0.9f, 0.0f});
    }
    for (int i = 0; i < model.num_layers(); ++i) {
      for (auto& p : model.rt(i).params) {
        Tensor<float> reference(p.shape());
        std::copy(p.data(), p.data() + p.size(), reference.data());
        comm::broadcast(comm, reference.data(), reference.size(), 0);
        for (std::int64_t j = 0; j < p.size(); ++j) {
          ASSERT_EQ(p.data()[j], reference.data()[j])
              << "layer " << i << " param diverged at " << j;
        }
      }
    }
  });
}

TEST(Exactness, ChannelParallelMicroBatchingAccumulates) {
  // Gradient accumulation must compose with the sliced weight gradient: two
  // accumulated micro-batches followed by one deferred completion must match
  // the same two batches run with grid.c == 1.
  auto run = [](const Strategy& strategy, int ranks) {
    RunResult result;
    comm::World world(ranks);
    world.run([&](comm::Comm& comm) {
      const NetworkSpec spec = small_conv_net();
      Model model(spec, comm, strategy, /*seed=*/7);
      const Shape4 in_shape = model.rt(0).out_shape;
      const Shape4 out_shape = model.rt(model.output_layer()).out_shape;
      model.zero_gradients();
      double loss = 0.0;
      for (int micro = 0; micro < 2; ++micro) {
        model.set_input(0, make_input(in_shape, 500 + micro));
        model.forward();
        loss += model.loss_bce(make_targets(out_shape, 600 + micro),
                               2 * out_shape.size());
        model.backward(/*accumulate=*/true);
      }
      model.allreduce_gradients();
      model.sgd_step(kernels::SgdConfig{0.05f, 0.0f, 0.0f});
      Tensor<float> out = model.gather_output(model.output_layer());
      if (comm.rank() == 0) {
        result.output = std::move(out);
        result.loss = loss;
        for (int i = 0; i < model.num_layers(); ++i) {
          for (const auto& p : model.rt(i).params) result.params.push_back(p);
        }
      }
    });
    return result;
  };
  const NetworkSpec probe = small_conv_net();
  const auto ref = run(Strategy::sample_parallel(probe.size(), 1), 1);
  const auto got = run(Strategy::channel_parallel(probe.size(), 4, 4), 4);
  expect_same_run(got, ref, 2e-4f);
}

}  // namespace
}  // namespace distconv::core
