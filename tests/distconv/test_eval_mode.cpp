// Eval-mode forward: batchnorm running statistics, inference normalization,
// and the bitwise-exactness contract — distributed eval-mode forward must
// reproduce the single-rank oracle bit for bit under every strategy in the
// pool (sample, spatial, hybrid, channel, mixed), because inference-mode
// operators keep each output element's floating-point accumulation chain
// rank-count independent (channel-parallel convs allgather x and compute
// their owned filters against every channel for exactly this reason).
#include <gtest/gtest.h>

#include <functional>
#include <sstream>

#include "core/checkpoint.hpp"
#include "core/layers.hpp"
#include "core/model.hpp"
#include "tests/support/thread_guard.hpp"

namespace distconv::core {
namespace {

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

// A small all-conv network exercising stride, kernel sizes, BN, ReLU.
NetworkSpec small_conv_net() {
  NetworkBuilder nb;
  const int in = nb.input(Shape4{4, 3, 16, 16});
  int x = nb.conv("c1", in, 6, 3, 1);
  x = nb.batchnorm("bn1", x, BatchNormMode::kGlobal);
  x = nb.relu("r1", x);
  x = nb.conv("c2", x, 8, 5, 2);
  x = nb.batchnorm("bn2", x, BatchNormMode::kGlobal);
  x = nb.relu("r2", x);
  x = nb.conv("c3", x, 4, 3, 1);
  x = nb.conv("head", x, 1, 1, 1, 0, /*bias=*/true);
  return nb.take();
}

/// Train the single-rank oracle for `steps`, checkpoint it (v2: params +
/// running stats), and return the checkpoint blob plus its eval-mode output
/// on `eval_input`.
struct Oracle {
  std::string blob;
  Tensor<float> eval_output;
};

Oracle run_oracle(const std::function<NetworkSpec()>& make_spec, int steps,
                  const Tensor<float>& eval_input) {
  Oracle oracle;
  comm::World world(1);
  world.run([&](comm::Comm& comm) {
    const NetworkSpec spec = make_spec();
    Model model(spec, comm, Strategy::sample_parallel(spec.size(), 1), 7);
    const Shape4 in_shape = model.rt(0).out_shape;
    const Shape4 out_shape = model.rt(model.output_layer()).out_shape;
    for (int s = 0; s < steps; ++s) {
      model.set_input(0, make_input(in_shape, 100 + s));
      model.forward();
      model.loss_bce(make_targets(out_shape, 200 + s));
      model.backward();
      model.sgd_step(kernels::SgdConfig{0.05f, 0.9f, 0.0f});
    }
    std::ostringstream out;
    save_checkpoint(model, out);
    oracle.blob = out.str();
    model.set_input(0, eval_input);
    model.forward(Mode::kInference);
    oracle.eval_output = model.gather_output(model.output_layer());
  });
  return oracle;
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
       [](int l, int) { return Strategy::uniform(l, ProcessGrid{1, 1, 4, 1}); }},
      {"spatial_2x2", 4,
       [](int l, int) { return Strategy::uniform(l, ProcessGrid{1, 1, 2, 2}); }},
      {"hybrid_2x(1x2)", 4,
       [](int l, int p) { return Strategy::hybrid(l, p, 2); }},
      {"channel4", 4,
       [](int l, int) { return Strategy::uniform(l, ProcessGrid{1, 4, 1, 1}); }},
      {"sample2_channel2", 4,
       [](int l, int) { return Strategy::uniform(l, ProcessGrid{2, 2, 1, 1}); }},
      {"channel2_spatial2", 4,
       [](int l, int) { return Strategy::uniform(l, ProcessGrid{1, 2, 2, 1}); }},
      {"mixed_spatial_then_channel", 4,
       [](int l, int) {
         Strategy s = Strategy::uniform(l, ProcessGrid{1, 1, 2, 2});
         for (int i = l / 2; i < l; ++i) s.grids[i] = ProcessGrid{2, 2, 1, 1};
         return s;
       }},
  };
}

TEST(EvalMode, DistributedEvalBitwiseMatchesOracleAcrossStrategies) {
  const Shape4 in_shape{4, 3, 16, 16};
  const Tensor<float> eval_input = make_input(in_shape, 999);
  const Oracle oracle = run_oracle(small_conv_net, 2, eval_input);

  for (const auto& sc : strategy_cases()) {
    for (const int threads : {1, 8}) {
      parallel::ThreadGuard guard(threads);
      SCOPED_TRACE(std::string(sc.name) + " threads=" +
                   std::to_string(threads));
      comm::World world(sc.ranks);
      world.run([&](comm::Comm& comm) {
        const NetworkSpec spec = small_conv_net();
        Model model(spec, comm, sc.make(spec.size(), sc.ranks), /*seed=*/3);
        std::istringstream in(oracle.blob);
        load_checkpoint(model, in);
        model.set_input(0, eval_input);
        model.forward(Mode::kInference);
        Tensor<float> out = model.gather_output(model.output_layer());
        if (comm.rank() == 0) {
          ASSERT_EQ(out.shape(), oracle.eval_output.shape());
          for (std::int64_t i = 0; i < out.size(); ++i) {
            ASSERT_EQ(out.data()[i], oracle.eval_output.data()[i])
                << "eval output diverges from the oracle at flat index " << i;
          }
        }
      });
    }
  }
}

TEST(EvalMode, TrainDistributedCheckpointServeUnderDifferentGrid) {
  // Train under one grid, checkpoint, restore into the single-rank oracle
  // *and* into a different serving grid: both eval forwards must agree
  // bitwise (the replicated parameters and running statistics are identical
  // by construction, and eval-mode forward is rank-count independent).
  const Shape4 in_shape{4, 3, 16, 16};
  const Tensor<float> eval_input = make_input(in_shape, 1234);

  std::string blob;
  {
    comm::World world(4);
    world.run([&](comm::Comm& comm) {
      const NetworkSpec spec = small_conv_net();
      Model model(spec, comm, Strategy::hybrid(spec.size(), 4, 2), 7);
      const Shape4 out_shape = model.rt(model.output_layer()).out_shape;
      for (int s = 0; s < 2; ++s) {
        model.set_input(0, make_input(in_shape, 300 + s));
        model.forward();
        model.loss_bce(make_targets(out_shape, 400 + s));
        model.backward();
        model.sgd_step(kernels::SgdConfig{0.05f, 0.9f, 0.0f});
      }
      if (comm.rank() == 0) {
        std::ostringstream out;
        save_checkpoint(model, out);
        blob = out.str();
      }
    });
  }

  auto eval_under = [&](int ranks, const Strategy& strategy) {
    Tensor<float> result;
    comm::World world(ranks);
    world.run([&](comm::Comm& comm) {
      const NetworkSpec spec = small_conv_net();
      Model model(spec, comm, strategy, /*seed=*/11);
      std::istringstream in(blob);
      load_checkpoint(model, in);
      model.set_input(0, eval_input);
      model.forward(Mode::kInference);
      Tensor<float> out = model.gather_output(model.output_layer());
      if (comm.rank() == 0) result = std::move(out);
    });
    return result;
  };

  const NetworkSpec probe = small_conv_net();
  const Tensor<float> ref =
      eval_under(1, Strategy::sample_parallel(probe.size(), 1));
  const Tensor<float> served =
      eval_under(4, Strategy::channel_parallel(probe.size(), 4, 2));
  ASSERT_EQ(ref.shape(), served.shape());
  for (std::int64_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(ref.data()[i], served.data()[i]) << "index " << i;
  }
}

TEST(EvalMode, RunningStatsTrackGlobalBatchEma) {
  comm::World world(1);
  world.run([&](comm::Comm& comm) {
    NetworkBuilder nb;
    const int in = nb.input(Shape4{2, 3, 8, 8});
    nb.batchnorm("bn", in, BatchNormMode::kGlobal);
    const NetworkSpec spec = nb.take();
    ModelOptions opts;
    opts.bn_momentum = 0.75f;
    Model model(spec, comm, Strategy::sample_parallel(spec.size(), 1), 1, opts);

    std::vector<double> ema_mean(3, 0.0), ema_var(3, 1.0);
    for (int step = 0; step < 2; ++step) {
      const Tensor<float> x = make_input(Shape4{2, 3, 8, 8}, 40 + step);
      model.set_input(0, x);
      model.forward();
      // Hand-computed batch statistics (same double accumulation).
      for (int c = 0; c < 3; ++c) {
        double s = 0, s2 = 0;
        for (std::int64_t n = 0; n < 2; ++n)
          for (std::int64_t h = 0; h < 8; ++h)
            for (std::int64_t w = 0; w < 8; ++w) {
              const double v = x(n, c, h, w);
              s += v;
              s2 += v * v;
            }
        const double count = 2 * 8 * 8;
        const double m = s / count;
        const double var = std::max(0.0, s2 / count - m * m);
        ema_mean[c] = 0.75 * ema_mean[c] + 0.25 * m;
        ema_var[c] = 0.75 * ema_var[c] + 0.25 * var;
      }
    }
    const auto& rt = model.rt(1);
    ASSERT_EQ(rt.buffers.size(), 3u);
    EXPECT_EQ(rt.buffers[2].data()[0], 2.0f);  // two tracked forwards
    for (int c = 0; c < 3; ++c) {
      EXPECT_NEAR(rt.buffers[0].data()[c], ema_mean[c], 1e-5) << "mean " << c;
      EXPECT_NEAR(rt.buffers[1].data()[c], ema_var[c], 1e-5) << "var " << c;
    }
  });
}

TEST(EvalMode, RunningStatsReplicatedAcrossRanksAllModes) {
  // Whatever BN mode normalizes training, the tracked running statistics are
  // the globally aggregated EMA — bitwise identical on every rank (they feed
  // replicated checkpoints and replicated eval).
  for (const BatchNormMode mode :
       {BatchNormMode::kLocal, BatchNormMode::kSpatial, BatchNormMode::kGlobal}) {
    comm::World world(4);
    world.run([&](comm::Comm& comm) {
      NetworkBuilder nb;
      const int in = nb.input(Shape4{4, 3, 8, 8});
      const int c1 = nb.conv("c1", in, 4, 3, 1);
      nb.batchnorm("bn", c1, mode);
      const NetworkSpec spec = nb.take();
      Model model(spec, comm, Strategy::hybrid(spec.size(), 4, 2), 1);
      model.set_input(0, make_input(Shape4{4, 3, 8, 8}, 77));
      model.forward();
      for (const auto& b : model.rt(2).buffers) {
        Tensor<float> reference(b.shape());
        std::copy(b.data(), b.data() + b.size(), reference.data());
        comm::broadcast(comm, reference.data(), reference.size(), 0);
        for (std::int64_t i = 0; i < b.size(); ++i) {
          ASSERT_EQ(b.data()[i], reference.data()[i])
              << "buffer diverged across ranks at " << i;
        }
      }
    });
  }
}

TEST(EvalMode, InferenceForwardMutatesNoState) {
  // step | eval | step must leave exactly the same replicated state as
  // step | step: the interleaved eval forward may not touch parameters,
  // velocity, or running statistics.
  auto run = [&](bool eval_between) {
    std::vector<Tensor<float>> state;
    comm::World world(4);
    world.run([&](comm::Comm& comm) {
      const NetworkSpec spec = small_conv_net();
      Model model(spec, comm, Strategy::hybrid(spec.size(), 4, 2), 7);
      const Shape4 in_shape = model.rt(0).out_shape;
      const Shape4 out_shape = model.rt(model.output_layer()).out_shape;
      for (int s = 0; s < 2; ++s) {
        model.set_input(0, make_input(in_shape, 500 + s));
        model.forward();
        model.loss_bce(make_targets(out_shape, 600 + s));
        model.backward();
        model.sgd_step(kernels::SgdConfig{0.05f, 0.9f, 0.0f});
        if (eval_between && s == 0) {
          model.set_input(0, make_input(in_shape, 555));
          model.forward(Mode::kInference);
        }
      }
      if (comm.rank() == 0) {
        for (int i = 0; i < model.num_layers(); ++i) {
          for (const auto& p : model.rt(i).params) state.push_back(p);
          for (const auto& b : model.rt(i).buffers) state.push_back(b);
        }
      }
    });
    return state;
  };
  const auto plain = run(false);
  const auto with_eval = run(true);
  ASSERT_EQ(plain.size(), with_eval.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    ASSERT_EQ(plain[i].size(), with_eval[i].size());
    for (std::int64_t j = 0; j < plain[i].size(); ++j) {
      ASSERT_EQ(plain[i].data()[j], with_eval[i].data()[j])
          << "state tensor " << i << " diverged at " << j;
    }
  }
}

TEST(EvalMode, FreshModelFallsBackToBatchStats) {
  comm::World world(1);
  world.run([&](comm::Comm& comm) {
    const NetworkSpec spec = small_conv_net();
    Model model(spec, comm, Strategy::sample_parallel(spec.size(), 1), 7);
    const Shape4 in_shape = model.rt(0).out_shape;
    const Tensor<float> x = make_input(in_shape, 42);
    model.set_input(0, x);
    model.forward(Mode::kInference);  // no running stats → batch-stat path
    const Tensor<float> eval_out = model.gather_output(model.output_layer());
    // Inference must not have tracked anything ("bn1" is layer 2).
    ASSERT_EQ(model.rt(2).buffers.size(), 3u);
    EXPECT_EQ(model.rt(2).buffers[2].data()[0], 0.0f);
    model.set_input(0, x);
    model.forward(Mode::kTraining);
    const Tensor<float> train_out = model.gather_output(model.output_layer());
    EXPECT_EQ(model.rt(2).buffers[2].data()[0], 1.0f);
    for (std::int64_t i = 0; i < eval_out.size(); ++i) {
      ASSERT_EQ(eval_out.data()[i], train_out.data()[i]) << i;
    }
  });
}

TEST(EvalMode, BackwardAfterInferenceForwardThrows) {
  comm::World world(1);
  EXPECT_THROW(
      world.run([&](comm::Comm& comm) {
        const NetworkSpec spec = small_conv_net();
        Model model(spec, comm, Strategy::sample_parallel(spec.size(), 1), 7);
        const Shape4 in_shape = model.rt(0).out_shape;
        const Shape4 out_shape = model.rt(model.output_layer()).out_shape;
        model.set_input(0, make_input(in_shape, 1));
        model.forward(Mode::kInference);
        model.loss_bce(make_targets(out_shape, 2));
        model.backward();
      }),
      Error);
}

}  // namespace
}  // namespace distconv::core
