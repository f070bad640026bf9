// Overlapped gradient allreduce vs the blocking sweep: training must be
// bitwise identical under every strategy (sample, hybrid spatial,
// channel-parallel), every intra-rank thread budget, and micro-batch
// accumulation — the determinism contract of the per-layer completion
// engine (fixed reduction order inside each op).
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/layers.hpp"
#include "core/model.hpp"
#include "core/trainer.hpp"
#include "tests/support/thread_guard.hpp"

namespace distconv::core {
namespace {

NetworkSpec small_net(const Shape4& in_shape) {
  NetworkBuilder nb;
  const int in = nb.input(in_shape);
  int x = nb.conv_bn_relu("b1", in, 8, 3, 1);
  x = nb.conv_bn_relu("b2", x, 8, 3, 1);
  x = nb.conv("head", x, 1, 1, 1, 0, /*bias=*/true);
  return nb.take();
}

/// Every parameter tensor of every layer, flattened (replicated, so any
/// rank's copy represents the model).
std::vector<float> snapshot_params(const Model& model) {
  std::vector<float> out;
  for (int i = 0; i < model.num_layers(); ++i) {
    for (const auto& p : model.rt(i).params) {
      out.insert(out.end(), p.data(), p.data() + p.size());
    }
  }
  return out;
}

/// Train `steps` full steps on a fixed dataset; returns rank 0's parameter
/// snapshot.
std::vector<float> train(const NetworkSpec& spec, comm::Comm& comm,
                         const Strategy& strategy, bool overlap, int steps,
                         int micro_batches) {
  ModelOptions opts;
  opts.overlap_allreduce = overlap;
  Model model(spec, comm, strategy, /*seed=*/11, opts);
  Trainer trainer(model, [&] {
    TrainerOptions t;
    t.sgd = kernels::SgdConfig{0.05f, 0.9f, 0.0f};
    t.micro_batches = micro_batches;
    return t;
  }());

  const Shape4 micro_in = model.rt(0).out_shape;
  const Shape4 micro_out = model.rt(model.output_layer()).out_shape;
  Tensor<float> input(Shape4{micro_in.n * micro_batches, micro_in.c, micro_in.h,
                             micro_in.w});
  Tensor<float> targets(Shape4{micro_out.n * micro_batches, micro_out.c,
                               micro_out.h, micro_out.w});
  Rng rng(21);
  input.fill_uniform(rng);
  for (std::int64_t i = 0; i < targets.size(); ++i) {
    targets.data()[i] = (i % 3 == 0) ? 1.0f : 0.0f;
  }
  for (int s = 0; s < steps; ++s) trainer.step_bce(input, targets);
  return snapshot_params(model);
}

void expect_bitwise(const std::vector<float>& a, const std::vector<float>& b,
                    const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)))
      << what;
}

struct Case {
  const char* name;
  int ranks;
  Strategy (*make)(int layers, int ranks);
};

const Case kCases[] = {
    {"sample", 4,
     [](int layers, int p) { return Strategy::sample_parallel(layers, p); }},
    {"hybrid-spatial", 4,
     [](int layers, int p) { return Strategy::hybrid(layers, p, 4); }},
    {"channel", 4,
     [](int layers, int p) { return Strategy::channel_parallel(layers, p, 2); }},
    // Spatial early / channel-parallel deep layers: forward and backward
    // shuffles redistribute between the grids, so the engine's pre-posted
    // ShuffleOps, halo refreshes AND the channel forward's reduce-scatter
    // are all on the line in one case.
    {"mixed-spatial-channel", 4,
     [](int layers, int) {
       Strategy s = Strategy::uniform(layers, ProcessGrid{1, 1, 2, 2});
       for (int i = layers / 2; i < layers; ++i) {
         s.grids[i] = ProcessGrid{2, 2, 1, 1};
       }
       return s;
     }},
};

/// Every strategy × serial and contended thread budgets: training with the
/// engine overlapping gradient allreduces, halo refreshes, shuffles and the
/// channel-parallel reduce-scatter must be bitwise identical to the fully
/// blocking baseline.
TEST(OverlapAllreduce, BitwiseEqualAcrossStrategiesAndThreads) {
  const Shape4 in_shape{4, 2, 16, 16};
  const NetworkSpec spec = small_net(in_shape);
  for (const auto& c : kCases) {
    for (const int threads : {1, 8}) {
      parallel::ThreadGuard guard(threads);
      std::vector<float> blocking, overlapped;
      comm::World world(c.ranks);
      world.run([&](comm::Comm& comm) {
        const Strategy strategy = c.make(spec.size(), c.ranks);
        auto b = train(spec, comm, strategy, /*overlap=*/false, /*steps=*/3,
                       /*micro_batches=*/1);
        auto o = train(spec, comm, strategy, /*overlap=*/true, /*steps=*/3,
                       /*micro_batches=*/1);
        if (comm.rank() == 0) {
          blocking = std::move(b);
          overlapped = std::move(o);
        }
      });
      SCOPED_TRACE(std::string(c.name) + " threads=" + std::to_string(threads));
      expect_bitwise(blocking, overlapped, c.name);
    }
  }
}

TEST(OverlapAllreduce, BitwiseEqualUnderMicroBatchAccumulation) {
  const Shape4 in_shape{2, 2, 16, 16};
  const NetworkSpec spec = small_net(in_shape);
  for (const auto& c : kCases) {
    std::vector<float> blocking, overlapped;
    comm::World world(c.ranks);
    world.run([&](comm::Comm& comm) {
      const Strategy strategy = c.make(spec.size(), c.ranks);
      auto b = train(spec, comm, strategy, /*overlap=*/false, /*steps=*/2,
                     /*micro_batches=*/3);
      // Accumulation steps defer the gradient sums while the engine still
      // runs the per-micro-batch shuffle/halo/rs ops.
      auto o = train(spec, comm, strategy, /*overlap=*/true, /*steps=*/2,
                     /*micro_batches=*/3);
      if (comm.rank() == 0) {
        blocking = std::move(b);
        overlapped = std::move(o);
      }
    });
    SCOPED_TRACE(c.name);
    expect_bitwise(blocking, overlapped, c.name);
  }
}

/// The plain one-argument backward() also rides the engine when the option
/// is on, and exposes the drain-time metric.
TEST(OverlapAllreduce, PlainBackwardCompletesGradients) {
  const Shape4 in_shape{4, 2, 8, 8};
  const NetworkSpec spec = small_net(in_shape);
  comm::World world(2);
  world.run([&](comm::Comm& comm) {
    ModelOptions opts;
    opts.overlap_allreduce = true;
    Model overlap_model(spec, comm, Strategy::sample_parallel(spec.size(), 2),
                        5, opts);
    Model block_model(spec, comm, Strategy::sample_parallel(spec.size(), 2), 5);
    Tensor<float> input(in_shape);
    Tensor<float> targets(overlap_model.rt(overlap_model.output_layer()).out_shape);
    Rng rng(9);
    input.fill_uniform(rng);
    Rng trng(10);
    targets.fill_uniform(trng, 0.0f, 1.0f);
    for (Model* m : {&overlap_model, &block_model}) {
      m->set_input(0, input);
      m->forward();
      m->loss_bce(targets);
      m->backward();
    }
    EXPECT_GE(overlap_model.last_grad_completion_seconds(), 0.0);
    for (int i = 0; i < overlap_model.num_layers(); ++i) {
      const auto& og = overlap_model.rt(i).grads;
      const auto& bg = block_model.rt(i).grads;
      ASSERT_EQ(og.size(), bg.size());
      for (std::size_t k = 0; k < og.size(); ++k) {
        EXPECT_EQ(0, std::memcmp(og[k].data(), bg[k].data(),
                                 static_cast<std::size_t>(og[k].size()) *
                                     sizeof(float)))
            << "layer " << i << " grad " << k;
      }
    }
  });
}

}  // namespace
}  // namespace distconv::core
