#include <gtest/gtest.h>

#include <cmath>

#include "core/layers.hpp"
#include "core/model.hpp"
#include "models/models.hpp"
#include "perf/strategy_opt.hpp"

namespace distconv::perf {
namespace {

const MachineModel kMachine = MachineModel::lassen();

TEST(Candidates, SampleParallelAlwaysFirst) {
  OptimizerOptions opt;
  const auto grids = candidate_grids(8, Shape4{8, 3, 64, 64},
                                     Shape4{8, 16, 64, 64}, 3, opt);
  ASSERT_FALSE(grids.empty());
  EXPECT_EQ(grids[0], (ProcessGrid{8, 1, 1, 1}));
}

TEST(Candidates, SpatialVariantsRequireEnoughRowsAndSamples) {
  OptimizerOptions opt;
  // Only 2 samples on 8 ranks: pure sample parallelism is impossible; the
  // 4- and 8-way hybrids survive.
  const auto grids = candidate_grids(8, Shape4{2, 3, 64, 64},
                                     Shape4{2, 16, 64, 64}, 3, opt);
  for (const auto& g : grids) {
    EXPECT_LE(g.n, 2);
    EXPECT_GE(g.h * g.w, 4);
  }
  EXPECT_FALSE(grids.empty());
}

TEST(Candidates, TooFineSpatialSplitsExcluded) {
  OptimizerOptions opt;
  // 8×8 image with K=7: O=3 halos fit in 4-row blocks (2-way) but not in
  // 2-row blocks (4-way per dimension) — the §III-A edge case.
  const auto grids =
      candidate_grids(4, Shape4{4, 3, 8, 8}, Shape4{4, 8, 8, 8}, 7, opt);
  ASSERT_FALSE(grids.empty());
  for (const auto& g : grids) {
    EXPECT_LE(g.h, 2) << "4-way H split must be excluded for K=7 on 8x8";
    EXPECT_LE(g.w, 2);
  }
}

TEST(Candidates, HeadLayersGetChannelSplitsOrEmptyBlockFallback) {
  OptimizerOptions opt;
  // A 1×1 output on more ranks than samples admits no spatial grid, but a
  // wide head can still split channels/filters (the §III-C model-parallel
  // regime, executable since the channel-parallel engine landed).
  const auto grids =
      candidate_grids(8, Shape4{2, 64, 1, 1}, Shape4{2, 8, 1, 1}, 1, opt);
  ASSERT_FALSE(grids.empty());
  for (const auto& g : grids) {
    EXPECT_EQ(g.h * g.w, 1);
    EXPECT_GT(g.c, 1) << "only channel splits are balanced here";
  }
  // With a single output channel nothing splits: the fallback is sample
  // parallelism with empty shards on the excess ranks.
  const auto fallback =
      candidate_grids(8, Shape4{2, 64, 1, 1}, Shape4{2, 1, 1, 1}, 1, opt);
  ASSERT_EQ(fallback.size(), 1u);
  EXPECT_EQ(fallback[0], (ProcessGrid{8, 1, 1, 1}));
}

TEST(Optimizer, PicksSampleParallelismWhenBatchIsAmple) {
  // Plenty of samples per rank: the cheapest (sample) distribution should
  // win everywhere (§V-A: sample parallelism has the least overhead).
  const auto spec = models::make_mesh_model_1k(64);
  const auto strategy = optimize_strategy(spec, 8, kMachine);
  for (int i = 0; i < spec.size(); ++i) {
    EXPECT_EQ(strategy.grids[i].h * strategy.grids[i].w, 1) << i;
  }
}

TEST(Optimizer, UsesSpatialParallelismWhenBatchIsSmall) {
  // 1 sample on 8 ranks: only spatial/hybrid candidates exist for conv
  // layers.
  const auto spec = models::make_mesh_model_1k(1);
  const auto strategy = optimize_strategy(spec, 8, kMachine);
  bool any_spatial = false;
  for (int i = 0; i < spec.size(); ++i) {
    if (strategy.grids[i].h * strategy.grids[i].w > 1) any_spatial = true;
  }
  EXPECT_TRUE(any_spatial);
}

TEST(Optimizer, StrategyBeatsOrMatchesUniformBaselines) {
  // The optimizer's pick must cost no more than every uniform hybrid
  // strategy (it has them all in its search space for line networks).
  const auto spec = models::make_mesh_model_1k(2);
  const int ranks = 16;
  const auto chosen = optimize_strategy(spec, ranks, kMachine);
  const double chosen_cost =
      network_cost(spec, chosen, kMachine).minibatch_time();
  for (int gps : {8, 16}) {
    const auto uniform = core::Strategy::hybrid(spec.size(), ranks, gps);
    const double cost = network_cost(spec, uniform, kMachine).minibatch_time();
    EXPECT_LE(chosen_cost, cost * 1.02) << gps;
  }
}

TEST(Optimizer, HandlesResNetBranches) {
  // ResNet-50's DAG exercises the longest-path decomposition; every layer
  // must end with a grid spanning all ranks.
  const auto spec = models::make_resnet50(32);
  const auto strategy = optimize_strategy(spec, 8, kMachine);
  ASSERT_EQ(static_cast<int>(strategy.grids.size()), spec.size());
  for (int i = 0; i < spec.size(); ++i) {
    EXPECT_EQ(strategy.grids[i].size(), 8) << i;
  }
}

TEST(Optimizer, ResNetWithFewSamplesGoesSpatialEarly) {
  // Strong-scaling regime: 4 samples on 16 ranks — early high-resolution
  // layers should pick hybrid decompositions.
  const auto spec = models::make_resnet50(4);
  const auto strategy = optimize_strategy(spec, 16, kMachine);
  const int conv1 = models::layer_index(spec, "conv1");
  EXPECT_GT(strategy.grids[conv1].h * strategy.grids[conv1].w, 1);
}

TEST(Optimizer, MixedStrategiesAreExecutable) {
  // Whatever the optimizer returns must run on the real engine.
  const auto spec = models::make_mesh_model_test(2, 64);
  const auto strategy = optimize_strategy(spec, 4, kMachine);
  comm::World world(4);
  world.run([&](comm::Comm& comm) {
    core::Model model(spec, comm, strategy, 3);
    Tensor<float> input(model.rt(0).out_shape);
    Rng rng(1);
    input.fill_uniform(rng);
    model.set_input(0, input);
    model.forward();
    Tensor<float> targets(model.rt(model.output_layer()).out_shape);
    const double loss = model.loss_bce(targets);
    model.backward();
    EXPECT_TRUE(std::isfinite(loss));
  });
}

TEST(Candidates, ChannelSplitsOfferedForDeepLayers) {
  OptimizerOptions opt;
  // Deep layer: many channels/filters, tiny spatial domain.
  const auto grids = candidate_grids(8, Shape4{8, 256, 7, 7},
                                     Shape4{8, 256, 7, 7}, 3, opt);
  bool channel2 = false, channel4 = false, channel8 = false;
  for (const auto& g : grids) {
    if (g.c > 1) {
      EXPECT_EQ(g.h, 1);
      EXPECT_EQ(g.w, 1);
      EXPECT_EQ(g.n * g.c, 8);
    }
    channel2 |= g.c == 2;
    channel4 |= g.c == 4;
    channel8 |= g.c == 8;
  }
  EXPECT_TRUE(channel2 && channel4 && channel8);
}

TEST(Candidates, ChannelSplitsRequireNonEmptySlices) {
  OptimizerOptions opt;
  // 3 input channels: splits beyond 3 ways would leave empty slices.
  const auto grids =
      candidate_grids(8, Shape4{8, 3, 7, 7}, Shape4{8, 64, 7, 7}, 3, opt);
  for (const auto& g : grids) EXPECT_LE(g.c, 3);
  // Non-power-of-two ways are offered when they divide the rank count.
  const auto grids6 =
      candidate_grids(6, Shape4{8, 64, 7, 7}, Shape4{8, 64, 7, 7}, 3, opt);
  bool channel3 = false;
  for (const auto& g : grids6) channel3 |= g.c == 3;
  EXPECT_TRUE(channel3);
}

TEST(Optimizer, PicksChannelParallelismForDeepNarrowNet) {
  // A deep-layer stack where spatial splitting is infeasible (4×4 domain,
  // K=3 halos do not fit) and sample parallelism is capped by a single
  // sample: channel/filter parallelism is the only way to shrink the local
  // work, so the optimizer must emit c > 1 conv grids — and they must run.
  core::NetworkBuilder nb;
  const int in = nb.input(Shape4{1, 32, 4, 4});
  int x = nb.conv("deep1", in, 32, 3, 1);
  x = nb.relu("r1", x);
  x = nb.conv("deep2", x, 32, 3, 1);
  x = nb.relu("r2", x);
  x = nb.conv("deep3", x, 32, 3, 1);
  const auto spec = nb.take();
  const auto strategy = optimize_strategy(spec, 8, kMachine);
  bool any_channel = false;
  for (int i = 0; i < spec.size(); ++i) {
    if (dynamic_cast<const core::Conv2dLayer*>(&spec.layer(i)) != nullptr) {
      any_channel |= strategy.grids[i].c > 1;
    }
  }
  EXPECT_TRUE(any_channel) << strategy.str();

  comm::World world(8);
  world.run([&](comm::Comm& comm) {
    core::Model model(spec, comm, strategy, 3);
    Tensor<float> input(model.rt(0).out_shape);
    Rng rng(1);
    input.fill_uniform(rng);
    model.set_input(0, input);
    model.forward();
    Tensor<float> targets(model.rt(model.output_layer()).out_shape);
    const double loss = model.loss_bce(targets);
    model.backward();
    model.sgd_step(kernels::SgdConfig{0.05f, 0.9f, 0.0f});
    EXPECT_TRUE(std::isfinite(loss));
  });
}

TEST(ChannelAdvisory, FlagsDeepResNetLayers) {
  // §VI-B2: deep layers (many filters, 7x7-14x14 spatial) are where channel
  // parallelism should beat spatial decomposition under strong scaling.
  const auto spec = models::make_resnet50(4);
  const auto opportunities = analyze_channel_opportunities(spec, 16, kMachine);
  ASSERT_FALSE(opportunities.empty());
  bool deep = false;
  for (const auto& opp : opportunities) {
    EXPECT_LT(opp.best_channel_cost, opp.best_spatial_cost);
    EXPECT_GE(opp.channel_ways, 2);
    if (opp.name.rfind("res5", 0) == 0 || opp.name.rfind("res4", 0) == 0) {
      deep = true;
    }
  }
  EXPECT_TRUE(deep) << "expected opportunities in the deep stages";
}

TEST(InferenceObjective, ServingGridsDifferFromTrainingAtBatchOne) {
  // At a serving batch of 1, sample parallelism leaves every rank but one
  // idle: the forward-only objective must decompose the heavy layers
  // spatially (or over channels) instead, while the training objective at a
  // saturating batch keeps recommending sample-majority grids — the
  // "different grids for serving than for training" contract.
  const auto serve_spec = models::make_mesh_model_1k(1);
  OptimizerOptions serving;
  serving.objective = Objective::kInference;
  const auto serving_strategy =
      optimize_strategy(serve_spec, 4, kMachine, serving);
  bool any_decomposed = false;
  for (const auto& g : serving_strategy.grids) {
    if (g.h * g.w > 1 || g.c > 1) any_decomposed = true;
  }
  EXPECT_TRUE(any_decomposed)
      << "batch-1 serving should not stay pure sample-parallel";

  const auto train_spec = models::make_mesh_model_1k(4);
  const auto training_strategy = optimize_strategy(train_spec, 4, kMachine);
  EXPECT_NE(serving_strategy.str(), training_strategy.str());
}

TEST(InferenceObjective, ThroughputBatchesKeepSampleParallelism) {
  // At a saturating dispatch batch the forward-only objective agrees with
  // the classic result: sample parallelism (no halo, no channel collectives)
  // maximizes throughput.
  const auto spec = models::make_resnet_tiny(8);
  OptimizerOptions serving;
  serving.objective = Objective::kInference;
  const auto strategy = optimize_strategy(spec, 4, kMachine, serving);
  int sample_layers = 0, total = 0;
  for (const auto& g : strategy.grids) {
    ++total;
    if (g.n == 4 && g.c == 1 && g.h == 1 && g.w == 1) ++sample_layers;
  }
  EXPECT_GT(sample_layers, total / 2);
}

TEST(InferenceObjective, NodeCostDropsBackpropTerms) {
  const auto spec = models::make_mesh_model_1k(2);
  const auto shapes = spec.infer_shapes();
  OptimizerOptions train_opt;
  OptimizerOptions serve_opt;
  serve_opt.objective = Objective::kInference;
  const auto live = spec.gradient_liveness();
  const ProcessGrid grid{1, 1, 2, 2};
  for (int i = 0; i < spec.size(); ++i) {
    const double train = layer_node_cost(spec, i, shapes, live, grid, kMachine,
                                         train_opt);
    const double serve = layer_node_cost(spec, i, shapes, live, grid, kMachine,
                                         serve_opt);
    EXPECT_LE(serve, train) << "layer " << i;
    if (train > 0.0 && conv_desc(spec, i, shapes).has_value()) {
      EXPECT_LT(serve, train) << "conv layer " << i
                              << " must shed its backward terms";
    }
  }
}

TEST(NodeCost, FirstConvPricesWhatNetworkCostPrices) {
  // The stem conv's input port is dead: it runs backward-filter only. The
  // optimizer's node cost must price exactly the terms network_cost charges
  // for it — no backward-data, no dL/dy halo.
  const auto spec = models::make_mesh_model_1k(2);
  const auto shapes = spec.infer_shapes();
  const auto live = spec.gradient_liveness();
  const int stem = models::layer_index(spec, "conv1_1");
  ASSERT_FALSE(live.ports[stem][0]);
  const auto compute = default_compute_model(kMachine);
  for (const ProcessGrid grid :
       {ProcessGrid{2, 1, 2, 2}, ProcessGrid{1, 1, 4, 2}, ProcessGrid{2, 4, 1, 1}}) {
    OptimizerOptions opt;
    const auto cost = network_cost(
        spec, core::Strategy::uniform(spec.size(), grid), kMachine,
        opt.cost_options, compute.get());
    const LayerCost& c = *cost.layers[stem];
    EXPECT_EQ(c.bpx_compute, 0.0) << grid.str();
    const bool overlap = opt.cost_options.overlap_halo;
    EXPECT_DOUBLE_EQ(layer_node_cost(spec, stem, shapes, live, grid, kMachine,
                                     opt, compute.get()),
                     c.fp(overlap) + c.bp(overlap))
        << grid.str();
  }
}

TEST(ChannelAdvisory, MeshStemPrefersSpatial) {
  // The 18-channel stem has a huge spatial domain and almost no channels to
  // split: spatial parallelism must win there (the paper's headline case).
  const auto spec = models::make_mesh_model_1k(2);
  const auto opportunities = analyze_channel_opportunities(spec, 8, kMachine);
  for (const auto& opp : opportunities) {
    EXPECT_NE(opp.name, "conv1_1");
  }
}

}  // namespace
}  // namespace distconv::perf
