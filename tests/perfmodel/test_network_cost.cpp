#include <gtest/gtest.h>

#include "models/models.hpp"
#include "perf/network_cost.hpp"
#include "sim/experiment.hpp"

namespace distconv::perf {
namespace {

const MachineModel kMachine = MachineModel::lassen();

TEST(NetworkCost, MeshModelStrongScalingIsMonotone) {
  // More GPUs per sample at a fixed mini-batch must reduce the simulated
  // time across the paper's range (Table I behaviour).
  const auto spec = models::make_mesh_model_1k(4);
  double prev = 1e9;
  for (int gps : {1, 2, 4, 8, 16}) {
    const auto strategy = core::Strategy::hybrid(spec.size(), 4 * gps, gps);
    const auto cost = network_cost(spec, strategy, kMachine);
    EXPECT_LT(cost.minibatch_time(), prev) << gps;
    prev = cost.minibatch_time();
  }
}

TEST(NetworkCost, SpeedupsAreSublinear) {
  const auto spec = models::make_mesh_model_1k(4);
  const auto base = network_cost(
      spec, core::Strategy::hybrid(spec.size(), 4, 1), kMachine);
  for (int gps : {2, 4, 8, 16}) {
    const auto cost = network_cost(
        spec, core::Strategy::hybrid(spec.size(), 4 * gps, gps), kMachine);
    const double speedup = base.minibatch_time() / cost.minibatch_time();
    EXPECT_LT(speedup, gps) << gps;  // never superlinear
    EXPECT_GT(speedup, 0.3 * gps) << gps;  // but real
  }
}

TEST(NetworkCost, OverlapReducesTime) {
  const auto spec = models::make_mesh_model_1k(8);
  const auto strategy = core::Strategy::hybrid(spec.size(), 32, 4);
  NetworkCostOptions with, without;
  without.overlap_halo = false;
  without.overlap_allreduce = false;
  const double a = network_cost(spec, strategy, kMachine, with).minibatch_time();
  const double b =
      network_cost(spec, strategy, kMachine, without).minibatch_time();
  EXPECT_LT(a, b);
}

TEST(NetworkCost, WeakScalingIsNearlyFlatForSampleParallelism) {
  // Fig. 4: "the flat mini-batch time for increasing numbers of GPUs ...
  // shows near-perfect weak scaling" (below the memory-pressure scale).
  const auto t64 = network_cost(models::make_mesh_model_1k(64),
                                core::Strategy::sample_parallel(
                                    models::make_mesh_model_1k(64).size(), 64),
                                kMachine)
                       .minibatch_time();
  const auto t512 = network_cost(models::make_mesh_model_1k(512),
                                 core::Strategy::sample_parallel(
                                     models::make_mesh_model_1k(512).size(), 512),
                                 kMachine)
                        .minibatch_time();
  EXPECT_NEAR(t512 / t64, 1.0, 0.05);
}

TEST(NetworkCost, MemoryPressureSlowsSampleParallelismAt2048) {
  // Fig. 4's sample-parallel degradation at 2048 GPUs.
  const auto spec = models::make_mesh_model_1k(2048);
  const auto sample =
      network_cost(spec, core::Strategy::sample_parallel(spec.size(), 2048),
                   kMachine);
  EXPECT_TRUE(sample.memory.pressured);
  const auto spec_small = models::make_mesh_model_1k(1024);
  const auto smaller = network_cost(
      spec_small, core::Strategy::sample_parallel(spec_small.size(), 1024),
      kMachine);
  EXPECT_FALSE(smaller.memory.pressured);
  EXPECT_GT(sample.minibatch_time(), 1.1 * smaller.minibatch_time());
}

TEST(Memory, Mesh2kInfeasibleWithoutSpatialParallelism) {
  // §VI: "pure sample parallelism is not possible due to memory constraints"
  // for the 2K model; 2 GPUs/sample fits.
  const auto spec = models::make_mesh_model_2k(2);
  const auto sample = estimate_memory(
      spec, core::Strategy::sample_parallel(spec.size(), 2), kMachine, 2);
  EXPECT_FALSE(sample.feasible);
  const auto spatial = estimate_memory(
      spec, core::Strategy::hybrid(spec.size(), 4, 2), kMachine, 4);
  EXPECT_TRUE(spatial.feasible);
}

TEST(Memory, Mesh1kFitsOneSamplePerGpu) {
  const auto spec = models::make_mesh_model_1k(4);
  const auto est = estimate_memory(
      spec, core::Strategy::sample_parallel(spec.size(), 4), kMachine, 4);
  EXPECT_TRUE(est.feasible);
}

TEST(Memory, ResNet50At32PerGpuFits) {
  const auto spec = models::make_resnet50(128);
  const auto est = estimate_memory(
      spec, core::Strategy::sample_parallel(spec.size(), 4), kMachine, 4);
  EXPECT_TRUE(est.feasible);  // 32 samples per GPU, the paper's baseline
}

TEST(Memory, SpatialParallelismReducesActivationMemory) {
  const auto spec = models::make_mesh_model_2k(2);
  const auto one = estimate_memory(
      spec, core::Strategy::sample_parallel(spec.size(), 2), kMachine, 2);
  const auto four = estimate_memory(
      spec, core::Strategy::hybrid(spec.size(), 8, 4), kMachine, 8);
  EXPECT_LT(four.activation_bytes, 0.3 * one.activation_bytes);
}

TEST(Sim, TableOneShapeReproduced) {
  // The headline strong-scaling behaviour of Table I: speedups grow with
  // GPUs/sample and land in the paper's band.
  sim::ExperimentOptions opt;
  auto build = [](std::int64_t n) { return models::make_mesh_model_1k(n); };
  const auto cell1 = sim::evaluate(build, 4, 1, opt);
  const auto cell2 = sim::evaluate(build, 4, 2, opt);
  const auto cell16 = sim::evaluate(build, 4, 16, opt);
  ASSERT_TRUE(cell1.feasible && cell2.feasible && cell16.feasible);
  const double s2 = cell1.seconds / cell2.seconds;
  const double s16 = cell1.seconds / cell16.seconds;
  EXPECT_GT(s2, 1.5);   // paper: 2.0x
  EXPECT_LT(s2, 2.05);
  EXPECT_GT(s16, 4.0);  // paper: 6.1x
  EXPECT_LT(s16, 10.0);
}

TEST(Sim, TableTwoBaselineIsTwoGpus) {
  sim::ExperimentOptions opt;
  auto build = [](std::int64_t n) { return models::make_mesh_model_2k(n); };
  EXPECT_FALSE(sim::evaluate(build, 2, 1, opt).feasible);
  EXPECT_TRUE(sim::evaluate(build, 2, 2, opt).feasible);
}

TEST(Sim, MachineSizeLimitsConfigurations) {
  sim::ExperimentOptions opt;
  auto build = [](std::int64_t n) { return models::make_mesh_model_1k(n); };
  const auto cell = sim::evaluate(build, 1024, 4, opt);  // 4096 GPUs > 2048
  EXPECT_FALSE(cell.feasible);
  EXPECT_NE(cell.infeasible_reason.find("GPUs"), std::string::npos);
}

TEST(Sim, FormattingContainsPaperStyleColumns) {
  sim::ExperimentOptions opt;
  auto build = [](std::int64_t n) { return models::make_mesh_model_1k(n); };
  const auto table = sim::strong_scaling(build, {4}, {1, 2}, opt);
  const std::string text = sim::format_strong_scaling(table, 1, "T");
  EXPECT_NE(text.find("1 GPU/sample"), std::string::npos);
  EXPECT_NE(text.find("2 GPUs/sample"), std::string::npos);
  EXPECT_NE(text.find("x)"), std::string::npos);
}

TEST(Sim, WeakScalingSeriesRespectMachineSize) {
  sim::ExperimentOptions opt;
  opt.max_gpus = 64;
  auto build = [](std::int64_t n) { return models::make_mesh_model_1k(n); };
  const auto series = sim::weak_scaling(build, {1, 4}, 4, opt);
  ASSERT_EQ(series.size(), 2u);
  for (const auto& s : series) {
    for (const auto& cell : s.cells) {
      EXPECT_LE(cell.gpus, 64);
      if (cell.feasible) {
        EXPECT_GT(cell.seconds, 0.0);
      }
    }
    // Weak scaling: flat within 10% below the pressure scale.
    const double first = s.cells.front().seconds;
    for (const auto& cell : s.cells) {
      if (cell.feasible) {
        EXPECT_NEAR(cell.seconds / first, 1.0, 0.1);
      }
    }
  }
}

TEST(Sim, SamplesPerGroupScalesGpuCount) {
  sim::ExperimentOptions opt;
  opt.samples_per_group = 32;
  auto build = [](std::int64_t n) { return models::make_resnet50(n); };
  const auto cell = sim::evaluate(build, 128, 2, opt);
  EXPECT_EQ(cell.gpus, 8);  // 128 samples / 32 per group x 2 GPUs
  ASSERT_TRUE(cell.feasible);
}

TEST(InferenceCost, ForwardOnlyIsCheaperThanTrainingStep) {
  const auto spec = models::make_mesh_model_1k(4);
  const auto strategy = core::Strategy::hybrid(spec.size(), 16, 4);
  const auto train = network_cost(spec, strategy, kMachine);
  const auto infer = inference_cost(spec, strategy, kMachine);
  EXPECT_GT(infer.forward, 0.0);
  // No backprop, no gradient allreduce, one-way shuffles.
  EXPECT_LT(infer.batch_latency(), train.minibatch_time());
  EXPECT_LE(infer.forward, train.forward);
  EXPECT_LE(infer.shuffle, train.shuffle);
}

TEST(InferenceCost, ForwardOnlyMemoryFootprintIsSmaller) {
  const auto spec = models::make_mesh_model_1k(4);
  const auto strategy = core::Strategy::hybrid(spec.size(), 16, 4);
  const auto train = estimate_memory(spec, strategy, kMachine, 16);
  const auto infer = estimate_memory_inference(spec, strategy, kMachine, 16);
  // y only (no dy), params only (no grads/momentum). Training holds a dy
  // for every layer but the input, whose error signal nothing consumes.
  const Shape4 in = spec.infer_shapes()[0];
  const ProcessGrid& g0 = strategy.grids[0];
  auto blocks = [](std::int64_t n, int parts) { return (n + parts - 1) / parts; };
  const double input_bytes = 4.0 * blocks(in.n, g0.n) * blocks(in.c, g0.c) *
                             blocks(in.h, g0.h) * blocks(in.w, g0.w);
  EXPECT_NEAR(infer.activation_bytes,
              (train.activation_bytes + input_bytes) / 2.0, 1.0);
  EXPECT_NEAR(infer.parameter_bytes, train.parameter_bytes / 3.0, 1.0);
  EXPECT_LT(infer.total_bytes, train.total_bytes);
}

TEST(InferenceCost, SpatialSplitCutsSingleSampleLatency) {
  // The serving regime the forward-only objective exists for: at batch 1,
  // sample parallelism cannot cut latency but a spatial split can.
  const auto spec = models::make_mesh_model_1k(1);
  const auto sample =
      inference_cost(spec, core::Strategy::sample_parallel(spec.size(), 4),
                     kMachine);
  const auto spatial = inference_cost(
      spec, core::Strategy::uniform(spec.size(), ProcessGrid{1, 1, 2, 2}),
      kMachine);
  EXPECT_LT(spatial.batch_latency(), sample.batch_latency());
}

TEST(ServingEstimate, PolicyDelayShapesLatencyPercentiles) {
  const auto spec = models::make_mesh_model_1k(4);
  const auto strategy = core::Strategy::hybrid(spec.size(), 16, 4);
  const double delay = 2e-3;
  const auto est = estimate_serving(spec, strategy, kMachine, delay);
  EXPECT_GT(est.batch_latency, 0.0);
  EXPECT_NEAR(est.p50_latency, est.batch_latency + 0.5 * delay, 1e-12);
  EXPECT_NEAR(est.p99_latency, est.batch_latency + delay, 1e-12);
  EXPECT_NEAR(est.throughput, 4.0 / est.batch_latency, 1e-6);
  // The greedy policy trades percentile latency for throughput headroom.
  const auto greedy = estimate_serving(spec, strategy, kMachine, 0.0);
  EXPECT_LT(greedy.p99_latency, est.p99_latency);
  EXPECT_EQ(greedy.p50_latency, greedy.p99_latency);
}

TEST(ServingEstimate, ReplicaTermScalesThroughputNotLatency) {
  const auto spec = models::make_mesh_model_1k(4);
  const auto strategy = core::Strategy::hybrid(spec.size(), 16, 4);
  const double delay = 1e-3;
  const auto one = estimate_serving(spec, strategy, kMachine, delay);
  const auto fleet = estimate_serving(spec, strategy, kMachine, delay,
                                      /*replicas=*/3);
  EXPECT_EQ(one.replicas, 1);
  EXPECT_EQ(one.fleet_throughput, one.throughput);
  EXPECT_EQ(fleet.replicas, 3);
  // Replicas serve independent batches: percentiles are per-replica,
  // throughput scales with the group count.
  EXPECT_EQ(fleet.batch_latency, one.batch_latency);
  EXPECT_EQ(fleet.p99_latency, one.p99_latency);
  EXPECT_EQ(fleet.throughput, one.throughput);
  EXPECT_NEAR(fleet.fleet_throughput, 3.0 * one.throughput, 1e-9);
  EXPECT_THROW(estimate_serving(spec, strategy, kMachine, delay, 0), Error);
}

TEST(InferenceCost, ChannelParallelPricesAllgatherXSchedule) {
  // Training and serving run one channel-parallel forward: allgather x over
  // the channel group, then the owned filters against all C. Both cost
  // functions must price it alike, and its wire term must follow x's
  // volume, not y's.
  const ProcessGrid grid{1, 4, 1, 1};
  const auto price = [&](std::int64_t c, int f) {
    core::NetworkBuilder nb;
    const int in = nb.input(Shape4{4, c, 32, 32});
    nb.conv("c", in, f, 3, 1, 1);
    const auto net = nb.take();
    const auto strategy = core::Strategy::uniform(net.size(), grid);
    const auto train = network_cost(net, strategy, kMachine);
    const auto infer = inference_cost(net, strategy, kMachine);
    if (!train.layers[1] || !infer.layers[1]) {
      ADD_FAILURE() << "conv layer not priced";
      return LayerCost{};
    }
    EXPECT_EQ(infer.layers[1]->fp_compute, train.layers[1]->fp_compute);
    EXPECT_EQ(infer.layers[1]->fp_halo, train.layers[1]->fp_halo);
    return *infer.layers[1];
  };
  const LayerCost base = price(64, 8);
  EXPECT_GT(base.fp_halo, 0.0);
  // 8× the filters (y's volume) leaves the forward wire term alone ...
  EXPECT_EQ(price(64, 64).fp_halo, base.fp_halo);
  // ... while 2× the channels (x's volume) grows it.
  EXPECT_GT(price(128, 8).fp_halo, base.fp_halo);
}

/// input → conv c1 → conv head: nothing consumes c1's dL/dx.
core::NetworkSpec first_conv_net() {
  core::NetworkBuilder nb;
  const int in = nb.input(Shape4{4, 8, 64, 64});
  const int c1 = nb.conv("c1", in, 16, 3);
  nb.conv("head", c1, 1, 3);
  return nb.take();
}

TEST(NetworkCost, FirstConvPricesBackwardFilterOnly) {
  const auto spec = first_conv_net();
  for (const ProcessGrid grid : {ProcessGrid{1, 1, 2, 2}, ProcessGrid{4, 1, 1, 1}}) {
    const auto cost = network_cost(
        spec, core::Strategy::uniform(spec.size(), grid), kMachine);
    ASSERT_TRUE(cost.layers[1].has_value());
    const LayerCost& first = *cost.layers[1];
    EXPECT_EQ(first.bpx_compute, 0.0) << grid.str();
    EXPECT_EQ(first.bpx_halo, 0.0) << grid.str();
    EXPECT_EQ(first.bp(true), first.bpw_compute) << grid.str();
    EXPECT_EQ(first.bp(false), first.bpw_compute) << grid.str();
    // The head's input gradient feeds c1's weights, so it keeps its dL/dx.
    EXPECT_GT(cost.layers[2]->bpx_compute, 0.0) << grid.str();
  }
}

TEST(NetworkCost, DeadChannelParallelPortKeepsDyAllgather) {
  // Backward-filter needs the allgathered full-F dL/dy, so a channel-
  // parallel first conv still pays the allgather, but no backward-data.
  const auto spec = first_conv_net();
  const ProcessGrid grid{1, 4, 1, 1};
  const auto cost =
      network_cost(spec, core::Strategy::uniform(spec.size(), grid), kMachine);
  const LayerCost& first = *cost.layers[1];
  EXPECT_EQ(first.bpx_compute, 0.0);
  EXPECT_GT(first.bpx_halo, 0.0);
  const auto shapes = spec.infer_shapes();
  auto desc = conv_desc(spec, 1, shapes);
  ASSERT_TRUE(desc.has_value());
  const CommModel comm(kMachine);
  RooflineComputeModel compute(kMachine);
  const LayerCost full = conv_layer_cost(*desc, grid, comm, compute, 4);
  EXPECT_EQ(first.bpx_halo, full.bpx_halo);  // no spatial halo to drop
  EXPECT_EQ(first.bpw_compute, full.bpw_compute);
}

TEST(NetworkCost, DeadCrossGridEdgePricesNoBackwardShuffle) {
  // The input sits on a different grid from c1: the forward shuffle runs,
  // but no error signal moves back across that edge.
  const auto spec = first_conv_net();
  auto strategy = core::Strategy::uniform(spec.size(), ProcessGrid{1, 1, 2, 2});
  strategy.grids[0] = ProcessGrid{4, 1, 1, 1};
  NetworkCostOptions blocking;
  blocking.overlap_shuffle = false;  // backward shuffles land in .shuffle
  const auto train = network_cost(spec, strategy, kMachine, blocking);
  const auto infer = inference_cost(spec, strategy, kMachine, blocking);
  EXPECT_GT(infer.shuffle, 0.0);
  EXPECT_EQ(train.shuffle, infer.shuffle);  // forward direction only
}

TEST(Memory, DeadErrorSignalsHoldNoBytes) {
  // Parameter-free prefix: the input and the pool feed only c1's dead port,
  // so neither holds a dy.
  core::NetworkBuilder nb;
  const int in = nb.input(Shape4{2, 4, 32, 32});
  const int pool = nb.pool_max("pool", in, 3, 1, 1);
  const int c1 = nb.conv("c1", pool, 4, 3);
  nb.relu("r", c1);
  const auto spec = nb.take();
  const auto strategy = core::Strategy::sample_parallel(spec.size(), 2);
  const auto train = estimate_memory(spec, strategy, kMachine, 2);
  const auto infer = estimate_memory_inference(spec, strategy, kMachine, 2);
  const double block = 4.0 * 1 * 4 * 32 * 32;  // every layer's local y
  EXPECT_EQ(infer.activation_bytes, 4 * block);
  EXPECT_EQ(train.activation_bytes, 4 * block + 2 * block);  // c1, r dy only
  EXPECT_EQ(train.pressured, infer.pressured);
}

TEST(Sim, WeakScalingFormatMentionsInfeasibleReason) {
  sim::ExperimentOptions opt;
  opt.max_gpus = 8;
  auto build = [](std::int64_t n) { return models::make_mesh_model_2k(n); };
  // 1 GPU/sample on the 2K model: every point is memory-infeasible.
  const auto series = sim::weak_scaling(build, {1}, 4, opt);
  const std::string text = sim::format_weak_scaling(series, "T");
  EXPECT_NE(text.find("n/a"), std::string::npos);
  EXPECT_NE(text.find("memory"), std::string::npos);
}

}  // namespace
}  // namespace distconv::perf
