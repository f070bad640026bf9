#include <gtest/gtest.h>

#include "perf/channel_parallel.hpp"
#include "perf/layer_cost.hpp"

namespace distconv::perf {
namespace {

const MachineModel kMachine = MachineModel::lassen();

LayerCost cost_of(const ConvLayerDesc& d, const ProcessGrid& g, int ranks) {
  CommModel comm(kMachine);
  RooflineComputeModel compute(kMachine);
  return conv_layer_cost(d, g, comm, compute, ranks);
}

TEST(ConvWork, FlopCount) {
  ConvWork w{2, 3, 8, 8, 4, 3, 3};
  EXPECT_DOUBLE_EQ(w.flops(), 2.0 * 2 * 3 * 8 * 8 * 4 * 9);
}

TEST(LayerCost, KOneHasNoHalo) {
  // res3b_branch2a: "The filter size means that no halo exchange is needed".
  ConvLayerDesc d{32, 512, 28, 28, 128, 1, 1, 0};
  const auto c = cost_of(d, ProcessGrid{1, 1, 2, 2}, 4);
  EXPECT_DOUBLE_EQ(c.fp_halo, 0.0);
  EXPECT_DOUBLE_EQ(c.bpx_halo, 0.0);
  EXPECT_DOUBLE_EQ(c.boundary_overhead, 0.0);
}

TEST(LayerCost, SampleParallelHasNoHalo) {
  ConvLayerDesc d{32, 64, 56, 56, 64, 3, 1, 1};
  const auto c = cost_of(d, ProcessGrid{4, 1, 1, 1}, 4);
  EXPECT_DOUBLE_EQ(c.fp_halo, 0.0);
  EXPECT_GT(c.allreduce, 0.0);  // dL/dw allreduce still required
}

TEST(LayerCost, SpatialSplitAddsHaloAndShrinksCompute) {
  ConvLayerDesc d{1, 18, 2048, 2048, 128, 5, 2, 2};
  const auto serial = cost_of(d, ProcessGrid{1, 1, 1, 1}, 1);
  const auto split = cost_of(d, ProcessGrid{1, 1, 2, 2}, 4);
  EXPECT_GT(split.fp_halo, 0.0);
  EXPECT_LT(split.fp_compute, serial.fp_compute);
  EXPECT_GT(split.fp_compute, serial.fp_compute / 8);  // sane bounds
}

TEST(LayerCost, OverlapHidesHaloWhenComputeDominates) {
  // Large spatial domain (mesh conv1_1): halo is fully hidden (§VI-A: "halo
  // exchange overheads are well-hidden").
  ConvLayerDesc d{1, 18, 2048, 2048, 128, 5, 2, 2};
  const auto c = cost_of(d, ProcessGrid{1, 1, 4, 4}, 16);
  EXPECT_GT(c.fp_compute, c.fp_halo);
  EXPECT_LT(c.fp(true), c.fp(false));
  EXPECT_NEAR(c.fp(true), c.fp_compute + c.boundary_overhead, 1e-9);
}

TEST(LayerCost, OverlapBoundedByHaloWhenCommDominates) {
  // Tiny compute with a big kernel: halo exchange dominates and cannot be
  // hidden (the conv1 N=1 forward case of Fig. 2).
  ConvLayerDesc d{1, 3, 224, 224, 64, 7, 2, 3};
  const auto c = cost_of(d, ProcessGrid{1, 1, 4, 4}, 16);
  EXPECT_GT(c.fp(true), c.fp_compute);
  EXPECT_GE(c.fp(false), c.fp(true));
}

TEST(LayerCost, InterNodeHaloCostsMoreThanIntraNode) {
  ConvLayerDesc d{1, 64, 512, 512, 64, 3, 1, 1};
  CommModel comm(kMachine);
  // 4-way split inside one node vs 16-way split across nodes: per-direction
  // link changes from NVLink to IB.
  const double intra = halo_exchange_time(d, ProcessGrid{1, 1, 2, 2}, comm, false);
  const double inter = halo_exchange_time(d, ProcessGrid{1, 1, 4, 4}, comm, false);
  // The 16-way halos are smaller per message but cross nodes; latency makes
  // them comparatively expensive.
  EXPECT_GT(inter, 0.5 * intra);
}

TEST(LayerCost, HalvingHeightOnlySkipsEastWestExchanges) {
  ConvLayerDesc d{2, 32, 128, 128, 32, 3, 1, 1};
  CommModel comm(kMachine);
  const double h_only = halo_exchange_time(d, ProcessGrid{1, 1, 2, 1}, comm, false);
  const double both = halo_exchange_time(d, ProcessGrid{1, 1, 2, 2}, comm, false);
  EXPECT_LT(h_only, both);  // west/east + corners added
}

TEST(LayerCost, AllreduceIndependentOfSpatialSplit) {
  ConvLayerDesc d{8, 64, 64, 64, 64, 3, 1, 1};
  const auto a = cost_of(d, ProcessGrid{8, 1, 1, 1}, 8);
  const auto b = cost_of(d, ProcessGrid{2, 1, 2, 2}, 8);
  EXPECT_DOUBLE_EQ(a.allreduce, b.allreduce);  // same weights, same span
}

TEST(LayerCost, SampleParallelismIsCheapestCommunication) {
  // §V-A: "in terms of communication overheads, sample parallelism is the
  // 'cheapest' approach".
  ConvLayerDesc d{16, 64, 56, 56, 64, 3, 1, 1};
  const auto sample = cost_of(d, ProcessGrid{16, 1, 1, 1}, 16);
  const auto spatial = cost_of(d, ProcessGrid{1, 1, 4, 4}, 16);
  const auto hybrid = cost_of(d, ProcessGrid{4, 1, 2, 2}, 16);
  const double sample_comm = sample.fp_halo + sample.bpx_halo;
  EXPECT_EQ(sample_comm, 0.0);
  EXPECT_GT(spatial.fp_halo + spatial.bpx_halo, 0.0);
  EXPECT_GT(hybrid.fp_halo + hybrid.bpx_halo, 0.0);
}

TEST(ChannelParallel, AllgatherReplacesHalo) {
  ConvLayerDesc d{32, 512, 28, 28, 128, 1, 1, 0};
  CommModel comm(kMachine);
  RooflineComputeModel compute(kMachine);
  const auto c = channel_filter_cost(d, 1, 4, comm, compute, 4);
  EXPECT_GT(c.fp_halo, 0.0);  // the input allgather
  const auto serial = channel_filter_cost(d, 1, 1, comm, compute, 1);
  EXPECT_LT(c.fp_compute, serial.fp_compute);
}

TEST(ChannelParallel, ShrinksWeightAllreduce) {
  ConvLayerDesc d{32, 256, 14, 14, 256, 3, 1, 1};
  CommModel comm(kMachine);
  RooflineComputeModel compute(kMachine);
  const auto full = channel_filter_cost(d, 16, 1, comm, compute, 16);
  const auto split = channel_filter_cost(d, 4, 4, comm, compute, 16);
  EXPECT_LT(split.allreduce, full.allreduce);
}

TEST(ChannelParallel, CanBeatSpatialForManyFiltersTinySpatial) {
  // §VI-B2: "Channel/filter parallelism may be more promising, as many
  // layers have many filters" — deep ResNet layer: 7×7 spatial, 512→512.
  ConvLayerDesc d{32, 512, 7, 7, 512, 3, 1, 1};
  CommModel comm(kMachine);
  RooflineComputeModel compute(kMachine);
  const auto spatial = conv_layer_cost(d, ProcessGrid{8, 1, 2, 2}, comm, compute, 32);
  const auto channel = channel_filter_cost(d, 8, 4, comm, compute, 32);
  EXPECT_LT(channel.total(true), spatial.total(true));
}

TEST(ChannelParallel, ConvLayerCostDispatchMatchesChannelFilterCost) {
  ConvLayerDesc d{32, 512, 7, 7, 512, 3, 1, 1};
  CommModel comm(kMachine);
  RooflineComputeModel compute(kMachine);
  const auto direct = channel_filter_cost(d, 8, 4, comm, compute, 32);
  const auto dispatched =
      conv_layer_cost(d, ProcessGrid{8, 4, 1, 1}, comm, compute, 32);
  EXPECT_DOUBLE_EQ(dispatched.total(true), direct.total(true));
  EXPECT_DOUBLE_EQ(dispatched.allreduce, direct.allreduce);
}

TEST(ChannelParallel, ChannelTimesSpatialGridsArePriceable) {
  // The engine executes c > 1 grids with spatial splits inside the channel
  // group (exactness case channel2_spatial2); the cost model must price
  // them rather than reject them.
  ConvLayerDesc d{8, 64, 16, 16, 64, 3, 1, 1};
  CommModel comm(kMachine);
  RooflineComputeModel compute(kMachine);
  const auto mixed =
      conv_layer_cost(d, ProcessGrid{1, 2, 2, 1}, comm, compute, 4);
  EXPECT_GT(mixed.fp_compute, 0.0);
  EXPECT_GT(mixed.fp_halo, 0.0);  // allgather + spatial halo
  // The spatial split shrinks compute relative to the pure channel grid of
  // the same channel ways, and adds halo traffic on top of the allgather
  // of the (smaller) owned block.
  const auto pure = conv_layer_cost(d, ProcessGrid{2, 2, 1, 1}, comm, compute, 4);
  EXPECT_LT(mixed.fp_compute, pure.fp_compute * 1.01);
}

}  // namespace
}  // namespace distconv::perf
