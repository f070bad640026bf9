#include <gtest/gtest.h>

#include "perf/comm_model.hpp"

namespace distconv::perf {
namespace {

TEST(LinkModel, AlphaBetaLinear) {
  LinkModel link{1e-6, 1e-9};
  EXPECT_DOUBLE_EQ(link.time(0), 1e-6);
  EXPECT_DOUBLE_EQ(link.time(1000), 1e-6 + 1e-6);
}

TEST(MachineModel, NodePacking) {
  MachineModel m;
  EXPECT_TRUE(m.same_node(0, 3));
  EXPECT_FALSE(m.same_node(3, 4));
  EXPECT_EQ(&m.link(0, 1), &m.intra);
  EXPECT_EQ(&m.link(0, 4), &m.inter);
}

TEST(CommModel, SingleRankCollectivesAreFree) {
  CommModel comm(MachineModel::lassen());
  EXPECT_DOUBLE_EQ(comm.allreduce(1, 1e6), 0.0);
  EXPECT_DOUBLE_EQ(comm.alltoall(1, 1e6), 0.0);
}

TEST(CommModel, RecursiveDoublingLatencyScalesWithLogP) {
  CommModel comm(MachineModel::lassen());
  const double t16 = comm.recursive_doubling_allreduce(16, 4);
  const double t256 = comm.recursive_doubling_allreduce(256, 4);
  EXPECT_NEAR(t256 / t16, 2.0, 0.01);  // 8 steps vs 4 steps
}

TEST(CommModel, RingBandwidthTermDominatesLargeMessages) {
  CommModel comm(MachineModel::lassen());
  const double bytes = 100e6;
  const double t = comm.ring_allreduce(8, bytes);
  // 2 (p−1)/p n β plus small latency/γ terms.
  const double bw_term = 2.0 * (7.0 / 8.0) * bytes / 10e9;
  EXPECT_GT(t, bw_term);
  EXPECT_LT(t, bw_term * 1.5);
}

TEST(CommModel, AlgorithmSelectionCrossover) {
  // Small message → recursive doubling (latency-optimal); large message →
  // ring/hierarchical (bandwidth-optimal). Mirrors the kAuto selection in
  // comm/collectives.hpp.
  CommModel comm(MachineModel::lassen());
  const int p = 64;
  EXPECT_LE(comm.allreduce(p, 64), comm.ring_allreduce(p, 64));
  EXPECT_LE(comm.allreduce(p, 64e6),
            comm.recursive_doubling_allreduce(p, 64e6));
}

TEST(CommModel, HierarchicalBeatsFlatRingAcrossManyNodes) {
  CommModel comm(MachineModel::lassen());
  const double flat = comm.ring_allreduce(512, 20e6);
  const double hier = comm.hierarchical_allreduce(512, 20e6);
  EXPECT_LT(hier, flat);
}

TEST(CommModel, AllreduceMonotoneInSize) {
  CommModel comm(MachineModel::lassen());
  double prev = 0;
  for (double bytes : {1e3, 1e4, 1e5, 1e6, 1e7}) {
    const double t = comm.allreduce(128, bytes);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(CommModel, AlltoallScalesWithPayload) {
  CommModel comm(MachineModel::lassen());
  EXPECT_LT(comm.alltoall(16, 1e5), comm.alltoall(16, 1e7));
  EXPECT_LT(comm.alltoall(4, 1e6), comm.alltoall(64, 1e6));
}

}  // namespace
}  // namespace distconv::perf
