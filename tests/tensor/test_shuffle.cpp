#include <gtest/gtest.h>

#include "comm/collectives.hpp"
#include "tensor/shuffle.hpp"

namespace distconv {
namespace {

template <typename T>
void fill_pattern(DistTensor<T>& t) {
  const Box4 owned = t.owned_box();
  for (std::int64_t n = 0; n < owned.ext[0]; ++n)
    for (std::int64_t c = 0; c < owned.ext[1]; ++c)
      for (std::int64_t h = 0; h < owned.ext[2]; ++h)
        for (std::int64_t w = 0; w < owned.ext[3]; ++w) {
          const std::int64_t gn = owned.off[0] + n, gc = owned.off[1] + c,
                             gh = owned.off[2] + h, gw = owned.off[3] + w;
          t.at_owned(n, c, h, w) =
              static_cast<T>(((gn * 101 + gc) * 101 + gh) * 101 + gw);
        }
}

template <typename T>
void expect_pattern(const DistTensor<T>& t) {
  const Box4 owned = t.owned_box();
  for (std::int64_t n = 0; n < owned.ext[0]; ++n)
    for (std::int64_t c = 0; c < owned.ext[1]; ++c)
      for (std::int64_t h = 0; h < owned.ext[2]; ++h)
        for (std::int64_t w = 0; w < owned.ext[3]; ++w) {
          const std::int64_t gn = owned.off[0] + n, gc = owned.off[1] + c,
                             gh = owned.off[2] + h, gw = owned.off[3] + w;
          ASSERT_FLOAT_EQ(t.at_owned(n, c, h, w),
                          static_cast<T>(((gn * 101 + gc) * 101 + gh) * 101 + gw))
              << "(" << gn << "," << gc << "," << gh << "," << gw << ")";
        }
}

struct ShuffleCase {
  ProcessGrid src, dst;
};

class ShuffleSweep : public ::testing::TestWithParam<ShuffleCase> {};

INSTANTIATE_TEST_SUITE_P(
    GridPairs, ShuffleSweep,
    ::testing::Values(
        // Sample-parallel → hybrid (the paper's common transition).
        ShuffleCase{ProcessGrid{8, 1, 1, 1}, ProcessGrid{2, 1, 2, 2}},
        // Hybrid → sample-parallel.
        ShuffleCase{ProcessGrid{2, 1, 2, 2}, ProcessGrid{8, 1, 1, 1}},
        // Spatial H split → spatial W split.
        ShuffleCase{ProcessGrid{1, 1, 8, 1}, ProcessGrid{1, 1, 1, 8}},
        // 2x4 → 4x2 spatial regrid.
        ShuffleCase{ProcessGrid{1, 1, 2, 4}, ProcessGrid{1, 1, 4, 2}},
        // Identity.
        ShuffleCase{ProcessGrid{2, 1, 2, 2}, ProcessGrid{2, 1, 2, 2}}));

TEST_P(ShuffleSweep, RedistributesExactly) {
  const auto cfg = GetParam();
  ASSERT_EQ(cfg.src.size(), cfg.dst.size());
  comm::World world(cfg.src.size());
  world.run([&cfg](comm::Comm& comm) {
    const Shape4 global{8, 3, 16, 16};
    const auto src_dist = Distribution::make(global, cfg.src);
    const auto dst_dist = Distribution::make(global, cfg.dst);
    DistTensor<float> src(&comm, src_dist), dst(&comm, dst_dist);
    fill_pattern(src);
    Shuffler<float> shuffler(src_dist, dst_dist, comm);
    shuffler.run(src, dst);
    expect_pattern(dst);
  });
}

TEST_P(ShuffleSweep, EngineDrivenOpRedistributesExactly) {
  // The progress-engine form of every sweep case: the op run() executes
  // inline, driven round by round through a CollectiveEngine instead.
  const auto cfg = GetParam();
  comm::World world(cfg.src.size());
  world.run([&cfg](comm::Comm& comm) {
    const Shape4 global{8, 3, 16, 16};
    const auto src_dist = Distribution::make(global, cfg.src);
    const auto dst_dist = Distribution::make(global, cfg.dst);
    DistTensor<float> src(&comm, src_dist), dst(&comm, dst_dist);
    fill_pattern(src);
    Shuffler<float> shuffler(src_dist, dst_dist, comm);
    comm::CollectiveEngine engine;
    engine.enqueue(shuffler.make_op(src, dst));
    engine.drain();
    EXPECT_TRUE(engine.idle());
    expect_pattern(dst);
  });
}

TEST(Shuffle, NonblockingOpTicketedBehindOtherTraffic) {
  // A pre-posted shuffle op queued behind an allreduce (the model's FIFO
  // when a gradient completion is still in flight) must deliver the exact
  // redistribution once drained to its ticket, with blocking collective
  // traffic interleaved on the same communicator.
  comm::World world(4);
  world.run([](comm::Comm& comm) {
    const Shape4 global{4, 2, 8, 8};
    const auto a = Distribution::make(global, ProcessGrid{4, 1, 1, 1});
    const auto b = Distribution::make(global, ProcessGrid{1, 1, 2, 2});
    DistTensor<float> src(&comm, a), dst(&comm, b);
    fill_pattern(src);
    Shuffler<float> shuffler(a, b, comm);

    std::vector<float> grad(8192, comm.rank() + 1.0f);
    comm::CollectiveEngine engine;
    engine.enqueue(comm::make_iallreduce(comm, grad.data(), grad.size(),
                                         comm::ReduceOp::kSum));
    const std::uint64_t ticket = engine.enqueue(shuffler.make_op(src, dst));
    // Blocking traffic on the same comm while both ops are in flight.
    float probe = static_cast<float>(comm.rank());
    comm::allreduce(comm, &probe, 1, comm::ReduceOp::kSum);
    EXPECT_FLOAT_EQ(probe, 6.0f);
    engine.drain_until(ticket);
    EXPECT_TRUE(engine.idle());
    EXPECT_FLOAT_EQ(grad[0], 10.0f);  // 1+2+3+4
    expect_pattern(dst);
  });
}

TEST(Shuffle, IdentityMovesNoRemoteData) {
  comm::World world(4);
  world.run([](comm::Comm& comm) {
    const Shape4 global{4, 1, 8, 8};
    const auto dist = Distribution::make(global, ProcessGrid{4, 1, 1, 1});
    Shuffler<float> s(dist, dist, comm);
    EXPECT_TRUE(s.is_identity());
    EXPECT_EQ(s.remote_send_elements(), 0u);
  });
}

TEST(Shuffle, FullRedistributionVolume) {
  // Sample-parallel → pure spatial: every rank keeps exactly 1/p of its data
  // (the intersection of its sample block with its spatial block).
  comm::World world(4);
  world.run([](comm::Comm& comm) {
    const Shape4 global{4, 2, 8, 8};
    const auto a = Distribution::make(global, ProcessGrid{4, 1, 1, 1});
    const auto b = Distribution::make(global, ProcessGrid{1, 1, 4, 1});
    Shuffler<float> s(a, b, comm);
    const std::size_t local = static_cast<std::size_t>(global.size()) / 4;
    EXPECT_EQ(s.remote_send_elements(), local - local / 4);
  });
}

TEST(Shuffle, MismatchedGlobalShapesThrow) {
  comm::World world(2);
  EXPECT_THROW(world.run([](comm::Comm& comm) {
                 const auto a =
                     Distribution::make(Shape4{2, 1, 4, 4}, ProcessGrid{2, 1, 1, 1});
                 const auto b =
                     Distribution::make(Shape4{2, 1, 4, 5}, ProcessGrid{2, 1, 1, 1});
                 Shuffler<float> s(a, b, comm);
               }),
               Error);
}

TEST(Shuffle, PreservesDataWithMarginsOnBothSides) {
  // Margins must not interfere with redistribution (interiors only move).
  comm::World world(4);
  world.run([](comm::Comm& comm) {
    const Shape4 global{2, 1, 16, 16};
    const auto a = Distribution::make(global, ProcessGrid{1, 1, 4, 1});
    const auto b = Distribution::make(global, ProcessGrid{1, 1, 2, 2});
    const StencilSpec spec{3, 1, 1};
    const auto mha = forward_stencil_margins(a.h, DimPartition(16, 4), spec);
    const auto mhb = forward_stencil_margins(b.h, DimPartition(16, 2), spec);
    const auto mwb = forward_stencil_margins(b.w, DimPartition(16, 2), spec);
    DistTensor<float> src(&comm, a, mha, MarginTable(1));
    DistTensor<float> dst(&comm, b, mhb, mwb);
    fill_pattern(src);
    // Poison margins to verify they are not shuffled.
    dst.buffer().fill(-99.0f);
    Shuffler<float> s(a, b, comm);
    s.run(src, dst);
    expect_pattern(dst);
  });
}

TEST(GatherToAll, ReassemblesGlobalTensor) {
  comm::World world(4);
  world.run([](comm::Comm& comm) {
    const Shape4 global{2, 2, 8, 8};
    const auto dist = Distribution::make(global, ProcessGrid{2, 1, 2, 1});
    DistTensor<float> t(&comm, dist);
    fill_pattern(t);
    const Tensor<float> full = gather_to_all(t);
    for (std::int64_t n = 0; n < global.n; ++n)
      for (std::int64_t c = 0; c < global.c; ++c)
        for (std::int64_t h = 0; h < global.h; ++h)
          for (std::int64_t w = 0; w < global.w; ++w)
            ASSERT_FLOAT_EQ(full(n, c, h, w),
                            ((n * 101 + c) * 101 + h) * 101 + w);
  });
}

}  // namespace
}  // namespace distconv
