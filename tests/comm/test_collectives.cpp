#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "comm/collectives.hpp"
#include "support/rng.hpp"

namespace distconv::comm {
namespace {

// Many collectives are exercised over a sweep of world sizes, including
// non-powers of two, which stress the pof2 fixups.
class CollectiveSizes : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(WorldSizes, CollectiveSizes,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 12, 16));

TEST_P(CollectiveSizes, Barrier) {
  World world(GetParam());
  world.run([](Comm& comm) {
    for (int i = 0; i < 3; ++i) barrier(comm);
  });
}

TEST_P(CollectiveSizes, BroadcastFromEveryRoot) {
  const int p = GetParam();
  World world(p);
  world.run([p](Comm& comm) {
    for (int root = 0; root < p; ++root) {
      std::vector<int> buf(17, comm.rank() == root ? root + 1000 : -1);
      broadcast(comm, buf.data(), buf.size(), root);
      for (int v : buf) EXPECT_EQ(v, root + 1000);
    }
  });
}

TEST_P(CollectiveSizes, ReduceSumToEveryRoot) {
  const int p = GetParam();
  World world(p);
  world.run([p](Comm& comm) {
    for (int root = 0; root < p; ++root) {
      std::vector<double> buf(9);
      for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = comm.rank() + i;
      reduce(comm, buf.data(), buf.size(), ReduceOp::kSum, root);
      if (comm.rank() == root) {
        const double rank_sum = p * (p - 1) / 2.0;
        for (std::size_t i = 0; i < buf.size(); ++i) {
          EXPECT_DOUBLE_EQ(buf[i], rank_sum + p * double(i));
        }
      }
    }
  });
}

TEST_P(CollectiveSizes, AllgatherOrdersByRank) {
  const int p = GetParam();
  World world(p);
  world.run([p](Comm& comm) {
    std::vector<int> mine(3, comm.rank());
    std::vector<int> all(3 * p, -1);
    allgather(comm, mine.data(), mine.size(), all.data());
    for (int r = 0; r < p; ++r) {
      for (int i = 0; i < 3; ++i) EXPECT_EQ(all[r * 3 + i], r);
    }
  });
}

TEST_P(CollectiveSizes, AllgathervVariableSizes) {
  const int p = GetParam();
  World world(p);
  world.run([p](Comm& comm) {
    // Rank r contributes r + 1 elements, all equal to r.
    std::vector<std::size_t> counts(p), displs(p);
    std::size_t total = 0;
    for (int r = 0; r < p; ++r) {
      counts[r] = r + 1;
      displs[r] = total;
      total += counts[r];
    }
    std::vector<int> mine(comm.rank() + 1, comm.rank());
    std::vector<int> all(total, -1);
    allgatherv(comm, mine.data(), mine.size(), all.data(), counts, displs);
    for (int r = 0; r < p; ++r) {
      for (std::size_t i = 0; i < counts[r]; ++i) {
        EXPECT_EQ(all[displs[r] + i], r);
      }
    }
  });
}

class AllreduceCase
    : public ::testing::TestWithParam<std::tuple<int, int, AllreduceAlgo>> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllreduceCase,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 8, 13),
                       ::testing::Values(1, 7, 64, 1000),
                       ::testing::Values(AllreduceAlgo::kRecursiveDoubling,
                                         AllreduceAlgo::kRing,
                                         AllreduceAlgo::kAuto)));

TEST_P(AllreduceCase, SumMatchesAnalytic) {
  const auto [p, n, algo] = GetParam();
  World world(p);
  world.run([p, n, algo](Comm& comm) {
    std::vector<double> buf(n);
    for (int i = 0; i < n; ++i) buf[i] = (comm.rank() + 1) * 0.5 + i;
    allreduce(comm, buf.data(), buf.size(), ReduceOp::kSum, algo);
    const double rank_part = 0.5 * p * (p + 1) / 2.0;
    for (int i = 0; i < n; ++i) {
      EXPECT_NEAR(buf[i], rank_part + double(i) * p, 1e-9) << "i=" << i;
    }
  });
}

TEST_P(AllreduceCase, MaxPicksLargest) {
  const auto [p, n, algo] = GetParam();
  World world(p);
  world.run([p, n, algo](Comm& comm) {
    std::vector<double> buf(n);
    for (int i = 0; i < n; ++i) buf[i] = comm.rank() * 10.0 + i;
    allreduce(comm, buf.data(), buf.size(), ReduceOp::kMax, algo);
    for (int i = 0; i < n; ++i) EXPECT_DOUBLE_EQ(buf[i], (p - 1) * 10.0 + i);
  });
}

TEST(Allreduce, MinAndProd) {
  World world(4);
  world.run([](Comm& comm) {
    std::vector<float> mn{float(comm.rank() + 1)};
    allreduce(comm, mn.data(), 1, ReduceOp::kMin);
    EXPECT_FLOAT_EQ(mn[0], 1.0f);
    std::vector<float> pr{2.0f};
    allreduce(comm, pr.data(), 1, ReduceOp::kProd);
    EXPECT_FLOAT_EQ(pr[0], 16.0f);
  });
}

TEST(Allreduce, ResultsBitwiseIdenticalAcrossRanks) {
  // SGD requires replicated weights to stay replicated: every rank must get
  // exactly the same reduction result.
  for (auto algo : {AllreduceAlgo::kRecursiveDoubling, AllreduceAlgo::kRing}) {
    World world(6);
    world.run([algo](Comm& comm) {
      std::vector<float> buf(257);
      Rng rng(99, comm.rank());
      for (auto& v : buf) v = static_cast<float>(rng.normal());
      allreduce(comm, buf.data(), buf.size(), ReduceOp::kSum, algo);
      // Gather rank 0's result and compare bitwise.
      std::vector<float> reference = buf;
      broadcast(comm, reference.data(), reference.size(), 0);
      for (std::size_t i = 0; i < buf.size(); ++i) {
        EXPECT_EQ(buf[i], reference[i]) << "algo mismatch at " << i;
      }
    });
  }
}

TEST_P(CollectiveSizes, AlltoallvTransposesRankData) {
  const int p = GetParam();
  World world(p);
  world.run([p](Comm& comm) {
    // Rank r sends value r*p + d to destination d.
    std::vector<int> send(p), recv(p, -1);
    std::vector<std::size_t> counts(p, 1), displs(p);
    for (int d = 0; d < p; ++d) {
      send[d] = comm.rank() * p + d;
      displs[d] = d;
    }
    alltoallv(comm, send.data(), counts, displs, recv.data(), counts, displs);
    for (int s = 0; s < p; ++s) EXPECT_EQ(recv[s], s * p + comm.rank());
  });
}

TEST(Alltoallv, VariableAndZeroCounts) {
  const int p = 4;
  World world(p);
  world.run([p](Comm& comm) {
    // Rank r sends r copies of its rank to each destination with d > r,
    // nothing otherwise.
    std::vector<std::size_t> sc(p), sd(p), rc(p), rd(p);
    std::size_t stot = 0, rtot = 0;
    for (int d = 0; d < p; ++d) {
      sc[d] = d > comm.rank() ? comm.rank() : 0;
      sd[d] = stot;
      stot += sc[d];
      rc[d] = comm.rank() > d ? d : 0;
      rd[d] = rtot;
      rtot += rc[d];
    }
    std::vector<int> send(stot, comm.rank()), recv(rtot, -1);
    alltoallv(comm, send.data(), sc, sd, recv.data(), rc, rd);
    for (int s = 0; s < p; ++s) {
      for (std::size_t i = 0; i < rc[s]; ++i) EXPECT_EQ(recv[rd[s] + i], s);
    }
  });
}

TEST_P(CollectiveSizes, GathervAndScattervRoundTrip) {
  const int p = GetParam();
  World world(p);
  world.run([p](Comm& comm) {
    std::vector<std::size_t> counts(p), displs(p);
    std::size_t total = 0;
    for (int r = 0; r < p; ++r) {
      counts[r] = 2 * r + 1;
      displs[r] = total;
      total += counts[r];
    }
    std::vector<int> mine(counts[comm.rank()], comm.rank() + 7);
    std::vector<int> gathered(comm.rank() == 0 ? total : 0);
    gatherv(comm, mine.data(), mine.size(), gathered.data(), counts, displs, 0);
    if (comm.rank() == 0) {
      for (int r = 0; r < p; ++r) {
        for (std::size_t i = 0; i < counts[r]; ++i) {
          EXPECT_EQ(gathered[displs[r] + i], r + 7);
        }
      }
    }
    // Scatter back doubled values.
    if (comm.rank() == 0) {
      for (auto& v : gathered) v *= 2;
    }
    std::vector<int> back(counts[comm.rank()], -1);
    scatterv(comm, gathered.data(), counts, displs, back.data(), back.size(), 0);
    for (auto v : back) EXPECT_EQ(v, (comm.rank() + 7) * 2);
  });
}

TEST(CollectiveStats, RingAllreduceBandwidthOptimalVolume) {
  // Ring allreduce moves 2(p-1)/p · n elements per rank; validate the total
  // against the counter (this is the β term of the Thakur model).
  const int p = 4;
  const std::size_t n = 1024;
  World world(p);
  world.reset_stats();
  world.run([n](Comm& comm) {
    std::vector<float> buf(n, 1.0f);
    allreduce(comm, buf.data(), n, ReduceOp::kSum, AllreduceAlgo::kRing);
  });
  const CommStats s = world.stats();
  // reduce-scatter: (p-1) block sends per rank + 1 fixup, allgather: (p-1).
  // Total volume ≈ 2 n (p-1) + n extra for the fixup rotation.
  const std::uint64_t lower = 2ull * n * (p - 1) * sizeof(float);
  const std::uint64_t upper = lower + (n + p) * sizeof(float) * 2;
  EXPECT_GE(s.bytes, lower);
  EXPECT_LE(s.bytes, upper);
}

// The channel-parallel engine runs its collectives on *subgroup*
// communicators obtained by splitting the world — including singleton and
// non-power-of-two groups (e.g. 3-way channel splits). Exercise every
// collective the channel path uses inside such groups, concurrently across
// groups.
class SubgroupCollectives : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(WorldSizes, SubgroupCollectives,
                         ::testing::Values(3, 5, 6, 7, 10));

TEST_P(SubgroupCollectives, ChannelGroupShapedCollectives) {
  const int p = GetParam();
  World world(p);
  world.run([p](Comm& comm) {
    // Group 0 is a singleton; the rest split into a group of ⌈(p-1)/2⌉ and a
    // group of ⌊(p-1)/2⌋ — non-power-of-two for most p.
    const int color = comm.rank() == 0 ? 0 : 1 + (comm.rank() - 1) % 2;
    Comm sub = comm.split(color, comm.rank());
    const int sp = sub.size();

    // Both allreduce variants.
    for (auto algo : {AllreduceAlgo::kRecursiveDoubling, AllreduceAlgo::kRing}) {
      std::vector<double> buf(37);
      for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = sub.rank() + double(i);
      allreduce(sub, buf.data(), buf.size(), ReduceOp::kSum, algo);
      const double rank_sum = sp * (sp - 1) / 2.0;
      for (std::size_t i = 0; i < buf.size(); ++i) {
        ASSERT_NEAR(buf[i], rank_sum + double(i) * sp, 1e-9);
      }
    }

    // allgatherv (uneven contributions).
    {
      std::vector<std::size_t> counts(sp), displs(sp);
      std::size_t total = 0;
      for (int r = 0; r < sp; ++r) {
        counts[r] = r + 1;
        displs[r] = total;
        total += counts[r];
      }
      std::vector<int> mine(sub.rank() + 1, sub.rank() * 100 + color);
      std::vector<int> all(total, -1);
      allgatherv(sub, mine.data(), mine.size(), all.data(), counts, displs);
      for (int r = 0; r < sp; ++r) {
        for (std::size_t i = 0; i < counts[r]; ++i) {
          ASSERT_EQ(all[displs[r] + i], r * 100 + color);
        }
      }
    }
  });
}

}  // namespace
}  // namespace distconv::comm
