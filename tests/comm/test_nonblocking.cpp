// Nonblocking collectives: results against serially computed expected
// values (integer-valued sums are exact in any order, max is order-free),
// multiple in-flight operations with out-of-order completion, tag isolation
// (between concurrent ops and against blocking traffic), zero-length
// buffers, the CollectiveEngine's FIFO drain, and the engine's progress
// contract: an op advances only in its owning rank's engine calls.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <memory>
#include <vector>

#include "comm/collectives.hpp"
#include "comm/nonblocking.hpp"
#include "comm/progress.hpp"
#include "core/layer.hpp"
#include "support/rng.hpp"
#include "tests/support/env_check.hpp"

namespace distconv::comm {
namespace {

std::vector<float> random_floats(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

/// Integer-valued floats in [-100, 100]: a sum over a few ranks is exact in
/// every association order, so the serial sum is the exact expected result.
std::vector<float> int_floats(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.next_below(201)) - 100.0f;
  return v;
}

/// Element-wise sum over ranks 0..p-1 of int_floats(n, seed_of(r)).
template <typename SeedFn>
std::vector<float> serial_sum(std::size_t n, int p, SeedFn seed_of) {
  std::vector<float> sum(n, 0.0f);
  for (int r = 0; r < p; ++r) {
    const std::vector<float> v = int_floats(n, seed_of(r));
    for (std::size_t i = 0; i < n; ++i) sum[i] += v[i];
  }
  return sum;
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

/// Every algorithm the kAuto dispatcher can pick — recursive doubling
/// (small n), ring (large n), and the ring → recursive doubling fallback
/// (n < p) — produces the exact sum through the engine.
TEST(Nonblocking, IallreduceMatchesSerialSum) {
  for (const int p : {2, 3, 4, 5, 8}) {
    for (const std::size_t n :
         {std::size_t{1}, std::size_t{3}, std::size_t{257}, std::size_t{8192}}) {
      const auto seed_of = [](int r) { return 17 * std::uint64_t(r + 1); };
      const std::vector<float> expect = serial_sum(n, p, seed_of);
      World world(p);
      world.run([&](Comm& comm) {
        std::vector<float> buf = int_floats(n, seed_of(comm.rank()));
        CollectiveEngine engine;
        engine.enqueue(make_iallreduce(comm, buf.data(), n, ReduceOp::kSum));
        engine.drain();
        EXPECT_TRUE(engine.idle());
        EXPECT_TRUE(bitwise_equal(buf, expect))
            << "p=" << p << " n=" << n << " rank=" << comm.rank();
      });
    }
  }
}

TEST(Nonblocking, ExplicitAlgorithmsMatchSerialMax) {
  const int p = 4;
  const std::size_t n = 4096;  // above the p=4 ring minimum either way
  std::vector<float> expect = random_floats(n, 3);
  for (int r = 1; r < p; ++r) {
    const std::vector<float> v = random_floats(n, 3 * std::uint64_t(r + 1));
    for (std::size_t i = 0; i < n; ++i) expect[i] = std::max(expect[i], v[i]);
  }
  World world(p);
  world.run([&](Comm& comm) {
    for (const auto algo :
         {AllreduceAlgo::kRecursiveDoubling, AllreduceAlgo::kRing}) {
      std::vector<float> buf =
          random_floats(n, 3 * static_cast<std::uint64_t>(comm.rank() + 1));
      CollectiveEngine engine;
      engine.enqueue(make_iallreduce(comm, buf.data(), n, ReduceOp::kMax, algo));
      engine.drain();
      EXPECT_TRUE(bitwise_equal(buf, expect));
    }
  });
}

TEST(Nonblocking, ZeroLengthBuffersCompleteImmediately) {
  World world(3);
  world.run([](Comm& comm) {
    CollectiveEngine engine;
    engine.enqueue(
        make_iallreduce<float>(comm, nullptr, 0, ReduceOp::kSum));
    EXPECT_TRUE(engine.idle());  // trivial op retires inside enqueue()
    engine.drain();
  });
}

TEST(Nonblocking, SingleRankCompletesImmediately) {
  World world(1);
  world.run([](Comm& comm) {
    std::vector<float> v{1.0f, 2.0f, 3.0f};
    const std::vector<float> expect = v;
    CollectiveEngine engine;
    engine.enqueue(make_iallreduce(comm, v.data(), v.size(), ReduceOp::kSum));
    EXPECT_TRUE(engine.idle());
    EXPECT_TRUE(bitwise_equal(v, expect));
  });
}

/// The nonblocking broadcast (the serving loop's double-buffered input
/// prefetch) delivers the root's bytes from every root, including
/// non-power-of-two worlds and rank counts where some vranks have no
/// children.
TEST(Nonblocking, IbroadcastDeliversRootPayload) {
  const std::size_t n = 517;
  const std::vector<float> payload = random_floats(n, 23);
  for (const int p : {1, 2, 3, 4, 5, 8}) {
    for (int root = 0; root < p; root += std::max(1, p - 1)) {
      World world(p);
      world.run([&](Comm& comm) {
        std::vector<float> buf =
            comm.rank() == root ? payload : std::vector<float>(n);
        CollectiveEngine engine;
        engine.enqueue(
            std::make_unique<NbBroadcast<float>>(comm, buf.data(), n, root));
        engine.drain();
        EXPECT_TRUE(engine.idle());
        EXPECT_TRUE(bitwise_equal(buf, payload))
            << "p=" << p << " root=" << root << " rank=" << comm.rank();
      });
    }
  }
}

TEST(Nonblocking, IbroadcastZeroLengthCompletesImmediately) {
  World world(3);
  world.run([](Comm& comm) {
    CollectiveEngine engine;
    engine.enqueue(
        std::make_unique<NbBroadcast<float>>(comm, nullptr, 0, /*root=*/1));
    engine.drain();
    EXPECT_TRUE(engine.idle());
  });
}

/// Two operations in flight at once on the same communicator, progressed in
/// a rank-dependent interleaving so completion order differs across ranks.
/// Tags are allocated in SPMD order at construction, so the concurrent
/// messages cannot cross-match — each op still reduces its own payload.
TEST(Nonblocking, InFlightOpsCompleteOutOfOrder) {
  const std::size_t n = 64;
  const std::vector<float> a_ref =
      serial_sum(n, 4, [](int r) { return 100 + std::uint64_t(r); });
  const std::vector<float> b_ref =
      serial_sum(n, 4, [](int r) { return 200 + std::uint64_t(r); });
  World world(4);
  world.run([&](Comm& comm) {
    std::vector<float> a =
        int_floats(n, 100 + static_cast<std::uint64_t>(comm.rank()));
    std::vector<float> b =
        int_floats(n, 200 + static_cast<std::uint64_t>(comm.rank()));

    // Both ops constructed (tags drawn) and started on every rank before
    // either is progressed — both are genuinely on the wire.
    auto op_a = make_iallreduce(comm, a.data(), n, ReduceOp::kSum);
    auto op_b = make_iallreduce(comm, b.data(), n, ReduceOp::kSum);
    op_a->start();
    op_b->start();

    // Even ranks poll (b, a), odd ranks poll (a, b): under contention the
    // finish order can differ per rank; both must still be exact.
    NbOp* first = comm.rank() % 2 == 0 ? op_b.get() : op_a.get();
    NbOp* second = comm.rank() % 2 == 0 ? op_a.get() : op_b.get();
    while (!first->done() || !second->done()) {
      first->progress();
      second->progress();
    }
    EXPECT_TRUE(bitwise_equal(a, a_ref));
    EXPECT_TRUE(bitwise_equal(b, b_ref));
  });
}

/// Blocking collectives may run on the same communicator while nonblocking
/// ops are in flight: internal tags are distinct, so neither steals the
/// other's messages.
TEST(Nonblocking, InFlightOpIsolatedFromBlockingTraffic) {
  const std::size_t n = 512;
  const std::vector<float> ref =
      serial_sum(n, 4, [](int r) { return 7 * std::uint64_t(r + 1); });
  World world(4);
  world.run([&](Comm& comm) {
    std::vector<float> v =
        int_floats(n, 7 * static_cast<std::uint64_t>(comm.rank() + 1));

    auto op = make_iallreduce(comm, v.data(), n, ReduceOp::kSum);
    op->start();

    // A blocking allreduce and a barrier complete while `op` is pending.
    double x = comm.rank();
    allreduce(comm, &x, 1, ReduceOp::kSum);
    const int p = comm.size();
    EXPECT_DOUBLE_EQ(x, p * (p - 1) / 2.0);
    barrier(comm);

    while (!op->progress()) op->wait_progress();
    EXPECT_TRUE(bitwise_equal(v, ref));
  });
}

TEST(Nonblocking, IallgathervGathersUnevenAndEmptyBlocks) {
  World world(4);
  world.run([](Comm& comm) {
    const int p = comm.size();
    // Rank r contributes r * 3 elements — rank 0 contributes none.
    std::vector<std::size_t> counts(p), displs(p);
    std::vector<float> expect;
    for (int r = 0; r < p; ++r) {
      counts[r] = static_cast<std::size_t>(r) * 3;
      displs[r] = expect.size();
      const std::vector<float> block =
          random_floats(counts[r], 31 + static_cast<std::uint64_t>(r));
      expect.insert(expect.end(), block.begin(), block.end());
    }
    const std::size_t mine = counts[comm.rank()];
    const std::vector<float> send =
        random_floats(mine, 31 + static_cast<std::uint64_t>(comm.rank()));
    std::vector<float> got(expect.size());
    CollectiveEngine engine;
    engine.enqueue(std::make_unique<NbAllgatherv<float>>(
        comm, send.data(), mine, got.data(), counts, displs));
    engine.drain();
    EXPECT_TRUE(bitwise_equal(got, expect));
  });
}

/// The engine keeps strict FIFO per rank: a burst of mixed-size, mixed-op
/// enqueues (small recursive-doubling, large ring, empty) drains to
/// the exact sums.
TEST(Nonblocking, EngineDrainsMixedBurstFifo) {
  const std::size_t sizes[] = {5, 6000, 17, 0, 1024};
  std::vector<std::vector<float>> refs;
  for (std::size_t k = 0; k < std::size(sizes); ++k) {
    refs.push_back(serial_sum(
        sizes[k], 3, [k](int r) { return (k + 1) * 1000 + std::uint64_t(r); }));
  }
  World world(3);
  world.run([&](Comm& comm) {
    std::vector<std::vector<float>> bufs;
    for (std::size_t k = 0; k < std::size(sizes); ++k) {
      bufs.push_back(int_floats(
          sizes[k], (k + 1) * 1000 + static_cast<std::uint64_t>(comm.rank())));
    }
    CollectiveEngine engine;
    for (auto& buf : bufs) {
      engine.enqueue(
          make_iallreduce(comm, buf.data(), buf.size(), ReduceOp::kSum));
    }
    EXPECT_GE(std::size(sizes), engine.pending_ops());
    engine.drain();
    EXPECT_TRUE(engine.idle());
    for (std::size_t k = 0; k < bufs.size(); ++k) {
      EXPECT_TRUE(bitwise_equal(bufs[k], refs[k])) << "op " << k;
    }
  });
}

/// Nothing advances an enqueued op but its owner: a multi-round ring
/// allreduce stays in flight on every rank while the owners sit in a barrier
/// (no rank can finish before the first enqueuer progresses again), and it
/// retires only through the owner's drain, bitwise equal to the blocking
/// allreduce of the same data.
TEST(Nonblocking, EngineOpRetiresOnlyThroughOwnerCalls) {
  const std::size_t n = 1 << 15;  // well above the ring threshold
  World world(4);
  world.run([n](Comm& comm) {
    std::vector<float> blocking =
        random_floats(n, 7 * static_cast<std::uint64_t>(comm.rank() + 1));
    std::vector<float> overlapped = blocking;
    allreduce(comm, blocking.data(), n, ReduceOp::kSum);

    CollectiveEngine engine;
    engine.enqueue(make_iallreduce(comm, overlapped.data(), n, ReduceOp::kSum));
    barrier(comm);
    EXPECT_FALSE(engine.idle());  // nobody progressed it
    EXPECT_EQ(engine.completed_ops(), 0u);
    engine.drain();
    EXPECT_TRUE(engine.idle());
    EXPECT_EQ(engine.completed_ops(), 1u);
    EXPECT_TRUE(bitwise_equal(blocking, overlapped));
  });
}

/// DC_COMM_PROGRESS is retired: a stale "thread" or "hooks" raises an Error
/// naming the variable (ModelOptions reads it), while unset or "off" passes.
TEST(Nonblocking, RemovedProgressModesFailLoudly) {
  expect_env_rejects("DC_COMM_PROGRESS", {"thread", "hooks", "1"},
                     [] { core::ModelOptions opts; });
  setenv("DC_COMM_PROGRESS", "off", 1);
  EXPECT_EQ(progress_mode_from_env(), ProgressMode::kOff);
  unsetenv("DC_COMM_PROGRESS");
  EXPECT_EQ(progress_mode_from_env(), ProgressMode::kOff);
}

/// Ops on split sub-communicators progress independently of the parent's
/// wire: contexts differ, so an op per subgroup plus one on the parent can
/// all be in flight.
TEST(Nonblocking, SubCommunicatorOpsRunConcurrently) {
  const std::size_t n = 128;
  const std::vector<float> world_ref =
      serial_sum(n, 4, [](int r) { return 400 + std::uint64_t(r); });
  World world(4);
  world.run([&](Comm& comm) {
    Comm half = comm.split(comm.rank() / 2, comm.rank());
    std::vector<float> on_world =
        int_floats(n, 400 + static_cast<std::uint64_t>(comm.rank()));
    std::vector<float> on_half =
        int_floats(n, 500 + static_cast<std::uint64_t>(comm.rank()));
    // Half h holds world ranks 2h and 2h + 1.
    const int h0 = 2 * (comm.rank() / 2);
    const std::vector<float> half_ref = serial_sum(
        n, 2, [h0](int r) { return 500 + std::uint64_t(h0 + r); });

    auto wop = make_iallreduce(comm, on_world.data(), n, ReduceOp::kSum);
    auto hop = make_iallreduce(half, on_half.data(), n, ReduceOp::kSum);
    wop->start();
    hop->start();
    while (!wop->done() || !hop->done()) {
      wop->progress();
      hop->progress();
    }
    EXPECT_TRUE(bitwise_equal(on_world, world_ref));
    EXPECT_TRUE(bitwise_equal(on_half, half_ref));
  });
}

}  // namespace
}  // namespace distconv::comm
