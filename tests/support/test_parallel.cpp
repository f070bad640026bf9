// Unit tests for the intra-rank parallel runtime: coverage, chunking,
// nesting, exception propagation, and composition with World's rank
// threads (also the ThreadSanitizer target for the pool).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "comm/collectives.hpp"
#include "comm/world.hpp"
#include "support/parallel.hpp"
#include "tests/support/env_check.hpp"
#include "tests/support/thread_guard.hpp"

namespace distconv::parallel {
namespace {

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadGuard guard(8);
  const std::int64_t n = 10007;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(0, n, 1, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (std::int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, NonZeroBeginAndEmptyRange) {
  ThreadGuard guard(4);
  std::atomic<std::int64_t> sum{0};
  parallel_for(100, 200, 1, [&](std::int64_t b, std::int64_t e) {
    std::int64_t local = 0;
    for (std::int64_t i = b; i < e; ++i) local += i;
    sum.fetch_add(local);
  });
  EXPECT_EQ(sum.load(), (100 + 199) * 100 / 2);
  bool ran = false;
  parallel_for(5, 5, 1, [&](std::int64_t, std::int64_t) { ran = true; });
  parallel_for(5, 3, 1, [&](std::int64_t, std::int64_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelFor, RespectsGrainAndBudget) {
  ThreadGuard guard(4);
  std::atomic<int> chunks{0};
  parallel_for(0, 1000, 1, [&](std::int64_t, std::int64_t) { chunks.fetch_add(1); });
  EXPECT_LE(chunks.load(), 4);  // at most num_threads() chunks
  chunks = 0;
  parallel_for(0, 100, 64, [&](std::int64_t b, std::int64_t e) {
    EXPECT_TRUE(e - b >= 64 || e == 100);
    chunks.fetch_add(1);
  });
  EXPECT_LE(chunks.load(), 2);  // grain 64 over 100 iterations
}

TEST(ParallelFor, GrainLargerThanRangeRunsInline) {
  ThreadGuard guard(8);
  int calls = 0;  // non-atomic on purpose: must run on this thread only
  std::thread::id caller = std::this_thread::get_id();
  parallel_for(0, 10, 100, [&](std::int64_t b, std::int64_t e) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(b, 0);
    EXPECT_EQ(e, 10);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, NestedCallsComplete) {
  ThreadGuard guard(4);
  const std::int64_t n = 64, m = 128;
  std::vector<std::atomic<int>> hits(n * m);
  parallel_for(0, n, 1, [&](std::int64_t ob, std::int64_t oe) {
    for (std::int64_t i = ob; i < oe; ++i) {
      parallel_for(0, m, 1, [&, i](std::int64_t b, std::int64_t e) {
        for (std::int64_t j = b; j < e; ++j) hits[i * m + j].fetch_add(1);
      });
    }
  });
  for (auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(ParallelFor, PropagatesException) {
  ThreadGuard guard(4);
  EXPECT_THROW(
      parallel_for(0, 100, 1,
                   [&](std::int64_t b, std::int64_t) {
                     if (b >= 0) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
  // The pool must still be usable afterwards.
  std::atomic<int> ok{0};
  parallel_for(0, 16, 1, [&](std::int64_t b, std::int64_t e) {
    ok.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(ok.load(), 16);
}

TEST(ParallelFor, NumThreadsPriority) {
  set_num_threads(3);
  EXPECT_EQ(num_threads(), 3);
  set_num_threads(0);
  EXPECT_GE(num_threads(), 1);
  set_rank_threads(1 << 20);  // absurd rank count still yields >= 1
  EXPECT_GE(num_threads(), 1);
  set_rank_threads(1);
}

/// DC_NUM_THREADS is parsed strictly: "8x" is not 8 and "abc" is not
/// automatic sizing — both raise an Error naming the variable.
TEST(ParallelFor, NumThreadsEnvRejectsGarbage) {
  setenv("DC_NUM_THREADS", "8", 1);
  EXPECT_EQ(num_threads_from_env(), 8);
  setenv("DC_NUM_THREADS", "0", 1);
  EXPECT_EQ(num_threads_from_env(), 0);  // automatic sizing
  setenv("DC_NUM_THREADS", "", 1);
  EXPECT_EQ(num_threads_from_env(), 0);
  expect_env_rejects("DC_NUM_THREADS", {"8x", "abc", "-2", "4294967296"},
                     [] { num_threads_from_env(); });
  EXPECT_EQ(num_threads_from_env(), 0);
}

TEST(ParallelFor, ComposesWithConcurrentWorldRanks) {
  // Every rank thread drives the shared pool concurrently while also
  // exchanging messages — the interaction TSan guards.
  ThreadGuard guard(4);
  const int P = 4;
  comm::World world(P);
  for (int iter = 0; iter < 3; ++iter) {
    world.run([&](comm::Comm& comm) {
      const std::int64_t n = 4096;
      std::vector<double> vals(n);
      parallel_for(0, n, 64, [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i) vals[i] = double(i % 97) + comm.rank();
      });
      double local = std::accumulate(vals.begin(), vals.end(), 0.0);
      comm::allreduce(comm, &local, 1, comm::ReduceOp::kSum);
      double expect = 0.0;
      for (std::int64_t i = 0; i < n; ++i) expect += double(i % 97);
      expect = expect * P + n * (0 + 1 + 2 + 3);
      EXPECT_DOUBLE_EQ(local, expect);
    });
  }
}

TEST(ParallelFor, ChunkBoundariesDeterministicPerBudget) {
  // Same budget => same decomposition (static chunking), run to run.
  ThreadGuard guard(8);
  auto collect = [&] {
    std::vector<std::pair<std::int64_t, std::int64_t>> chunks;
    std::mutex m;
    parallel_for(0, 1000, 7, [&](std::int64_t b, std::int64_t e) {
      std::lock_guard<std::mutex> lock(m);
      chunks.emplace_back(b, e);
    });
    std::sort(chunks.begin(), chunks.end());
    return chunks;
  };
  const auto a = collect();
  const auto b = collect();
  EXPECT_EQ(a, b);
}

TEST(ParallelFor2d, VisitsEveryPairExactlyOnce) {
  ThreadGuard guard(4);
  const std::int64_t n0 = 13, n1 = 7;
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n0 * n1));
  for (auto& h : hits) h.store(0);
  parallel_for_2d(n0, n1, 1, [&](std::int64_t i, std::int64_t j) {
    ASSERT_GE(i, 0);
    ASSERT_LT(i, n0);
    ASSERT_GE(j, 0);
    ASSERT_LT(j, n1);
    hits[static_cast<std::size_t>(i * n1 + j)].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor2d, EmptyDimensionsRunNothing) {
  int calls = 0;
  parallel_for_2d(0, 5, 1, [&](std::int64_t, std::int64_t) { ++calls; });
  parallel_for_2d(5, 0, 1, [&](std::int64_t, std::int64_t) { ++calls; });
  parallel_for_2d(-1, 5, 1, [&](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor2d, PlaneSumsIndependentOfBudget) {
  // The flattened-plane idiom's determinism contract: per-(i, j) results are
  // identical for any thread budget when each pair owns its output.
  const std::int64_t n0 = 6, n1 = 9;
  auto run = [&](int threads) {
    ThreadGuard guard(threads);
    std::vector<double> out(static_cast<std::size_t>(n0 * n1), 0.0);
    parallel_for_2d(n0, n1, 2, [&](std::int64_t i, std::int64_t j) {
      double acc = 0.0;
      for (int k = 0; k < 100; ++k) acc += 1e-3 * double(k) * (i + 2 * j + 1);
      out[static_cast<std::size_t>(i * n1 + j)] = acc;
    });
    return out;
  };
  const auto serial = run(1);
  for (int threads : {2, 3, 8}) {
    const auto parallel_result = run(threads);
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i], parallel_result[i]) << "threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace distconv::parallel
