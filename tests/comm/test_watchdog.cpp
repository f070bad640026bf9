// Communication watchdog and world-wide failure propagation: a lost message
// or stalled rank converts into typed errors (CommTimeoutError on the rank
// whose wait expired, RankFailedError everywhere else) instead of a
// deadlock.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "comm/collectives.hpp"
#include "comm/comm.hpp"
#include "comm/mailbox.hpp"
#include "comm/world.hpp"
#include "core/layers.hpp"
#include "core/model.hpp"
#include "tests/support/env_check.hpp"

namespace distconv::comm {
namespace {

TEST(Watchdog, DisabledByDefault) {
  // Tier-1 behaviour is unchanged: without DC_COMM_TIMEOUT_MS the deadline
  // is off and ordinary communication completes as before.
  EXPECT_LE(comm_timeout_ms(), 0);
  World world(2);
  world.run([](Comm& comm) {
    int x = comm.rank();
    allreduce(comm, &x, 1, ReduceOp::kSum);
    EXPECT_EQ(x, 1);
  });
}

TEST(Watchdog, GuardRestoresPreviousDeadline) {
  const std::int64_t before = comm_timeout_ms();
  {
    CommTimeoutGuard guard(123);
    EXPECT_EQ(comm_timeout_ms(), 123);
    {
      CommTimeoutGuard inner(456);
      EXPECT_EQ(comm_timeout_ms(), 456);
    }
    EXPECT_EQ(comm_timeout_ms(), 123);
  }
  EXPECT_EQ(comm_timeout_ms(), before);
}

TEST(Watchdog, LostMessageTimesOutWithDiagnostics) {
  CommTimeoutGuard guard(150);
  World world(2);
  std::string message;
  std::int64_t reported_ms = 0;
  world.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      float buf = 0.0f;
      try {
        comm.recv(&buf, 1, /*src=*/1, /*tag=*/7);  // never sent
        FAIL() << "lost message must not complete";
      } catch (const CommTimeoutError& e) {
        message = e.what();
        reported_ms = e.timeout_ms();
      }
    }
    // Rank 1 sends nothing and returns; rank 0's wait must expire.
  });
  EXPECT_EQ(reported_ms, 150);
  // The error names what the rank was blocked on.
  EXPECT_NE(message.find("src=1"), std::string::npos) << message;
  EXPECT_NE(message.find("tag=7"), std::string::npos) << message;
}

TEST(Watchdog, EveryBlockedRankRaisesInAllreduce) {
  // Rank 3 never joins the collective: every participating rank's wait
  // expires independently, and each raises a typed, labeled timeout.
  CommTimeoutGuard guard(150);
  World world(4);
  std::array<std::string, 4> caught;
  world.run([&](Comm& comm) {
    if (comm.rank() == 3) return;  // the stalled rank
    float x = 1.0f;
    try {
      allreduce(comm, &x, 1, ReduceOp::kSum);
      FAIL() << "allreduce with a missing rank must not complete";
    } catch (const CommError& e) {
      caught[comm.rank()] = e.what();
    }
  });
  for (int r = 0; r < 3; ++r) {
    ASSERT_FALSE(caught[r].empty()) << "rank " << r << " did not raise";
    EXPECT_NE(caught[r].find("allreduce"), std::string::npos) << caught[r];
  }
}

TEST(Watchdog, AbortNamesTheFailingRank) {
  // A rank that dies outright (no timeout involved) wakes every blocked
  // rank with its identity and message.
  World world(4);
  std::array<int, 4> failed_rank{{-2, -2, -2, -2}};
  std::array<std::string, 4> what;
  EXPECT_THROW(
      world.run([&](Comm& comm) {
        if (comm.rank() == 2) throw Error("rank 2 exploded");
        try {
          barrier(comm);
          FAIL() << "barrier must abort";
        } catch (const RankFailedError& e) {
          failed_rank[comm.rank()] = e.rank();
          what[comm.rank()] = e.what();
          throw;
        }
      }),
      Error);
  for (int r : {0, 1, 3}) {
    EXPECT_EQ(failed_rank[r], 2) << "rank " << r;
    EXPECT_NE(what[r].find("rank 2 exploded"), std::string::npos) << what[r];
  }
}

TEST(Watchdog, TypedHierarchyRoutesOnCommError) {
  // Recovery drivers key on exactly CommError: both fault flavours are
  // CommErrors; checkpoint corruption and serve degradation are not.
  const CommTimeoutError timeout("t", 10);
  const RankFailedError failed("f", 3);
  EXPECT_NE(dynamic_cast<const CommError*>(&timeout), nullptr);
  EXPECT_NE(dynamic_cast<const CommError*>(&failed), nullptr);
  EXPECT_NE(dynamic_cast<const Error*>(&timeout), nullptr);
  const CheckpointCorruptError corrupt("c");
  const OverloadedError overloaded("o");
  const DeadlineExceededError deadline("d");
  EXPECT_EQ(dynamic_cast<const CommError*>(
                static_cast<const Error*>(&corrupt)),
            nullptr);
  EXPECT_EQ(dynamic_cast<const CommError*>(
                static_cast<const Error*>(&overloaded)),
            nullptr);
  EXPECT_EQ(dynamic_cast<const CommError*>(
                static_cast<const Error*>(&deadline)),
            nullptr);
}

// A stalled rank inside a real distributed forward (halo exchanges under a
// spatial grid, shuffles + channel collectives under a channel-parallel
// grid) must surface as a typed CommError on EVERY rank — the stalled one
// included, which finds its world aborted the moment it resumes.
void run_stalled_forward(const core::Strategy& strategy) {
  CommTimeoutGuard guard(200);
  World world(4);
  std::array<std::atomic<int>, 4> raised{};  // 1 = CommError seen
  try {
    world.run([&](Comm& comm) {
      try {
        core::NetworkBuilder nb;
        const int in = nb.input(Shape4{4, 4, 12, 12});
        int x = nb.conv("c1", in, 8, 3, 1);
        x = nb.relu("r1", x);
        nb.conv("head", x, 2, 3, 1);
        const core::NetworkSpec spec = nb.take();
        core::Model model(spec, comm, strategy, 11);
        Tensor<float> input(Shape4{4, 4, 12, 12});
        Rng rng(5);
        input.fill_uniform(rng);
        if (comm.rank() == 2) {
          // Stall well past every other rank's deadline.
          std::this_thread::sleep_for(std::chrono::milliseconds(600));
        }
        model.set_input(0, input);
        model.forward();
        // Under channel parallelism the stalled rank's channel group hangs
        // but the other group's forward is self-contained; the step's first
        // world-wide collective (here: the loss reduction stand-in) is where
        // those ranks must learn the world is dead.
        barrier(comm);
        FAIL() << "forward with a stalled rank must not complete";
      } catch (const CommError&) {
        raised[comm.rank()].store(1);
        throw;
      }
    });
    FAIL() << "world.run must rethrow the first failure";
  } catch (const CommError&) {
  }
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(raised[r].load(), 1) << "rank " << r << " did not raise";
  }
}

TEST(Watchdog, StalledRankSurfacesOnAllRanksSpatial) {
  run_stalled_forward(core::Strategy::uniform(4, ProcessGrid{1, 1, 2, 2}));
}

TEST(Watchdog, StalledRankSurfacesOnAllRanksChannel) {
  run_stalled_forward(core::Strategy::channel_parallel(4, 4, 2));
}

/// DC_COMM_TIMEOUT_MS is parsed strictly: garbage such as "5s" raises an
/// Error naming the variable instead of silently disabling the watchdog.
TEST(Watchdog, TimeoutEnvRejectsGarbage) {
  setenv("DC_COMM_TIMEOUT_MS", "250", 1);
  EXPECT_EQ(comm_timeout_ms_from_env(), 250);
  setenv("DC_COMM_TIMEOUT_MS", "", 1);
  EXPECT_EQ(comm_timeout_ms_from_env(), 0);
  expect_env_rejects("DC_COMM_TIMEOUT_MS", {"5s", "abc", "-1", "1.5"},
                     [] { comm_timeout_ms_from_env(); });
  EXPECT_EQ(comm_timeout_ms_from_env(), 0);
}

}  // namespace
}  // namespace distconv::comm
