// Progress engine: background drivers (dedicated thread, parallel_for chunk
// hooks) must retire in-flight collective rounds without the owning rank
// calling progress, errors observed in the background must surface on the
// owner, and a multi-round allreduce overlapped with an artificially slow
// kernel must complete before the layer boundary with bitwise-identical
// results — the TSan stress contract of DC_COMM_PROGRESS.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "comm/collectives.hpp"
#include "comm/progress.hpp"
#include "core/layers.hpp"
#include "core/model.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "tests/support/thread_guard.hpp"

namespace distconv::comm {
namespace {

std::vector<float> random_floats(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

/// Spin (without progressing) until the engine goes idle; true on success.
/// Only a background driver can retire the ops during the wait.
bool wait_idle_without_progress(const ProgressEngine& engine,
                                std::chrono::seconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!engine.idle()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

TEST(ProgressEngine, ModeParsing) {
  EXPECT_STREQ(to_string(ProgressMode::kOff), "off");
  EXPECT_STREQ(to_string(ProgressMode::kThread), "thread");
  EXPECT_STREQ(to_string(ProgressMode::kHooks), "hooks");
}

/// thread mode: a multi-round ring allreduce is driven to completion by the
/// dedicated progress thread alone — the rank threads only watch idle() —
/// and the result is bitwise identical to the blocking call. Every rank
/// constructs its op first (drawing the tag in SPMD order); ranks 1..p-1
/// enqueue before a barrier and rank 0 after it, so the enqueue-time
/// progress() of ranks 1..p-1 cannot retire their ops: those need rank 0's
/// contribution, which arrives only while their owners sit in the barrier
/// or the idle wait.
TEST(ProgressEngine, ThreadModeRetiresOpsWithoutOwnerProgress) {
  const int p = 4;
  const std::size_t n = 1 << 15;  // well above the ring threshold: p+1 rounds
  World world(p);
  world.run([n](Comm& comm) {
    std::vector<float> blocking =
        random_floats(n, 7 * static_cast<std::uint64_t>(comm.rank() + 1));
    std::vector<float> overlapped = blocking;
    allreduce(comm, blocking.data(), n, ReduceOp::kSum);

    ProgressEngine engine(ProgressMode::kThread);
    auto op = make_iallreduce(comm, overlapped.data(), n, ReduceOp::kSum);
    if (comm.rank() != 0) engine.enqueue(std::move(op));
    barrier(comm);
    if (comm.rank() == 0) engine.enqueue(std::move(op));
    EXPECT_TRUE(wait_idle_without_progress(engine, std::chrono::seconds(20)))
        << "progress thread did not retire the op";
    if (comm.rank() != 0) {
      EXPECT_GE(engine.background_completions(), 1u);
    }
    EXPECT_EQ(0, std::memcmp(blocking.data(), overlapped.data(),
                             n * sizeof(float)));
    engine.drain();  // no-op; proves the owner-side API stays usable
  });
}

/// hooks mode: the same contract, but the rounds are advanced from
/// parallel_for chunk boundaries while the rank runs a dummy kernel.
TEST(ProgressEngine, HooksModeRetiresOpsFromChunkBoundaries) {
  const int p = 4;
  const std::size_t n = 1 << 15;
  parallel::ThreadGuard guard(4);  // multi-chunk loops so the hook fires
  World world(p);
  world.run([n](Comm& comm) {
    std::vector<float> blocking =
        random_floats(n, 11 * static_cast<std::uint64_t>(comm.rank() + 1));
    std::vector<float> overlapped = blocking;
    allreduce(comm, blocking.data(), n, ReduceOp::kSum);

    ProgressEngine engine(ProgressMode::kHooks);
    engine.enqueue(make_iallreduce(comm, overlapped.data(), n, ReduceOp::kSum));
    // Run chunked compute until the hook-driven sweeps retire the op. Each
    // iteration is a fresh parallel_for; its chunk boundaries fire the hook.
    std::atomic<std::int64_t> sink{0};
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (!engine.idle() && std::chrono::steady_clock::now() < deadline) {
      parallel::parallel_for(0, 64, 1, [&](std::int64_t b, std::int64_t e) {
        std::int64_t s = 0;
        for (std::int64_t i = b; i < e; ++i) s += i;
        sink.fetch_add(s, std::memory_order_relaxed);
      });
    }
    EXPECT_TRUE(engine.idle()) << "chunk hooks did not retire the op";
    EXPECT_EQ(0, std::memcmp(blocking.data(), overlapped.data(),
                             n * sizeof(float)));
    engine.drain();
  });
}

/// off mode: no background driver touches the engine; the op completes only
/// when the owner drains — the pre-engine behaviour.
TEST(ProgressEngine, OffModeLeavesProgressToOwner) {
  World world(2);
  world.run([](Comm& comm) {
    std::vector<float> v(1 << 15, comm.rank() + 1.0f);
    ProgressEngine engine(ProgressMode::kOff);
    engine.enqueue(make_iallreduce(comm, v.data(), v.size(), ReduceOp::kSum));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(engine.idle());  // nobody progressed it
    EXPECT_EQ(engine.background_completions(), 0u);
    engine.drain();
    EXPECT_TRUE(engine.idle());
    EXPECT_FLOAT_EQ(v[0], 3.0f);
  });
}

core::NetworkSpec stress_net(const Shape4& in_shape) {
  core::NetworkBuilder nb;
  const int in = nb.input(in_shape);
  // 32×32×3×3 weights (36 KB) force the ring allreduce: a genuinely
  // multi-round gradient completion for the progress driver to hide.
  int x = nb.conv_bn_relu("c1", in, 32, 3, 1);
  x = nb.conv_bn_relu("c2", x, 32, 3, 1);
  x = nb.conv("head", x, 1, 1, 1, 0, /*bias=*/true);
  return nb.take();
}

/// The satellite stress contract: an artificially slow backprop kernel
/// (sleep injected via the test hook) overlaps multi-round gradient
/// allreduces. At the final layer boundary the engine must go idle without
/// the main thread draining — every round completed behind the "kernel" —
/// and the gradients must be bitwise identical to the blocking sweep's.
/// Runs in every CI sanitizer cell; under TSan this hammers the
/// rank-thread / progress-thread / pool interplay.
TEST(ProgressEngine, SlowKernelOverlapCompletesAtLayerBoundary) {
  const Shape4 in_shape{4, 2, 16, 16};
  const core::NetworkSpec spec = stress_net(in_shape);
  const int ranks = 4;
  // Force multi-chunk loops so hooks-mode has chunk boundaries to fire from
  // whatever DC_NUM_THREADS the CI cell pinned.
  parallel::ThreadGuard guard(4);
  // "Slow kernel": a chunked busy-sleep, so in hooks mode the progress hook
  // keeps firing from its chunk boundaries while it runs.
  const auto slow_kernel = [] {
    parallel::parallel_for(0, 8, 1, [](std::int64_t, std::int64_t) {
      std::this_thread::sleep_for(std::chrono::microseconds(250));
    });
  };
  for (const auto mode : {ProgressMode::kThread, ProgressMode::kHooks}) {
    SCOPED_TRACE(to_string(mode));
    std::vector<bool> drained_at_boundary;
    World world(ranks);
    world.run([&](Comm& comm) {
      const auto strategy = core::Strategy::hybrid(spec.size(), ranks, 4);
      Tensor<float> input(in_shape);
      Rng rng(13);
      input.fill_uniform(rng);

      core::ModelOptions blocking_opts;
      blocking_opts.overlap_allreduce = false;
      blocking_opts.comm_progress = ProgressMode::kOff;
      core::Model blocking(spec, comm, strategy, /*seed=*/3, blocking_opts);
      Tensor<float> targets(blocking.rt(blocking.output_layer()).out_shape);
      Rng trng(14);
      targets.fill_uniform(trng, 0.0f, 1.0f);

      core::Model* overlapped = nullptr;  // bound after construction
      bool boundary_idle = false;
      core::ModelOptions overlap_opts;
      overlap_opts.overlap_allreduce = true;
      overlap_opts.comm_progress = mode;
      overlap_opts.backward_layer_hook = [&](int layer) {
        slow_kernel();  // inject artificial kernel time at every boundary
        if (layer == 0) {
          // Final layer boundary: every enqueued round must retire while
          // this thread only runs "kernels" — it never drains the engine.
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(30);
          while (!overlapped->comm_engine().idle() &&
                 std::chrono::steady_clock::now() < deadline) {
            slow_kernel();
          }
          boundary_idle = overlapped->comm_engine().idle();
        }
      };
      core::Model model(spec, comm, strategy, /*seed=*/3, overlap_opts);
      overlapped = &model;

      for (core::Model* m : {&blocking, &model}) {
        m->set_input(0, input);
        m->forward();
        m->loss_bce(targets);
        m->backward();
      }
      for (int i = 0; i < blocking.num_layers(); ++i) {
        const auto& bg = blocking.rt(i).grads;
        const auto& og = model.rt(i).grads;
        ASSERT_EQ(bg.size(), og.size());
        for (std::size_t k = 0; k < bg.size(); ++k) {
          EXPECT_EQ(0, std::memcmp(bg[k].data(), og[k].data(),
                                   static_cast<std::size_t>(bg[k].size()) *
                                       sizeof(float)))
              << "layer " << i << " grad " << k;
        }
      }
      if (comm.rank() == 0) drained_at_boundary.push_back(boundary_idle);
    });
    ASSERT_EQ(drained_at_boundary.size(), 1u);
    EXPECT_TRUE(drained_at_boundary[0])
        << "rounds did not complete before the layer boundary";
  }
}

/// A background-observed abort must resurface on the owning rank instead of
/// being swallowed by the driver.
TEST(ProgressEngine, BackgroundErrorSurfacesOnOwner) {
  World world(2);
  EXPECT_THROW(
      world.run([](Comm& comm) {
        ProgressEngine engine(ProgressMode::kThread);
        if (comm.rank() == 0) {
          std::vector<float> v(1 << 15, 1.0f);
          engine.enqueue(
              make_iallreduce(comm, v.data(), v.size(), ReduceOp::kSum));
          engine.drain();  // partner never participates: aborts instead
        } else {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          throw std::runtime_error("rank 1 failed");
        }
      }),
      std::exception);
}

}  // namespace
}  // namespace distconv::comm
