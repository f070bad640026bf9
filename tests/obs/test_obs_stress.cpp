// Concurrency stress for the observability hot paths: World rank threads
// training through the model's engine, intra-rank parallel_for workers, and
// extra noise threads all emit counters, histograms, spans and instants at
// once — while another thread snapshots and renders the registry. Built for
// the ThreadSanitizer matrix (cmake --preset tsan); under a plain build it
// still verifies the merged totals.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/layers.hpp"
#include "core/model.hpp"
#include "obs/attribution.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/json.hpp"
#include "support/logging.hpp"
#include "tests/support/thread_guard.hpp"

namespace distconv::obs {
namespace {

Tensor<float> make_input(const Shape4& shape, std::uint64_t seed) {
  Tensor<float> t(shape);
  Rng rng(seed);
  t.fill_uniform(rng, -1.0f, 1.0f);
  return t;
}

Tensor<float> make_targets(const Shape4& shape, std::uint64_t seed) {
  Tensor<float> t(shape);
  Rng rng(seed ^ 0xb0beull);
  for (std::int64_t i = 0; i < t.size(); ++i) {
    t.data()[i] = rng.uniform() < 0.5 ? 0.0f : 1.0f;
  }
  return t;
}

core::NetworkSpec small_conv_net() {
  core::NetworkBuilder nb;
  const int in = nb.input(Shape4{4, 3, 16, 16});
  int x = nb.conv("c1", in, 6, 3, 1);
  x = nb.batchnorm("bn1", x, core::BatchNormMode::kGlobal);
  x = nb.relu("r1", x);
  x = nb.conv("c2", x, 8, 5, 2);
  x = nb.conv("head", x, 1, 1, 1, 0, /*bias=*/true);
  return nb.take();
}

TEST(ObsStress, ConcurrentEmittersSnapshottersAndTrainingAreRaceFree) {
  metrics::set_enabled(true);
  trace::set_enabled(true);
  metrics::reset();
  trace::reset();

  constexpr int kNoiseThreads = 4;
  constexpr std::uint64_t kPerThread = 2000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> noise;
  noise.reserve(kNoiseThreads + 1);
  for (int t = 0; t < kNoiseThreads; ++t) {
    noise.emplace_back([t] {
      // Two threads share one name, two intern fresh ones — exercising both
      // the interning lock and the per-thread shard fast path concurrently.
      const metrics::Counter c =
          metrics::counter("stress.counter." + std::to_string(t % 2));
      const metrics::Histogram h = metrics::histogram("stress.hist");
      const metrics::Gauge g = metrics::gauge("stress.gauge");
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        c.inc();
        h.record(i % 512);
        g.set(static_cast<std::int64_t>(i));
        trace::Span span("stress-span", "test");
        span.arg("i", static_cast<double>(i));
        if (i % 64 == 0) trace::emit_instant("stress-tick", "test");
      }
    });
  }
  // A reader races the writers: snapshot + render, repeatedly.
  noise.emplace_back([&stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      const metrics::Snapshot snap = metrics::snapshot();
      const std::string text = metrics::to_json(snap);
      EXPECT_FALSE(text.empty());
      std::this_thread::yield();
    }
  });

  {
    // Real pool workers keep rank-carrying and rank-less shards active at
    // the same time.
    parallel::ThreadGuard guard(4);
    comm::World world(4);
    world.run([&](comm::Comm& comm) {
      const core::NetworkSpec spec = small_conv_net();
      core::Model model(spec, comm,
                        core::Strategy::hybrid(spec.size(), 4, 2), /*seed=*/7);
      const Shape4 in_shape = model.rt(0).out_shape;
      const Shape4 out_shape = model.rt(model.output_layer()).out_shape;
      for (int s = 0; s < 2; ++s) {
        model.set_input(0, make_input(in_shape, 100 + s));
        model.forward();
        model.loss_bce(make_targets(out_shape, 200 + s));
        model.backward();
        model.sgd_step(kernels::SgdConfig{0.05f, 0.9f, 0.0f});
      }
    });
  }

  for (int t = 0; t < kNoiseThreads; ++t) noise[t].join();
  stop.store(true, std::memory_order_relaxed);
  noise.back().join();

  // Nothing was lost on the counter fast path, and the final render parses.
  const metrics::Snapshot snap = metrics::snapshot();
  EXPECT_EQ(snap.counter_total("stress.counter.0") +
                snap.counter_total("stress.counter.1"),
            kNoiseThreads * kPerThread);
  const auto hist_rank = snap.histograms.find(-1);
  ASSERT_NE(hist_rank, snap.histograms.end());
  EXPECT_EQ(hist_rank->second.at("stress.hist").count,
            kNoiseThreads * kPerThread);
  EXPECT_TRUE(
      support::json::parse(metrics::to_json(snap)).is_object());

  metrics::set_enabled(false);
  trace::set_enabled(false);
  metrics::reset();
  trace::reset();
}

}  // namespace
}  // namespace distconv::obs
