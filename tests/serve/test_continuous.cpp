// Continuous batching exactness: slot-refill dispatch must resolve every
// request to the same bitwise top-k as the strict barrier (and the
// single-rank oracle), with zero-padded refill slots provably inert, both
// with and without the double-buffered prefetch, and with variable-cost
// (multi-pass) requests freeing slots independently.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <sstream>
#include <thread>

#include "core/checkpoint.hpp"
#include "core/layers.hpp"
#include "core/model.hpp"
#include "serve/server.hpp"

namespace distconv::serve {
namespace {

using core::Model;
using core::NetworkBuilder;
using core::NetworkSpec;
using core::Strategy;

constexpr int kClasses = 6;
constexpr std::int64_t kBatch = 4;

NetworkSpec classifier_net() {
  NetworkBuilder nb;
  const int in = nb.input(Shape4{kBatch, 3, 16, 16});
  int x = nb.conv_bn_relu("b1", in, 8, 3);
  x = nb.pool_max("pool", x, 3, 2, 1);
  x = nb.conv_bn_relu("b2", x, 8, 3);
  x = nb.global_avg_pool("gap", x);
  x = nb.fully_connected("fc", x, kClasses, /*bias=*/true);
  return nb.take();
}

Tensor<float> make_sample(std::uint64_t seed) {
  Tensor<float> t(Shape4{1, 3, 16, 16});
  Rng rng(seed);
  t.fill_uniform(rng, -1.0f, 1.0f);
  return t;
}

Tensor<float> clone(const Tensor<float>& t) {
  Tensor<float> copy(t.shape());
  std::copy(t.data(), t.data() + t.size(), copy.data());
  return copy;
}

struct Oracle {
  std::string blob;
  std::vector<std::vector<Prediction>> topk;
};

Oracle run_oracle(const std::vector<Tensor<float>>& samples, int top_k) {
  Oracle oracle;
  comm::World world(1);
  world.run([&](comm::Comm& comm) {
    const NetworkSpec spec = classifier_net();
    Model model(spec, comm, Strategy::sample_parallel(spec.size(), 1), 7);
    const Shape4 in_shape = model.rt(0).out_shape;
    Rng rng(23);
    for (int step = 0; step < 3; ++step) {
      Tensor<float> x(in_shape);
      x.fill_uniform(rng, -1.0f, 1.0f);
      std::vector<int> labels;
      for (std::int64_t n = 0; n < in_shape.n; ++n) {
        labels.push_back(static_cast<int>(rng.uniform() * kClasses) % kClasses);
      }
      model.set_input(0, x);
      model.forward();
      model.loss_softmax(labels);
      model.backward();
      model.sgd_step(kernels::SgdConfig{0.05f, 0.9f, 0.0f});
    }
    std::ostringstream out;
    core::save_checkpoint(model, out);
    oracle.blob = out.str();
    for (const auto& s : samples) {
      Tensor<float> input(in_shape);
      input.zero();
      std::copy(s.data(), s.data() + s.size(), input.data());
      model.set_input(0, input);
      model.forward(core::Mode::kInference);
      const Tensor<float> logits = model.gather_output(model.output_layer());
      oracle.topk.push_back(topk_softmax(logits.data(), kClasses, top_k));
    }
  });
  return oracle;
}

/// Serve `samples` (with per-request pass counts) through a 4-rank server
/// under `opts` and return each request's result. Staggered submission
/// exercises partial batches and mid-flight refills.
std::vector<InferenceResult> serve_all(
    const ServeOptions& opts, const std::string& blob,
    const std::vector<Tensor<float>>& samples, const std::vector<int>& passes,
    ServerStats* stats_out = nullptr, int stagger_us = 300) {
  Server server(opts);
  std::vector<std::future<InferenceResult>> futures(samples.size());
  std::thread client([&] {
    for (std::size_t i = 0; i < samples.size(); ++i) {
      futures[i] = server.submit(clone(samples[i]),
                                 passes.empty() ? 1 : passes[i]);
      if (stagger_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(stagger_us));
      }
    }
    for (auto& f : futures) f.wait();
    server.shutdown();
  });
  comm::World world(4);
  world.run([&](comm::Comm& comm) {
    const NetworkSpec spec = classifier_net();
    Model model(spec, comm, Strategy::sample_parallel(spec.size(), 4), 21);
    std::istringstream in(blob);
    core::load_checkpoint(model, in);
    server.serve(model);
  });
  client.join();
  std::vector<InferenceResult> results;
  for (auto& f : futures) results.push_back(f.get());
  if (stats_out != nullptr) *stats_out = server.stats();
  return results;
}

void expect_bitwise(const std::vector<InferenceResult>& got,
                    const Oracle& oracle) {
  ASSERT_EQ(got.size(), oracle.topk.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].topk.size(), oracle.topk[i].size()) << "request " << i;
    for (std::size_t k = 0; k < got[i].topk.size(); ++k) {
      EXPECT_EQ(got[i].topk[k].cls, oracle.topk[i][k].cls)
          << "request " << i << " rank " << k;
      EXPECT_EQ(got[i].topk[k].prob, oracle.topk[i][k].prob)
          << "request " << i << " rank " << k;
    }
  }
}

TEST(Continuous, RefilledSlotsMatchOracleAndStrictBitwise) {
  constexpr int kRequests = 14;
  std::vector<Tensor<float>> samples;
  for (int i = 0; i < kRequests; ++i) samples.push_back(make_sample(600 + i));
  const Oracle oracle = run_oracle(samples, 3);

  ServeOptions strict;
  strict.batcher.max_batch = static_cast<int>(kBatch);
  strict.batcher.max_delay_us = 300;
  strict.top_k = 3;

  ServeOptions continuous = strict;
  continuous.continuous = true;

  ServerStats strict_stats, cont_stats;
  const auto strict_res =
      serve_all(strict, oracle.blob, samples, {}, &strict_stats);
  const auto cont_res =
      serve_all(continuous, oracle.blob, samples, {}, &cont_stats);

  // Both disciplines resolve to the oracle bitwise: refilled neighbour slots
  // and zero padding are inert under per-sample eval-mode operators.
  expect_bitwise(strict_res, oracle);
  expect_bitwise(cont_res, oracle);
  EXPECT_EQ(strict_stats.requests, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(cont_stats.requests, static_cast<std::uint64_t>(kRequests));
}

TEST(Continuous, MultiPassRequestsHoldSlotsWhileNeighboursTurnOver) {
  constexpr int kRequests = 8;
  std::vector<Tensor<float>> samples;
  std::vector<int> passes;
  for (int i = 0; i < kRequests; ++i) {
    samples.push_back(make_sample(1200 + i));
    passes.push_back(i % 3 == 0 ? 4 : 1);  // a few expensive requests
  }
  const Oracle oracle = run_oracle(samples, 3);

  ServeOptions opts;
  opts.continuous = true;
  opts.batcher.max_batch = static_cast<int>(kBatch);
  opts.batcher.max_delay_us = 200;
  opts.top_k = 3;

  ServerStats stats;
  const auto results = serve_all(opts, oracle.blob, samples, passes, &stats);
  // Repeating a forward on unchanged inputs recomputes identical logits, so
  // multi-pass requests are bitwise-identical to their single-pass oracle.
  expect_bitwise(results, oracle);
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(kRequests));
  // An expensive request burns one forward per pass; the iteration count
  // (batches) must at least cover the costliest request.
  EXPECT_GE(stats.batches, 4u);
}

TEST(Continuous, StrictMultiPassBarrierMatchesOracle) {
  constexpr int kRequests = 6;
  std::vector<Tensor<float>> samples;
  std::vector<int> passes;
  for (int i = 0; i < kRequests; ++i) {
    samples.push_back(make_sample(1500 + i));
    passes.push_back(i % 2 == 0 ? 2 : 1);
  }
  const Oracle oracle = run_oracle(samples, 3);
  ServeOptions opts;
  opts.batcher.max_batch = static_cast<int>(kBatch);
  opts.batcher.max_delay_us = 300;
  opts.top_k = 3;
  const auto results = serve_all(opts, oracle.blob, samples, passes);
  expect_bitwise(results, oracle);
}

TEST(Continuous, DoubleBufferOffMatchesPrefetchedPath) {
  constexpr int kRequests = 10;
  std::vector<Tensor<float>> samples;
  for (int i = 0; i < kRequests; ++i) samples.push_back(make_sample(1800 + i));
  const Oracle oracle = run_oracle(samples, 3);
  ServeOptions opts;
  opts.batcher.max_batch = static_cast<int>(kBatch);
  opts.batcher.max_delay_us = 200;
  opts.top_k = 3;
  opts.double_buffer = false;
  const auto plain = serve_all(opts, oracle.blob, samples, {});
  opts.double_buffer = true;
  const auto prefetched = serve_all(opts, oracle.blob, samples, {});
  expect_bitwise(plain, oracle);
  expect_bitwise(prefetched, oracle);
}

TEST(Continuous, EnvKnobsParse) {
  setenv("DC_SERVE_CONTINUOUS", "1", 1);
  setenv("DC_SERVE_DOUBLE_BUFFER", "0", 1);
  setenv("DC_SERVE_REPLICAS", "3", 1);
  setenv("DC_SERVE_SLO_P99_US", "25000", 1);
  const ServeOptions opts = serve_options_from_env();
  EXPECT_TRUE(opts.continuous);
  EXPECT_FALSE(opts.double_buffer);
  EXPECT_EQ(opts.replicas, 3);
  EXPECT_EQ(opts.slo_p99_us, 25000);
  unsetenv("DC_SERVE_CONTINUOUS");
  unsetenv("DC_SERVE_DOUBLE_BUFFER");
  unsetenv("DC_SERVE_REPLICAS");
  unsetenv("DC_SERVE_SLO_P99_US");
  const ServeOptions defaults = serve_options_from_env();
  EXPECT_FALSE(defaults.continuous);
  EXPECT_TRUE(defaults.double_buffer);
  EXPECT_EQ(defaults.replicas, 1);
  EXPECT_EQ(defaults.slo_p99_us, 0);
}

}  // namespace
}  // namespace distconv::serve
