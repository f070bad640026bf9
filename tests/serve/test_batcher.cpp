// Dynamic batching policy unit tests: max-batch cut, max-delay flush,
// greedy dispatch, FIFO order, shutdown drain, and the env knobs.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <thread>

#include "serve/batcher.hpp"

namespace distconv::serve {
namespace {

Tensor<float> sample(float fill = 0.0f) {
  Tensor<float> t(Shape4{1, 2, 4, 4});
  t.fill(fill);
  return t;
}

TEST(Batcher, FullBatchDispatchesImmediately) {
  BatcherOptions opts;
  opts.max_batch = 3;
  opts.max_delay_us = 1000000;  // a full second: must not be waited out
  Batcher b(opts);
  for (int i = 0; i < 5; ++i) b.push(sample());
  const auto t0 = std::chrono::steady_clock::now();
  const auto batch = b.next_batch(/*limit=*/8);
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(batch.size(), 3u);
  EXPECT_LT(waited, 0.5);  // did not sit out the max delay
  EXPECT_EQ(b.pending(), 2u);
}

TEST(Batcher, ModelCapacityCapsBelowMaxBatch) {
  BatcherOptions opts;
  opts.max_batch = 8;
  opts.max_delay_us = 0;
  Batcher b(opts);
  for (int i = 0; i < 5; ++i) b.push(sample());
  EXPECT_EQ(b.next_batch(/*limit=*/2).size(), 2u);
}

TEST(Batcher, MaxDelayFlushesPartialBatch) {
  BatcherOptions opts;
  opts.max_batch = 8;
  opts.max_delay_us = 30000;  // 30 ms
  Batcher b(opts);
  b.push(sample());
  const auto t0 = std::chrono::steady_clock::now();
  const auto batch = b.next_batch(8);
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_GE(waited, 0.025);  // held for roughly the configured delay
}

TEST(Batcher, GreedyPolicyDispatchesWhatIsQueued) {
  BatcherOptions opts;
  opts.max_batch = 8;
  opts.max_delay_us = 0;
  Batcher b(opts);
  b.push(sample());
  b.push(sample());
  const auto t0 = std::chrono::steady_clock::now();
  const auto batch = b.next_batch(8);
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_LT(waited, 0.02);
}

TEST(Batcher, FifoOrderAndIds) {
  BatcherOptions opts;
  opts.max_batch = 4;
  opts.max_delay_us = 0;
  Batcher b(opts);
  for (int i = 0; i < 4; ++i) b.push(sample(float(i)));
  const auto batch = b.next_batch(4);
  ASSERT_EQ(batch.size(), 4u);
  // Ids are minted from a fleet-global counter (so request traces are
  // unique across every batcher in the process); within one queue they
  // are consecutive and FIFO.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i].id, batch[0].id + i);
    EXPECT_EQ(batch[i].input.data()[0], float(i));
  }
}

TEST(Batcher, NewArrivalFillsBatchBeforeDeadline) {
  BatcherOptions opts;
  opts.max_batch = 2;
  opts.max_delay_us = 500000;  // half a second
  Batcher b(opts);
  b.push(sample());
  std::thread late([&b] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    b.push(sample());
  });
  const auto t0 = std::chrono::steady_clock::now();
  const auto batch = b.next_batch(8);
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  late.join();
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_LT(waited, 0.4);  // woke on the second arrival, not the deadline
}

TEST(Batcher, CloseDrainsThenSignalsShutdown) {
  BatcherOptions opts;
  opts.max_batch = 2;
  opts.max_delay_us = 1000000;
  Batcher b(opts);
  for (int i = 0; i < 3; ++i) b.push(sample());
  b.close();
  EXPECT_EQ(b.next_batch(8).size(), 2u);
  EXPECT_EQ(b.next_batch(8).size(), 1u);
  EXPECT_TRUE(b.next_batch(8).empty());  // drained → shutdown signal
  EXPECT_THROW(b.push(sample()), Error);
}

TEST(Batcher, CloseWakesBlockedConsumer) {
  Batcher b(BatcherOptions{});
  std::thread closer([&b] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    b.close();
  });
  EXPECT_TRUE(b.next_batch(8).empty());
  closer.join();
}

TEST(Batcher, EnvKnobsParse) {
  setenv("DC_SERVE_MAX_BATCH", "17", 1);
  setenv("DC_SERVE_MAX_DELAY_US", "2500", 1);
  setenv("DC_SERVE_MAX_QUEUE", "99", 1);
  setenv("DC_SERVE_DEADLINE_US", "7000", 1);
  const BatcherOptions opts = batcher_options_from_env();
  EXPECT_EQ(opts.max_batch, 17);
  EXPECT_EQ(opts.max_delay_us, 2500);
  EXPECT_EQ(opts.max_queue, 99);
  EXPECT_EQ(opts.deadline_us, 7000);
  setenv("DC_SERVE_MAX_BATCH", "not-a-number", 1);
  setenv("DC_SERVE_MAX_QUEUE", "-4", 1);
  unsetenv("DC_SERVE_MAX_DELAY_US");
  unsetenv("DC_SERVE_DEADLINE_US");
  const BatcherOptions fallback = batcher_options_from_env();
  EXPECT_EQ(fallback.max_batch, BatcherOptions{}.max_batch);
  EXPECT_EQ(fallback.max_delay_us, BatcherOptions{}.max_delay_us);
  EXPECT_EQ(fallback.max_queue, BatcherOptions{}.max_queue);
  EXPECT_EQ(fallback.deadline_us, BatcherOptions{}.deadline_us);
  unsetenv("DC_SERVE_MAX_BATCH");
  unsetenv("DC_SERVE_MAX_QUEUE");
}

TEST(Batcher, BoolKnobsParseWordsAndRejectGarbage) {
  setenv("DC_SERVE_CONTINUOUS", "false", 1);
  setenv("DC_SERVE_DOUBLE_BUFFER", "off", 1);
  ServeOptions opts = serve_options_from_env();
  EXPECT_FALSE(opts.continuous);
  EXPECT_FALSE(opts.double_buffer);
  setenv("DC_SERVE_CONTINUOUS", "on", 1);
  setenv("DC_SERVE_DOUBLE_BUFFER", "true", 1);
  opts = serve_options_from_env();
  EXPECT_TRUE(opts.continuous);
  EXPECT_TRUE(opts.double_buffer);
  unsetenv("DC_SERVE_DOUBLE_BUFFER");
  setenv("DC_SERVE_CONTINUOUS", "yes-please", 1);
  EXPECT_THROW(serve_options_from_env(), Error);
  unsetenv("DC_SERVE_CONTINUOUS");
}

TEST(Batcher, AdmissionControlShedsWhenQueueFull) {
  BatcherOptions opts;
  opts.max_batch = 4;
  opts.max_delay_us = 0;
  opts.max_queue = 2;
  Batcher b(opts);
  b.push(sample());
  b.push(sample());
  EXPECT_THROW(b.push(sample()), OverloadedError);
  EXPECT_EQ(b.shed(), 1u);
  EXPECT_EQ(b.pending(), 2u);  // queued requests are untouched
  // Draining the queue re-opens admission.
  EXPECT_EQ(b.next_batch(8).size(), 2u);
  b.push(sample());
  EXPECT_EQ(b.shed(), 1u);
}

TEST(Batcher, ZeroMaxQueueIsUnbounded) {
  BatcherOptions opts;
  opts.max_queue = 0;
  opts.max_delay_us = 0;
  Batcher b(opts);
  for (int i = 0; i < 64; ++i) b.push(sample());
  EXPECT_EQ(b.pending(), 64u);
  EXPECT_EQ(b.shed(), 0u);
}

TEST(Batcher, ExpiredRequestsFailAtPopAndFreshOnesDispatch) {
  BatcherOptions opts;
  opts.max_batch = 8;
  opts.max_delay_us = 0;
  opts.deadline_us = 20000;  // 20 ms
  Batcher b(opts);
  auto stale1 = b.push(sample(1.0f));
  auto stale2 = b.push(sample(2.0f));
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  auto fresh = b.push(sample(3.0f));
  const auto batch = b.next_batch(8);
  ASSERT_EQ(batch.size(), 1u);  // only the fresh request dispatches
  EXPECT_EQ(batch[0].input.data()[0], 3.0f);
  EXPECT_EQ(b.expired(), 2u);
  EXPECT_THROW(stale1.get(), DeadlineExceededError);
  EXPECT_THROW(stale2.get(), DeadlineExceededError);
  EXPECT_TRUE(fresh.valid());  // still waiting on the server
}

TEST(Batcher, AllExpiredKeepsServerAliveUntilFreshArrival) {
  BatcherOptions opts;
  opts.max_batch = 8;
  opts.max_delay_us = 0;
  opts.deadline_us = 10000;  // 10 ms
  Batcher b(opts);
  auto stale = b.push(sample(1.0f));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  std::thread producer([&b] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    b.push(sample(9.0f));
  });
  // The consumer must not return an empty batch (that means shutdown): it
  // expires the stale prefix and keeps waiting for live work.
  const auto batch = b.next_batch(8);
  producer.join();
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].input.data()[0], 9.0f);
  EXPECT_EQ(b.expired(), 1u);
  EXPECT_THROW(stale.get(), DeadlineExceededError);
}

TEST(Batcher, SweepExpiredFailsStaleEntriesWithoutPopping) {
  BatcherOptions opts;
  opts.max_batch = 8;
  opts.max_delay_us = 0;
  opts.deadline_us = 10000;  // 10 ms
  Batcher b(opts);
  auto stale = b.push(sample(1.0f));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  // The router runs this sweep on every enqueue: expiry must not wait for a
  // pop on an idle replica whose loop is parked between batches.
  b.sweep_expired();
  EXPECT_EQ(b.expired(), 1u);
  EXPECT_EQ(b.pending(), 0u);
  EXPECT_THROW(stale.get(), DeadlineExceededError);
  // Live entries survive the sweep untouched.
  auto fresh = b.push(sample(2.0f));
  b.sweep_expired();
  EXPECT_EQ(b.pending(), 1u);
  EXPECT_TRUE(fresh.valid());
}

TEST(Batcher, TakeReadyIsGreedyAndNonBlocking) {
  BatcherOptions opts;
  opts.max_batch = 4;
  opts.max_delay_us = 1000000;  // a full second: take_ready must not wait it
  Batcher b(opts);
  EXPECT_TRUE(b.take_ready(8).empty());  // empty ≠ shutdown
  EXPECT_FALSE(b.closed());
  for (int i = 0; i < 3; ++i) b.push(sample(float(i)));
  const auto t0 = std::chrono::steady_clock::now();
  const auto got = b.take_ready(2);  // caller limit caps below max_batch
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_LT(waited, 0.2);
  EXPECT_EQ(got[0].input.data()[0], 0.0f);  // FIFO
  EXPECT_EQ(b.pending(), 1u);
  EXPECT_EQ(b.take_ready(8).size(), 1u);
}

TEST(Batcher, PushRecordsPassesAndRejectsNonPositive) {
  BatcherOptions opts;
  opts.max_batch = 4;
  opts.max_delay_us = 0;
  Batcher b(opts);
  b.push(sample(), /*passes=*/3);
  b.push(sample());  // defaults to 1
  const auto batch = b.next_batch(8);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].passes, 3);
  EXPECT_EQ(batch[1].passes, 1);
  EXPECT_THROW(b.push(sample(), 0), Error);
}

TEST(Batcher, CloseAfterExpiryStillSignalsShutdown) {
  BatcherOptions opts;
  opts.max_batch = 8;
  opts.max_delay_us = 0;
  opts.deadline_us = 5000;  // 5 ms
  Batcher b(opts);
  auto stale = b.push(sample());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  b.close();
  EXPECT_TRUE(b.next_batch(8).empty());  // expired + drained → shutdown
  EXPECT_EQ(b.expired(), 1u);
  EXPECT_THROW(stale.get(), DeadlineExceededError);
}

}  // namespace
}  // namespace distconv::serve
