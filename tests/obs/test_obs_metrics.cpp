// Metrics registry semantics: interned handles, per-rank shard attribution,
// histogram statistics, reset, and the JSON rendering the DC_METRICS dump
// writes (round-tripped through the in-tree JSON parser).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "comm/collectives.hpp"
#include "obs/metrics.hpp"
#include "support/json.hpp"
#include "support/logging.hpp"

namespace distconv::obs::metrics {
namespace {

/// Every test starts from a clean, enabled registry and leaves it disabled
/// (collection state is process-global).
struct RegistryFixture : ::testing::Test {
  void SetUp() override {
    set_enabled(true);
    reset();
  }
  void TearDown() override {
    log::set_thread_rank(-1);
    set_enabled(false);
    reset();
  }
};

using ObsMetrics = RegistryFixture;

TEST_F(ObsMetrics, CountersAttributeToTheCallingThreadsRank) {
  const Counter c = counter("test.rank_attribution");
  c.add(5);  // this thread carries no rank -> the -1 "process" bucket
  log::set_thread_rank(2);
  c.add(7);
  c.inc();
  log::set_thread_rank(-1);

  const Snapshot snap = snapshot();
  EXPECT_EQ(snap.counter_for(-1, "test.rank_attribution"), 5u);
  EXPECT_EQ(snap.counter_for(2, "test.rank_attribution"), 8u);
  EXPECT_EQ(snap.counter_for(0, "test.rank_attribution"), 0u);
  EXPECT_EQ(snap.counter_total("test.rank_attribution"), 13u);
}

TEST_F(ObsMetrics, InterningIsIdempotentAcrossHandles) {
  const Counter a = counter("test.same_name");
  const Counter b = counter("test.same_name");
  a.add(3);
  b.add(4);
  EXPECT_EQ(snapshot().counter_total("test.same_name"), 7u);
}

TEST_F(ObsMetrics, DisabledRegistryRecordsNothing) {
  const Counter c = counter("test.disabled");
  set_enabled(false);
  c.add(100);
  set_enabled(true);
  EXPECT_EQ(snapshot().counter_total("test.disabled"), 0u);
}

TEST_F(ObsMetrics, GaugesKeepLastValueAndSupportDeltas) {
  const Gauge g = gauge("test.gauge");
  g.set(10);
  g.add(-3);
  const Snapshot snap = snapshot();
  const auto it = snap.gauges.find("test.gauge");
  ASSERT_NE(it, snap.gauges.end());
  EXPECT_EQ(it->second, 7);
}

TEST_F(ObsMetrics, HistogramTracksCountSumMinMaxAndPercentiles) {
  const Histogram h = histogram("test.hist");
  for (const std::uint64_t v : {8u, 16u, 32u, 64u, 1024u}) h.record(v);
  const Snapshot snap = snapshot();
  const auto per_rank = snap.histograms.find(-1);
  ASSERT_NE(per_rank, snap.histograms.end());
  const auto it = per_rank->second.find("test.hist");
  ASSERT_NE(it, per_rank->second.end());
  EXPECT_EQ(it->second.count, 5u);
  EXPECT_EQ(it->second.sum, 8u + 16u + 32u + 64u + 1024u);
  EXPECT_EQ(it->second.min, 8u);
  EXPECT_EQ(it->second.max, 1024u);
  // Bucket-resolution approximations: p50 lands near the median value's
  // bucket, p99 near the max bucket, and they are ordered.
  EXPECT_GT(it->second.p50, 0.0);
  EXPECT_LE(it->second.p50, it->second.p99);
  EXPECT_GE(it->second.p99, 64.0);
}

TEST_F(ObsMetrics, ResetZeroesValuesButKeepsInternedNames) {
  const Counter c = counter("test.reset");
  c.add(9);
  reset();
  EXPECT_EQ(snapshot().counter_total("test.reset"), 0u);
  c.add(2);  // the handle stays valid across reset
  EXPECT_EQ(snapshot().counter_total("test.reset"), 2u);
}

TEST_F(ObsMetrics, ToJsonRoundTripsThroughTheParser) {
  counter("test.json.counter").add(42);
  histogram("test.json.hist").record(100);
  gauge("test.json.gauge").set(-5);
  log::set_thread_rank(1);
  counter("test.json.counter").add(8);
  log::set_thread_rank(-1);

  const std::string text = to_json(snapshot());
  const support::json::Value root = support::json::parse(text);
  ASSERT_TRUE(root.is_object());
  const support::json::Value* ranks = root.find("ranks");
  ASSERT_NE(ranks, nullptr);
  ASSERT_TRUE(ranks->is_object());
  const support::json::Value* rank1 = ranks->find("1");
  ASSERT_NE(rank1, nullptr);
  EXPECT_EQ(rank1->at("counters").at("test.json.counter").number, 8.0);
  // Rank-less shards render under "process", keyed by the -1 pseudo-rank.
  const support::json::Value* process = root.find("process");
  ASSERT_NE(process, nullptr);
  EXPECT_EQ(process->at("-1").at("counters").at("test.json.counter").number,
            42.0);
  EXPECT_EQ(root.at("gauges").at("test.json.gauge").number, -5.0);
}

TEST_F(ObsMetrics, DumpWritesAParsableFile) {
  counter("test.dump.counter").add(1);
  const std::string path = ::testing::TempDir() + "/obs-metrics-test.json";
  dump(path);
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  const support::json::Value root = support::json::parse(ss.str());
  ASSERT_TRUE(root.is_object());
  EXPECT_NE(root.find("ranks"), nullptr);
  EXPECT_NE(root.find("gauges"), nullptr);
}

TEST_F(ObsMetrics, NamedSlowPathHelpersAccumulate) {
  add_named("test.named", 3);
  inc_named("test.named");
  EXPECT_EQ(snapshot().counter_total("test.named"), 4u);
}

/// A blocking allreduce runs the resumable op inline: it counts once, under
/// its comm.coll.* instruments, and never as an engine op (comm.op.*).
TEST_F(ObsMetrics, BlockingAllreduceCountsOnlyAsACollective) {
  const int p = 4;
  comm::World world(p);
  world.run([](comm::Comm& comm) {
    double x = comm.rank();
    comm::allreduce(comm, &x, 1, comm::ReduceOp::kSum);
    EXPECT_DOUBLE_EQ(x, 6.0);
  });
  const Snapshot snap = snapshot();
  EXPECT_EQ(snap.counter_total("comm.coll.allreduce-rd.count"),
            static_cast<std::uint64_t>(p));
  for (const auto& [rank, counters] : snap.counters) {
    for (const auto& [name, value] : counters) {
      const bool engine_counter = name.rfind("comm.op.", 0) == 0;
      EXPECT_FALSE(engine_counter && value != 0)
          << name << " = " << value << " on rank " << rank;
    }
  }
}

}  // namespace
}  // namespace distconv::obs::metrics
