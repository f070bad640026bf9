// Streaming telemetry export: the background flusher must rotate valid,
// independently parseable trace segments (so a killed process still leaves
// everything flushed before the kill on disk), ring wraparound must be
// counted in obs.trace.dropped, and — the observability prime directive —
// streaming instrumentation may not change a single bit of the training
// computation.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "comm/faults.hpp"
#include "comm/world.hpp"
#include "core/layers.hpp"
#include "core/model.hpp"
#include "core/trainer.hpp"
#include "obs/metrics.hpp"
#include "obs/stream.hpp"
#include "obs/trace.hpp"
#include "support/json.hpp"

namespace distconv::obs {
namespace {

namespace fs = std::filesystem;
using support::json::Value;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Every test flips process-global collection switches; restore the
/// uninstrumented default state no matter how the test exits.
struct ObsCleanup {
  ~ObsCleanup() {
    stream::stop();
    stream::configure(stream::Options{});  // period 0: streaming off
    trace::set_enabled(false);
    metrics::set_enabled(false);
    trace::set_capacity(16384);
    trace::reset();
    metrics::reset();
  }
};

/// Parse one segment file and return its traceEvents array size (the 'M'
/// process_name metadata record is always present, so >= 1).
std::size_t parse_segment(const std::string& path) {
  const Value root = support::json::parse(read_file(path));
  const Value& events = root.at("traceEvents");
  EXPECT_TRUE(events.is_array()) << path;
  EXPECT_GE(events.array.size(), 1u) << path;
  EXPECT_EQ(events.array[0].at("ph").string, "M") << path;
  return events.array.size();
}

std::vector<std::string> segment_files(const std::string& dir) {
  std::vector<std::string> out;
  if (!fs::exists(dir)) return out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("trace-seg", 0) == 0 &&
        name.size() > 5 && name.substr(name.size() - 5) == ".json") {
      out.push_back(entry.path().string());
    }
  }
  return out;
}

TEST(ObsStream, FlushRotatesSegmentsAndDrainsTheRings) {
  ObsCleanup cleanup;
  const std::string dir = "/tmp/distconv_obs_stream_flush";
  fs::remove_all(dir);
  trace::set_enabled(true);
  metrics::set_enabled(true);
  trace::reset();
  metrics::reset();

  stream::Options opts;
  opts.period_ms = 1000;  // enabled, but we drive flushes synchronously
  opts.trace_dir = dir;
  opts.metrics_path = dir + "/metrics.json";
  stream::configure(opts);

  {
    trace::Span s("stream test span", "test");
    s.arg("x", 1.0);
  }
  trace::emit_instant("stream test instant", "test");
  metrics::inc_named("stream.test.counter");

  // First flush: both events land in segment 00000 and the rings drain.
  EXPECT_EQ(stream::flush_now(), 2u);
  auto files = segment_files(dir);
  ASSERT_EQ(files.size(), 1u);
  EXPECT_NE(files[0].find("trace-seg00000-"), std::string::npos);
  EXPECT_EQ(parse_segment(files[0]), 3u);  // metadata + span + instant

  // Nothing new recorded => nothing drained, no new segment.
  EXPECT_EQ(stream::flush_now(), 0u);
  EXPECT_EQ(segment_files(dir).size(), 1u);

  // New events rotate into the next sequence number, not the old file.
  trace::emit_instant("stream second instant", "test");
  EXPECT_EQ(stream::flush_now(), 1u);
  files = segment_files(dir);
  ASSERT_EQ(files.size(), 2u);
  bool saw_second = false;
  for (const std::string& f : files) {
    parse_segment(f);
    saw_second = saw_second || f.find("trace-seg00001-") != std::string::npos;
  }
  EXPECT_TRUE(saw_second);

  // The periodic metrics snapshot is valid JSON and carries our counter.
  const Value metrics_root =
      support::json::parse(read_file(dir + "/metrics.json"));
  const Value& process = metrics_root.at("process").at("-1");
  EXPECT_EQ(process.at("counters").at("stream.test.counter").number, 1.0);
  fs::remove_all(dir);
}

TEST(ObsStream, KeepSegmentsPrunesOldFlushes) {
  ObsCleanup cleanup;
  const std::string dir = "/tmp/distconv_obs_stream_prune";
  fs::remove_all(dir);
  trace::set_enabled(true);
  trace::reset();
  metrics::reset();

  stream::Options opts;
  opts.period_ms = 1000;
  opts.trace_dir = dir;
  opts.keep_segments = 2;
  stream::configure(opts);

  for (int i = 0; i < 5; ++i) {
    trace::emit_instant("prune instant", "test");
    ASSERT_EQ(stream::flush_now(), 1u) << "flush " << i;
  }
  // 5 flushes, keep 2: only the two newest segment files survive.
  const auto files = segment_files(dir);
  ASSERT_EQ(files.size(), 2u);
  for (const std::string& f : files) {
    // Sequence numbers 00000-00002 were pruned; the survivors are newest.
    EXPECT_TRUE(f.find("trace-seg00003-") != std::string::npos ||
                f.find("trace-seg00004-") != std::string::npos)
        << f;
    parse_segment(f);
  }
  fs::remove_all(dir);
}

core::NetworkSpec stream_net() {
  core::NetworkBuilder nb;
  const int in = nb.input(Shape4{4, 4, 12, 12});
  int x = nb.conv("c1", in, 8, 3, 1);
  x = nb.relu("r1", x);
  nb.conv("head", x, 2, 3, 1);
  return nb.take();
}

Tensor<float> input_for_step(std::int64_t step) {
  Tensor<float> t(Shape4{4, 4, 12, 12});
  Rng rng(100 + static_cast<std::uint64_t>(step));
  t.fill_uniform(rng, -1.0f, 1.0f);
  return t;
}

Tensor<float> targets_for_step(std::int64_t step,
                                     const Shape4& shape) {
  Tensor<float> t(shape);
  Rng rng(900 + static_cast<std::uint64_t>(step));
  for (std::int64_t i = 0; i < t.size(); ++i) {
    t.data()[i] = rng.uniform() < 0.5 ? 0.0f : 1.0f;
  }
  return t;
}

TEST(ObsStream, KilledMultiRankRunLeavesParseableSegments) {
  ObsCleanup cleanup;
  const std::string dir = "/tmp/distconv_obs_stream_kill";
  fs::remove_all(dir);
  trace::set_enabled(true);
  metrics::set_enabled(true);
  trace::reset();
  metrics::reset();

  stream::Options opts;
  opts.period_ms = 2;  // many flushes inside a ~100 ms training run
  opts.trace_dir = dir;
  opts.metrics_path = dir + "/metrics.json";
  stream::configure(opts);

  // Seeded mid-run kill (same generator the CI fault sweep uses): max_step
  // below the step count guarantees the kill fires during training.
  comm::faults::install_fault_plan(
      comm::faults::FaultPlan::random_kill(/*seed=*/11, /*world_size=*/4,
                                           /*max_step=*/4));
  comm::World world(4);
  EXPECT_THROW(
      world.run([&](comm::Comm& comm) {
        const core::NetworkSpec spec = stream_net();
        core::Model model(spec, comm,
                          core::Strategy::sample_parallel(spec.size(), 4),
                          /*seed=*/17);
        core::Trainer trainer(model,
                              core::TrainerOptions{{0.05f, 0.9f, 0.0f}, 1});
        const Shape4 target_shape =
            model.rt(model.output_layer()).out_shape;
        for (std::int64_t s = 0; s < 6; ++s) {
          trainer.step_bce(input_for_step(s), targets_for_step(s, target_shape));
        }
      }),
      RankFailedError);
  comm::faults::clear_fault_plan();
  stream::stop();

  // Everything the dying run streamed out must be independently valid:
  // every segment parses, and the run produced real events (the final
  // World::run flush closes out whatever the kill left in the rings).
  const auto files = segment_files(dir);
  ASSERT_GE(files.size(), 1u);
  std::size_t total_events = 0;
  for (const std::string& f : files) total_events += parse_segment(f);
  EXPECT_GT(total_events, files.size());  // more than just metadata records
  const Value metrics_root =
      support::json::parse(read_file(dir + "/metrics.json"));
  EXPECT_TRUE(metrics_root.find("ranks") != nullptr);
  fs::remove_all(dir);
}

TEST(ObsStream, RingWraparoundIsCountedAsDropped) {
  ObsCleanup cleanup;
  trace::set_enabled(true);
  metrics::set_enabled(true);
  trace::reset();
  metrics::reset();

  // set_capacity only affects rings created afterwards: emit from a fresh
  // thread so its ring really is tiny.
  trace::set_capacity(8);
  std::thread emitter([] {
    for (int i = 0; i < 50; ++i) trace::emit_instant("wrap instant", "test");
  });
  emitter.join();

  EXPECT_EQ(trace::dropped_total(), 42u);  // 50 pushed - 8 retained
  EXPECT_EQ(metrics::snapshot().counter_total("obs.trace.dropped"), 42u);

  // reset() zeroes the drop accounting along with the rings.
  trace::reset();
  EXPECT_EQ(trace::dropped_total(), 0u);
}

// --- bitwise invisibility under streaming -------------------------------

struct RunResult {
  Tensor<float> output;
  double loss = 0.0;
  std::vector<Tensor<float>> params;
};

Tensor<float> make_input(const Shape4& shape, std::uint64_t seed) {
  Tensor<float> t(shape);
  Rng rng(seed);
  t.fill_uniform(rng, -1.0f, 1.0f);
  return t;
}

Tensor<float> make_targets(const Shape4& shape,
                                 std::uint64_t seed) {
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
  x = nb.relu("r2", x);
  nb.conv("head", x, 1, 1, 1, 0, /*bias=*/true);
  return nb.take();
}

/// One forward/backward/SGD step; with `streaming` the full online pipeline
/// runs underneath it (trace + metrics on, 1 ms flusher draining the rings
/// mid-step into rotated segments).
RunResult run_once(int ranks,
                   const std::function<core::Strategy(int, int)>& make_strategy,
                   bool streaming, const std::string& dir) {
  if (streaming) {
    metrics::set_enabled(true);
    trace::set_enabled(true);
    stream::Options opts;
    opts.period_ms = 1;
    opts.trace_dir = dir;
    opts.metrics_path = dir + "/metrics.json";
    opts.keep_segments = 4;  // exercise pruning under load too
    stream::configure(opts);
  }
  RunResult result;
  comm::World world(ranks);  // init_from_env starts the configured flusher
  world.run([&](comm::Comm& comm) {
    const core::NetworkSpec spec = small_conv_net();
    core::Model model(spec, comm, make_strategy(spec.size(), ranks),
                      /*seed=*/7);
    const Shape4 in_shape = model.rt(0).out_shape;
    const Shape4 out_shape = model.rt(model.output_layer()).out_shape;
    model.set_input(0, make_input(in_shape, 99));
    model.forward();
    const double loss = model.loss_bce(make_targets(out_shape, 55));
    model.backward();
    model.sgd_step(kernels::SgdConfig{0.05f, 0.9f, 1e-4f});
    Tensor<float> out = model.gather_output(model.output_layer());
    if (comm.rank() == 0) {
      result.output = std::move(out);
      result.loss = loss;
      for (int i = 0; i < model.num_layers(); ++i) {
        for (const auto& p : model.rt(i).params) result.params.push_back(p);
      }
    }
  });
  stream::stop();
  stream::configure(stream::Options{});
  metrics::set_enabled(false);
  trace::set_enabled(false);
  metrics::reset();
  trace::reset();
  return result;
}

void expect_bitwise(const RunResult& got, const RunResult& ref) {
  EXPECT_EQ(got.loss, ref.loss);
  ASSERT_EQ(got.output.shape(), ref.output.shape());
  for (std::int64_t i = 0; i < got.output.size(); ++i) {
    ASSERT_EQ(got.output.data()[i], ref.output.data()[i])
        << "output diverges at flat index " << i;
  }
  ASSERT_EQ(got.params.size(), ref.params.size());
  for (std::size_t p = 0; p < got.params.size(); ++p) {
    ASSERT_EQ(got.params[p].size(), ref.params[p].size());
    for (std::int64_t i = 0; i < got.params[p].size(); ++i) {
      ASSERT_EQ(got.params[p].data()[i], ref.params[p].data()[i])
          << "param " << p << " diverges at flat index " << i;
    }
  }
}

TEST(ObsStream, StreamingIsBitwiseInvisibleAcrossStrategies) {
  ObsCleanup cleanup;
  const std::string dir = "/tmp/distconv_obs_stream_exact";
  struct StrategyCase {
    const char* name;
    std::function<core::Strategy(int, int)> make;
  };
  const std::vector<StrategyCase> strategies = {
      {"sample4",
       [](int l, int p) { return core::Strategy::sample_parallel(l, p); }},
      {"spatial_2x2",
       [](int l, int) {
         return core::Strategy::uniform(l, ProcessGrid{1, 1, 2, 2});
       }},
      {"channel4",
       [](int l, int) {
         return core::Strategy::uniform(l, ProcessGrid{1, 4, 1, 1});
       }},
  };
  for (const auto& sc : strategies) {
    SCOPED_TRACE(sc.name);
    fs::remove_all(dir);
    const RunResult ref = run_once(4, sc.make, /*streaming=*/false, dir);
    const RunResult got = run_once(4, sc.make, /*streaming=*/true, dir);
    expect_bitwise(got, ref);
    // The streamed run really streamed: rotated segments are on disk.
    EXPECT_GE(segment_files(dir).size(), 1u);
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace distconv::obs
