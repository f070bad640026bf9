// Step-time attribution end to end: mesh-model training on a 2×2 spatial
// grid with metrics + tracing enabled must (a) decompose every rank's step
// wall clock into compute + exposed comm + completion tail that sum back to
// the wall clock, (b) join the measured counters against the §V cost model
// through obs::compare_to_model with non-zero measured terms for conv
// forward compute, halo exchange, and the gradient allreduce, and (c) dump
// per-rank chrome-trace files that parse as valid JSON. Blocked time is
// categorized by the op that blocked: only gradient completion counts as
// gradreduce.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "comm/collectives.hpp"
#include "comm/nonblocking.hpp"
#include "comm/world.hpp"
#include "core/model.hpp"
#include "core/trainer.hpp"
#include "models/models.hpp"
#include "obs/attribution.hpp"
#include "obs/compare.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "perf/machine.hpp"
#include "support/json.hpp"

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

const ModelComparison::Term* find_term(const ModelComparison& cmp,
                                       const std::string& name) {
  for (const auto& t : cmp.terms) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

TEST(ObsAttribution, StepTermsSumToWallAndJoinAgainstTheCostModel) {
  constexpr int kRanks = 4;
  constexpr int kSteps = 3;
  metrics::set_enabled(true);
  trace::set_enabled(true);
  metrics::reset();
  trace::reset();

  // The same deterministic spec/strategy the rank threads build, kept here
  // for the cost-model join after the run.
  const core::NetworkSpec spec = models::make_mesh_model_test(4, 32);
  const core::Strategy strategy =
      core::Strategy::uniform(spec.size(), ProcessGrid{1, 1, 2, 2});

  comm::World world(kRanks);
  world.run([&](comm::Comm& comm) {
    const core::NetworkSpec rank_spec = models::make_mesh_model_test(4, 32);
    core::Model model(rank_spec, comm,
                      core::Strategy::uniform(rank_spec.size(),
                                              ProcessGrid{1, 1, 2, 2}),
                      /*seed=*/7);
    core::Trainer trainer(model, core::TrainerOptions{});
    const Shape4 in_shape = model.rt(0).out_shape;
    const Shape4 out_shape = model.rt(model.output_layer()).out_shape;
    for (int s = 0; s < kSteps; ++s) {
      trainer.step_bce(make_input(in_shape, 100 + s),
                       make_targets(out_shape, 200 + s));
    }
  });

  const metrics::Snapshot snap = metrics::snapshot();
  metrics::set_enabled(false);

  // One step.count increment per rank per step.
  EXPECT_EQ(snap.counter_total("step.count"),
            static_cast<std::uint64_t>(kRanks) * kSteps);

  // The acceptance bound: per rank, compute + exposed + tail within 5% of
  // the measured step wall clock (the identity is exact up to clamping).
  for (int r = 0; r < kRanks; ++r) {
    const double wall = double(snap.counter_for(r, "step.wall.ns"));
    const double compute = double(snap.counter_for(r, "step.compute.ns"));
    const double exposed = double(snap.counter_for(r, "step.exposed.ns"));
    const double tail = double(snap.counter_for(r, "step.tail.ns"));
    ASSERT_GT(wall, 0.0) << "rank " << r;
    EXPECT_EQ(snap.counter_for(r, "step.count"),
              static_cast<std::uint64_t>(kSteps));
    EXPECT_NEAR(compute + exposed + tail, wall, 0.05 * wall)
        << "rank " << r << " attribution drifted: compute=" << compute
        << " exposed=" << exposed << " tail=" << tail << " wall=" << wall;
  }

  // Per-layer spans were collected for every rank.
  EXPECT_GT(snap.counter_total("layer.0.fwd.ns"), 0u);
  EXPECT_GT(snap.counter_total("layer.0.bwd.ns"), 0u);

  // The measured-vs-modelled join reports the §V terms with real
  // measurements behind them.
  const ModelComparison cmp =
      compare_to_model(snap, spec, strategy, perf::MachineModel::lassen(),
                       kRanks);
  EXPECT_EQ(cmp.steps, kSteps);
  for (const char* name :
       {"conv fwd compute", "conv bwd compute", "halo exchange",
        "gradient allreduce", "step wall"}) {
    const ModelComparison::Term* term = find_term(cmp, name);
    ASSERT_NE(term, nullptr) << name;
    EXPECT_GT(term->measured_seconds, 0.0) << name;
    EXPECT_GT(term->modelled_seconds, 0.0) << name;
    EXPECT_GT(term->ratio, 0.0) << name;
  }
  EXPECT_FALSE(cmp.str().empty());

  // The trace rings hold per-rank events; the dump must parse per rank.
  const std::string dir = ::testing::TempDir() + "/obs-attr-trace";
  trace::dump(dir);
  trace::set_enabled(false);
  trace::reset();
  for (int r = 0; r < kRanks; ++r) {
    const std::string path = dir + "/trace-rank" + std::to_string(r) + ".json";
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    const support::json::Value root = support::json::parse(ss.str());
    const support::json::Value& events =
        root.is_array() ? root : root.at("traceEvents");
    ASSERT_TRUE(events.is_array()) << path;
    bool saw_step = false;
    for (const auto& ev : events.array) {
      if (ev.at("ph").string == "X" && ev.at("name").string == "step") {
        saw_step = true;
        EXPECT_NE(ev.find("dur"), nullptr);
      }
    }
    EXPECT_TRUE(saw_step) << path << " has no step span";
  }
}

TEST(ObsAttribution, OnlyGradientCompletionWaitsCountAsGradReduce) {
  EXPECT_EQ(classify_wait("halo-exchange"), WaitCategory::kHalo);
  EXPECT_EQ(classify_wait("halo-refresh"), WaitCategory::kHalo);
  EXPECT_EQ(classify_wait("shuffle"), WaitCategory::kShuffle);
  EXPECT_EQ(classify_wait("alltoallv"), WaitCategory::kShuffle);
  EXPECT_EQ(classify_wait("gradreduce"), WaitCategory::kGradReduce);
  // Blocking allreduces carry batchnorm statistics and the loss; the
  // channel-group allgathers of x and dL/dy are not gradients either.
  for (const char* other :
       {"allreduce-rd", "allreduce-ring", "iallreduce-rd", "iallreduce-ring",
        "allgatherv", "iallgatherv", "broadcast", "serve-prefetch",
        "(unlabeled)"}) {
    EXPECT_EQ(classify_wait(other), WaitCategory::kOther) << other;
  }
  EXPECT_EQ(classify_wait(nullptr), WaitCategory::kOther);
}

TEST(ObsAttribution, BlockedTimeFollowsTheOpThatBlocked) {
  // Rank 1 arrives late to a blocking allreduce, then to a drained
  // iallreduce labeled "gradreduce": rank 0's first wait is other, its
  // second gradreduce.
  metrics::set_enabled(true);
  metrics::reset();
  const auto late = [](comm::Comm& comm) {
    if (comm.rank() == 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    }
  };
  std::uint64_t other_after_blocking = 0, grad_after_blocking = 0;
  comm::World world(2);
  world.run([&](comm::Comm& comm) {
    float x = 1.0f;
    late(comm);
    comm::allreduce(comm, &x, 1, comm::ReduceOp::kSum);
    comm::barrier(comm);
    if (comm.rank() == 0) {
      const metrics::Snapshot snap = metrics::snapshot();
      other_after_blocking = snap.counter_for(0, "comm.wait.other.ns");
      grad_after_blocking = snap.counter_for(0, "comm.wait.gradreduce.ns");
    }
    comm::barrier(comm);
    late(comm);
    auto op = std::make_unique<comm::NbAllreduceRd<float>>(
        comm, &x, 1, comm::ReduceOp::kSum);
    op->set_obs_label("gradreduce");
    comm::CollectiveEngine engine;
    engine.enqueue(std::move(op));
    engine.drain();
    EXPECT_EQ(x, 4.0f);
  });
  const metrics::Snapshot snap = metrics::snapshot();
  metrics::set_enabled(false);
  EXPECT_GE(other_after_blocking, 10'000'000u);
  EXPECT_EQ(grad_after_blocking, 0u);
  EXPECT_GE(snap.counter_for(0, "comm.wait.gradreduce.ns"), 10'000'000u);
}

}  // namespace
}  // namespace distconv::obs
