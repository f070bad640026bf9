// Kill-a-rank auto-recovery: a deterministically injected mid-training kill
// aborts the world on every rank, run_with_recovery resets and re-enters,
// the trainer restores the newest mutually-valid snapshot and replays the
// lost steps — and the recovered run's final weights are BITWISE identical
// to an unfaulted run, across sample/spatial/channel strategies.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "comm/faults.hpp"
#include "comm/world.hpp"
#include "core/layers.hpp"
#include "core/recovery.hpp"
#include "core/snapshots.hpp"
#include "core/trainer.hpp"

namespace distconv::core {
namespace {

constexpr int kWorld = 4;
constexpr int kSteps = 6;
constexpr std::uint64_t kModelSeed = 17;

NetworkSpec recovery_net() {
  // Channel counts divisible by the channel-parallel ways; 3×3 convs give
  // the spatial grids real halo exchanges.
  NetworkBuilder nb;
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

Tensor<float> targets_for_step(std::int64_t step, const Shape4& shape) {
  Tensor<float> t(shape);
  Rng rng(900 + static_cast<std::uint64_t>(step));
  for (std::int64_t i = 0; i < t.size(); ++i) {
    t.data()[i] = rng.uniform() < 0.5 ? 0.0f : 1.0f;
  }
  return t;
}

std::vector<Tensor<float>> collect_params(Model& model) {
  std::vector<Tensor<float>> out;
  for (int i = 0; i < model.num_layers(); ++i) {
    for (const auto& p : model.rt(i).params) out.push_back(p);
  }
  return out;
}

/// One full training session: construct, restore from the newest snapshot if
/// any, train to kSteps with periodic checkpointing, and (rank 0) report the
/// final parameters. Re-entrant: exactly what the recovery driver replays.
void train_session(comm::Comm& comm, const Strategy& strategy,
                   const std::string& dir,
                   std::vector<Tensor<float>>* final_params) {
  const NetworkSpec spec = recovery_net();
  Model model(spec, comm, strategy, kModelSeed);
  Trainer trainer(model, TrainerOptions{{0.05f, 0.9f, 0.0f}, 1});
  SnapshotOptions sopts;
  sopts.dir = dir;
  sopts.every = 2;
  sopts.keep = 2;
  SnapshotManager snaps(model, sopts);
  trainer.attach_snapshots(&snaps);
  const std::int64_t restored = snaps.restore_latest();
  if (restored >= 0) trainer.set_steps_done(restored + 1);
  const Shape4 target_shape = model.rt(model.output_layer()).out_shape;
  while (trainer.steps_done() < kSteps) {
    const std::int64_t s = trainer.steps_done();
    trainer.step_bce(input_for_step(s),
                     targets_for_step(s, target_shape));
  }
  auto params = collect_params(model);
  if (comm.rank() == 0) *final_params = std::move(params);
}

std::vector<Tensor<float>> run_unfaulted(const Strategy& strategy,
                                         const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::vector<Tensor<float>> params;
  comm::World world(kWorld);
  world.run([&](comm::Comm& comm) {
    train_session(comm, strategy, dir, &params);
  });
  std::filesystem::remove_all(dir);
  return params;
}

std::vector<Tensor<float>> run_faulted(const Strategy& strategy,
                                       const std::string& dir,
                                       comm::faults::FaultPlan plan,
                                       int* attempts) {
  std::filesystem::remove_all(dir);
  comm::faults::install_fault_plan(std::move(plan));
  std::vector<Tensor<float>> params;
  comm::World world(kWorld);
  const RecoveryReport report = run_with_recovery(
      world,
      [&](comm::Comm& comm) {
        train_session(comm, strategy, dir, &params);
      },
      RecoveryOptions{3});
  comm::faults::clear_fault_plan();
  if (attempts != nullptr) *attempts = report.attempts;
  std::filesystem::remove_all(dir);
  return params;
}

void expect_bitwise_equal(const std::vector<Tensor<float>>& a,
                          const std::vector<Tensor<float>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size()) << "param " << i;
    for (std::int64_t j = 0; j < a[i].size(); ++j) {
      ASSERT_EQ(a[i].data()[j], b[i].data()[j])
          << "param " << i << " elem " << j;
    }
  }
}

struct NamedStrategy {
  const char* name;
  Strategy strategy;
};

std::vector<NamedStrategy> strategies() {
  const int layers = recovery_net().size();
  return {
      {"sample", Strategy::sample_parallel(layers, kWorld)},
      {"spatial", Strategy::uniform(layers, ProcessGrid{1, 1, 2, 2})},
      {"channel", Strategy::channel_parallel(layers, kWorld, 2)},
  };
}

TEST(Recovery, KilledRankRecoversBitwiseAcrossStrategies) {
  for (const NamedStrategy& s : strategies()) {
    SCOPED_TRACE(s.name);
    const std::string base =
        std::string("/tmp/distconv_recovery_") + s.name;
    const auto reference = run_unfaulted(s.strategy, base + "_ref");
    int attempts = 0;
    const auto recovered = run_faulted(
        s.strategy, base + "_fault",
        comm::faults::FaultPlan::kill_at_step(/*rank=*/1, /*step=*/3),
        &attempts);
    EXPECT_EQ(attempts, 2);  // one fault, one successful replay
    expect_bitwise_equal(recovered, reference);
  }
}

TEST(Recovery, SeededRandomKillSweepRecoversBitwise) {
  // DC_FAULT_SEEDS widens the sweep in the scheduled CI lane; the default
  // keeps the PR/tier-1 cost at one extra run.
  std::vector<std::uint64_t> seeds{5};
  if (const char* env = std::getenv("DC_FAULT_SEEDS")) {
    seeds.clear();
    std::string text(env);
    std::size_t pos = 0;
    while (pos <= text.size()) {
      const std::size_t end = std::min(text.find(',', pos), text.size());
      const std::string tok = text.substr(pos, end - pos);
      pos = end + 1;
      if (!tok.empty()) seeds.push_back(std::strtoull(tok.c_str(), nullptr, 10));
    }
  }
  const int layers = recovery_net().size();
  const Strategy strategy = Strategy::sample_parallel(layers, kWorld);
  const auto reference =
      run_unfaulted(strategy, "/tmp/distconv_recovery_sweep_ref");
  for (const std::uint64_t seed : seeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto plan = comm::faults::FaultPlan::random_kill(
        seed, kWorld, /*max_step=*/kSteps);
    int attempts = 0;
    const auto recovered =
        run_faulted(strategy, "/tmp/distconv_recovery_sweep", plan, &attempts);
    EXPECT_EQ(attempts, 2);
    expect_bitwise_equal(recovered, reference);
  }
}

TEST(Recovery, NonCommErrorsPropagateImmediately) {
  comm::World world(2);
  int calls = 0;
  EXPECT_THROW(run_with_recovery(world,
                                 [&](comm::Comm& comm) {
                                   if (comm.rank() == 0) {
                                     ++calls;
                                     throw Error("logic bug");
                                   }
                                   comm::barrier(comm);
                                 },
                                 RecoveryOptions{5}),
               Error);
  EXPECT_EQ(calls, 1);  // no retry for non-restartable failures
}

TEST(Recovery, AttemptsExhaustedRethrows) {
  comm::World world(2);
  int calls = 0;
  EXPECT_THROW(
      run_with_recovery(world,
                        [&](comm::Comm& comm) {
                          if (comm.rank() == 0) {
                            ++calls;
                            throw RankFailedError("persistent fault", 0);
                          }
                          comm::barrier(comm);
                        },
                        RecoveryOptions{3}),
      CommError);
  EXPECT_EQ(calls, 3);  // every allowed attempt was consumed
}

}  // namespace
}  // namespace distconv::core
