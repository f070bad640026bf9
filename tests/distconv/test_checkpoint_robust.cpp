// Crash-safe checkpoint format v3: CRC-sealed sections over the v2 layout,
// validation before mutation (every truncation and bit flip is a typed
// CheckpointCorruptError), legacy v1/v2 loads, atomic file replacement and
// the snapshot manager's corrupt-skipping recovery scan.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/checkpoint.hpp"
#include "core/layers.hpp"
#include "core/model.hpp"
#include "core/snapshots.hpp"
#include "support/atomic_file.hpp"
#include "tests/support/env_check.hpp"

namespace distconv::core {
namespace {

NetworkSpec tiny_bn_net() {
  NetworkBuilder nb;
  const int in = nb.input(Shape4{2, 2, 8, 8});
  int x = nb.conv_bn_relu("b1", in, 4, 3);
  nb.conv("head", x, 1, 1, 1, 0, /*bias=*/true);
  return nb.take();
}

void train_one_step(Model& model, std::uint64_t seed) {
  Tensor<float> input(model.rt(0).out_shape);
  Rng rng(seed);
  input.fill_uniform(rng, -1.0f, 1.0f);
  model.set_input(0, input);
  model.forward();
  Tensor<float> targets(model.rt(model.output_layer()).out_shape);
  Rng trng(seed ^ 0xfeedull);
  for (std::int64_t i = 0; i < targets.size(); ++i) {
    targets.data()[i] = trng.uniform() < 0.5 ? 0.0f : 1.0f;
  }
  model.loss_bce(targets);
  model.backward();
  model.sgd_step(kernels::SgdConfig{0.05f, 0.9f, 0.0f});
}

/// A trained single-rank model's serialized v3 checkpoint (momentum and BN
/// buffers populated, so all three CRC sections are non-trivial).
std::string trained_blob() {
  std::string blob;
  comm::World world(1);
  world.run([&](comm::Comm& comm) {
    const NetworkSpec spec = tiny_bn_net();
    Model model(spec, comm, Strategy::sample_parallel(spec.size(), 1), 7);
    train_one_step(model, 11);
    train_one_step(model, 12);
    blob = serialize_checkpoint(model);
  });
  return blob;
}

TEST(CheckpointV3, StreamCarriesVersionAndTrailer) {
  const std::string blob = trained_blob();
  ASSERT_GE(blob.size(), 28u);
  EXPECT_EQ(blob.compare(0, 4, "DCKP"), 0);
  std::uint32_t version = 0;
  std::memcpy(&version, blob.data() + 4, sizeof(version));
  EXPECT_EQ(version, 3u);
  EXPECT_EQ(blob.compare(blob.size() - 16, 4, "DCRC"), 0);
  validate_checkpoint_blob(blob);  // the pristine stream is valid
}

TEST(CheckpointV3, RoundTripRestoresBitwise) {
  comm::World world(1);
  world.run([&](comm::Comm& comm) {
    const NetworkSpec spec = tiny_bn_net();
    Model trained(spec, comm, Strategy::sample_parallel(spec.size(), 1), 7);
    train_one_step(trained, 21);
    std::ostringstream out;
    save_checkpoint(trained, out);

    Model restored(spec, comm, Strategy::sample_parallel(spec.size(), 1), 99);
    std::istringstream in(out.str());
    load_checkpoint(restored, in);
    // Re-serialization is byte-identical: params, buffers and momentum all
    // round-tripped exactly.
    EXPECT_EQ(serialize_checkpoint(restored), out.str());
  });
}

TEST(CheckpointV3, EverySingleByteTruncationIsCorrupt) {
  const std::string blob = trained_blob();
  for (std::size_t len = 0; len < blob.size(); ++len) {
    EXPECT_THROW(validate_checkpoint_blob(blob.substr(0, len)),
                 CheckpointCorruptError)
        << "truncation to " << len << " of " << blob.size()
        << " bytes slipped through";
  }
}

TEST(CheckpointV3, EveryDeterministicBitFlipIsCorrupt) {
  std::string blob = trained_blob();
  for (std::size_t pos = 0; pos < blob.size(); ++pos) {
    const char flip = static_cast<char>(1u << (pos % 8));
    blob[pos] ^= flip;
    EXPECT_THROW(validate_checkpoint_blob(blob), CheckpointCorruptError)
        << "bit flip at byte " << pos << " slipped through";
    blob[pos] ^= flip;  // restore
  }
  validate_checkpoint_blob(blob);  // restored stream is pristine again
}

TEST(CheckpointV3, TrailingGarbageAfterTrailerIsCorrupt) {
  std::string blob = trained_blob();
  blob.push_back('\0');
  EXPECT_THROW(validate_checkpoint_blob(blob), CheckpointCorruptError);
}

TEST(CheckpointV3, VersionDowngradeWithTrailerIsCorrupt) {
  // A v3 stream whose version field claims v2 has 16 unexplained bytes at
  // the end: the strict-length walk must reject it, not silently load it.
  std::string blob = trained_blob();
  const std::uint32_t v2 = 2;
  std::memcpy(blob.data() + 4, &v2, sizeof(v2));
  EXPECT_THROW(validate_checkpoint_blob(blob), CheckpointCorruptError);
}

TEST(CheckpointV3, LegacyV2StreamStillLoads) {
  // Stripping the trailer and downgrading the version field reconstructs
  // the exact v2 byte stream; it must validate and restore bitwise.
  comm::World world(1);
  world.run([&](comm::Comm& comm) {
    const NetworkSpec spec = tiny_bn_net();
    Model trained(spec, comm, Strategy::sample_parallel(spec.size(), 1), 7);
    train_one_step(trained, 31);
    std::string v2 = serialize_checkpoint(trained);
    v2.resize(v2.size() - 16);
    const std::uint32_t two = 2;
    std::memcpy(v2.data() + 4, &two, sizeof(two));
    validate_checkpoint_blob(v2);

    Model restored(spec, comm, Strategy::sample_parallel(spec.size(), 1), 99);
    std::istringstream in(v2);
    load_checkpoint(restored, in);
    std::string again = serialize_checkpoint(restored);
    again.resize(again.size() - 16);
    std::memcpy(again.data() + 4, &two, sizeof(two));
    EXPECT_EQ(again, v2);
  });
}

TEST(CheckpointV3, LegacyV1StreamStillLoadsWithBufferReset) {
  comm::World world(1);
  world.run([&](comm::Comm& comm) {
    const NetworkSpec spec = tiny_bn_net();
    Model trained(spec, comm, Strategy::sample_parallel(spec.size(), 1), 7);
    train_one_step(trained, 41);

    // Serialize in the historical v1 layout (no buffer section).
    std::ostringstream out;
    auto pod = [&out](const auto& v) {
      out.write(reinterpret_cast<const char*>(&v), sizeof(v));
    };
    auto tensor = [&](const Tensor<float>& t) {
      for (int d = 0; d < 4; ++d) pod(static_cast<std::int64_t>(t.shape()[d]));
      out.write(reinterpret_cast<const char*>(t.data()),
                static_cast<std::streamsize>(t.size() * sizeof(float)));
    };
    out.write("DCKP", 4);
    pod(std::uint32_t{1});
    pod(static_cast<std::uint32_t>(trained.num_layers()));
    for (int i = 0; i < trained.num_layers(); ++i) {
      pod(static_cast<std::uint32_t>(trained.rt(i).params.size()));
      for (const auto& p : trained.rt(i).params) tensor(p);
    }
    pod(std::uint8_t{0});  // no momentum section
    const std::string v1 = out.str();
    validate_checkpoint_blob(v1);
    // v1 with trailing garbage is rejected just like v2/v3.
    EXPECT_THROW(validate_checkpoint_blob(v1 + "x"), CheckpointCorruptError);

    Model restored(spec, comm, Strategy::sample_parallel(spec.size(), 1), 99);
    train_one_step(restored, 42);  // dirty the running stats
    std::istringstream in(v1);
    load_checkpoint(restored, in);
    for (int i = 0; i < trained.num_layers(); ++i) {
      for (std::size_t k = 0; k < trained.rt(i).params.size(); ++k) {
        const auto& a = trained.rt(i).params[k];
        const auto& b = restored.rt(i).params[k];
        for (std::int64_t j = 0; j < a.size(); ++j) {
          ASSERT_EQ(a.data()[j], b.data()[j]);
        }
      }
    }
    // BN buffers were reset to their fresh state (update counter zeroed).
    const auto& bn_rt = restored.rt(2);
    ASSERT_EQ(bn_rt.buffers.size(), 3u);
    EXPECT_EQ(bn_rt.buffers[2].data()[0], 0.0f);
  });
}

TEST(CheckpointV3, CorruptLoadLeavesModelUntouched) {
  comm::World world(1);
  world.run([&](comm::Comm& comm) {
    const NetworkSpec spec = tiny_bn_net();
    Model model(spec, comm, Strategy::sample_parallel(spec.size(), 1), 7);
    train_one_step(model, 51);
    const std::string before = serialize_checkpoint(model);

    std::string corrupt = before;
    corrupt[before.size() / 2] ^= 0x10;
    std::istringstream in(corrupt);
    EXPECT_THROW(load_checkpoint(model, in), CheckpointCorruptError);
    // Validation failed before any mutation: the model is bitwise intact.
    EXPECT_EQ(serialize_checkpoint(model), before);
  });
}

TEST(AtomicFile, WriteReplacesWithoutLeavingTemp) {
  const std::string path = "/tmp/distconv_atomic_file_test.bin";
  support::write_file_atomic(path, std::string("first"));
  support::write_file_atomic(path, std::string("second"));
  std::ifstream in(path, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "second");
  // The scratch name is pid-qualified (concurrent writers must not share
  // one), so sweep the whole pattern rather than a fixed ".tmp".
  for (const auto& entry : std::filesystem::directory_iterator("/tmp")) {
    EXPECT_EQ(entry.path().string().find(path + ".tmp"), std::string::npos)
        << "stray scratch file " << entry.path();
  }
  std::remove(path.c_str());
}

TEST(Snapshots, RetentionKeepsNewestAndScanSkipsCorrupt) {
  const std::string dir = "/tmp/distconv_snapshot_scan_test";
  std::filesystem::remove_all(dir);
  comm::World world(2);
  world.run([&](comm::Comm& comm) {
    const NetworkSpec spec = tiny_bn_net();
    Model model(spec, comm, Strategy::sample_parallel(spec.size(), 2), 7);
    SnapshotOptions opts;
    opts.dir = dir;
    opts.every = 1;
    opts.keep = 2;
    SnapshotManager snaps(model, opts);
    snaps.save(0);
    snaps.save(1);
    snaps.save(2);
    comm::barrier(comm);
    // Retention pruned the oldest.
    EXPECT_FALSE(std::filesystem::exists(snaps.path_for_step(0)));
    EXPECT_TRUE(std::filesystem::exists(snaps.path_for_step(1)));
    EXPECT_TRUE(std::filesystem::exists(snaps.path_for_step(2)));
    EXPECT_EQ(snaps.newest_valid_step(), 2);
    comm::barrier(comm);  // both ranks done scanning before the tear below

    // Tear the newest snapshot (a crash mid-write): the scan must fall back
    // to the previous one instead of loading garbage.
    if (comm.rank() == 0) {
      std::ifstream in(snaps.path_for_step(2), std::ios::binary);
      std::string bytes((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
      in.close();
      bytes.resize(bytes.size() / 2);
      std::ofstream out(snaps.path_for_step(2),
                        std::ios::binary | std::ios::trunc);
      out.write(bytes.data(),
                static_cast<std::streamsize>(bytes.size()));
    }
    comm::barrier(comm);
    EXPECT_EQ(snaps.newest_valid_step(), 1);
    EXPECT_EQ(snaps.restore_latest(), 1);
  });
  std::filesystem::remove_all(dir);
}

/// DC_CKPT_EVERY / DC_CKPT_KEEP are parsed strictly: unset or empty keeps
/// the defaults, garbage raises an Error naming the variable instead of
/// silently falling back.
TEST(Snapshots, EnvKnobsRejectGarbage) {
  SnapshotOptions opts = snapshot_options_from_env("/tmp/unused");
  EXPECT_EQ(opts.every, 0);
  EXPECT_EQ(opts.keep, 2);
  setenv("DC_CKPT_EVERY", "5", 1);
  setenv("DC_CKPT_KEEP", "", 1);
  opts = snapshot_options_from_env("/tmp/unused");
  EXPECT_EQ(opts.every, 5);
  EXPECT_EQ(opts.keep, 2);
  unsetenv("DC_CKPT_EVERY");
  unsetenv("DC_CKPT_KEEP");
  for (const char* name : {"DC_CKPT_EVERY", "DC_CKPT_KEEP"}) {
    expect_env_rejects(name, {"5s", "two", "-1"},
                       [] { snapshot_options_from_env("/tmp/unused"); });
  }
}

}  // namespace
}  // namespace distconv::core
