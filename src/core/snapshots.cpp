#include "core/snapshots.hpp"

#include <algorithm>
#include <climits>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "comm/collectives.hpp"
#include "support/env.hpp"
#include "support/logging.hpp"

namespace distconv::core {
namespace {

namespace fs = std::filesystem;

constexpr const char* kPrefix = "ckpt-";
constexpr const char* kSuffix = ".dckp";

/// Steps of all snapshot files in `dir`, unsorted. Unreadable directories
/// yield an empty list (recovery then reports "nothing to restore").
std::vector<std::int64_t> list_steps(const std::string& dir) {
  std::vector<std::int64_t> steps;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= std::strlen(kPrefix) + std::strlen(kSuffix)) continue;
    if (name.rfind(kPrefix, 0) != 0) continue;
    if (name.size() < std::strlen(kSuffix) ||
        name.compare(name.size() - std::strlen(kSuffix), std::string::npos,
                     kSuffix) != 0) {
      continue;
    }
    const std::string digits = name.substr(
        std::strlen(kPrefix),
        name.size() - std::strlen(kPrefix) - std::strlen(kSuffix));
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    steps.push_back(std::strtoll(digits.c_str(), nullptr, 10));
  }
  return steps;
}

}  // namespace

SnapshotOptions snapshot_options_from_env(std::string dir) {
  SnapshotOptions options;
  options.dir = std::move(dir);
  options.every = static_cast<int>(env_int("DC_CKPT_EVERY", 0, INT_MAX));
  options.keep = static_cast<int>(env_int("DC_CKPT_KEEP", 2, INT_MAX));
  return options;
}

SnapshotManager::SnapshotManager(Model& model, SnapshotOptions options)
    : model_(&model), options_(std::move(options)) {
  DC_REQUIRE(!options_.dir.empty(), "SnapshotManager needs a directory");
  std::error_code ec;
  fs::create_directories(options_.dir, ec);  // idempotent; races are benign
}

std::string SnapshotManager::path_for_step(std::int64_t step) const {
  std::ostringstream name;
  name << options_.dir << '/' << kPrefix << step << kSuffix;
  return name.str();
}

void SnapshotManager::on_step_complete(std::int64_t step) {
  if (options_.every <= 0) return;
  if ((step + 1) % options_.every != 0) return;
  save(step);
}

void SnapshotManager::save(std::int64_t step) {
  save_checkpoint_file(*model_, path_for_step(step));  // atomic + barrier
  if (model_->comm().rank() == 0) prune(step);
}

void SnapshotManager::prune(std::int64_t newest_step) {
  if (options_.keep <= 0) return;
  std::vector<std::int64_t> steps = list_steps(options_.dir);
  std::sort(steps.begin(), steps.end(), std::greater<>());
  int kept = 0;
  for (const std::int64_t s : steps) {
    if (s > newest_step) continue;  // never touch snapshots from the future
    if (++kept <= options_.keep) continue;
    std::error_code ec;
    fs::remove(path_for_step(s), ec);
  }
}

std::int64_t SnapshotManager::newest_valid_step() const {
  std::vector<std::int64_t> steps = list_steps(options_.dir);
  std::sort(steps.begin(), steps.end(), std::greater<>());
  for (const std::int64_t s : steps) {
    std::ifstream in(path_for_step(s), std::ios::binary);
    if (!in.good()) continue;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    try {
      validate_checkpoint_blob(buffer.str());
      return s;
    } catch (const CheckpointCorruptError&) {
      // Torn or flipped snapshot: skip it, probe the next older one.
    }
  }
  return -1;
}

std::int64_t SnapshotManager::agree_newest_valid() {
  std::int64_t newest = newest_valid_step();
  comm::allreduce(model_->comm(), &newest, 1, comm::ReduceOp::kMin);
  return newest;
}

std::int64_t SnapshotManager::restore_latest() {
  const std::int64_t step = agree_newest_valid();
  if (step < 0) return -1;
  load_checkpoint_file(*model_, path_for_step(step));
  if (model_->comm().rank() == 0) {
    log::info("recovery: restored snapshot of step ", step, " from ",
              path_for_step(step));
  }
  return step;
}

}  // namespace distconv::core
