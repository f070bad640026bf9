// Periodic crash-safe snapshots with bounded retention and collective
// recovery.
//
// A SnapshotManager owns a directory of `ckpt-<step>.dckp` files. Every K
// steps (DC_CKPT_EVERY) it writes one atomically (tmp + fsync + rename via
// save_checkpoint_file) and prunes to the newest N (DC_CKPT_KEEP), so a
// crash at any instant leaves a directory whose newest *valid* snapshot is
// at most K steps old — a torn in-progress write fails validation and the
// recovery scan simply falls back to the previous one.
//
// Recovery is collective: every rank scans the directory, probes snapshots
// newest-to-oldest with the model-free validator (corrupt files are skipped,
// never loaded), and the world agrees on min(per-rank newest valid) — the
// newest snapshot *every* rank can see — before loading it through the
// broadcasting loader. On the shared filesystem of the in-process simulator
// the min is a formality; the protocol is what a multi-node deployment
// needs when rank-local staging directories can diverge.
#pragma once

#include <cstdint>
#include <string>

#include "core/checkpoint.hpp"
#include "core/model.hpp"

namespace distconv::core {

struct SnapshotOptions {
  std::string dir;  ///< snapshot directory (created if missing)
  int every = 0;    ///< save after every `every` steps; <= 0 disables
  int keep = 2;     ///< retain the newest `keep` snapshots; <= 0 keeps all
};

/// Options with `every` / `keep` read from DC_CKPT_EVERY / DC_CKPT_KEEP
/// (defaults: 0 — disabled — and 2). Each must be a non-negative integer;
/// anything else throws an Error naming the variable.
SnapshotOptions snapshot_options_from_env(std::string dir);

class SnapshotManager {
 public:
  /// Not collective; every rank constructs one with identical options.
  SnapshotManager(Model& model, SnapshotOptions options);

  const SnapshotOptions& options() const { return options_; }
  std::string path_for_step(std::int64_t step) const;

  /// Trainer hook, called after step `step` (0-based) completed. Saves when
  /// the cadence says so. Collective when it saves.
  void on_step_complete(std::int64_t step);

  /// Snapshot the model as of completed step `step`, then prune retention.
  /// Collective.
  void save(std::int64_t step);

  /// Newest step whose snapshot exists and validates on *this* rank; -1 if
  /// none. Corrupt or unreadable snapshots are skipped, never loaded.
  std::int64_t newest_valid_step() const;

  /// Collective: min over ranks of newest_valid_step() — the newest snapshot
  /// the whole world can restore from.
  std::int64_t agree_newest_valid();

  /// Collective: agree on the newest mutually-valid snapshot and load it.
  /// Returns its step, or -1 (model untouched) when none exists.
  std::int64_t restore_latest();

 private:
  void prune(std::int64_t newest_step);

  Model* model_;
  SnapshotOptions options_;
};

}  // namespace distconv::core
