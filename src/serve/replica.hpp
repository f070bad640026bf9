// The SPMD serving loop one model replica runs, shared by the single-model
// Server facade (serve/server.hpp) and every replica group of the fleet
// Router (serve/router.hpp).
//
// Rank 0 of the replica's communicator pops requests from the Batcher and
// broadcasts a small header plus the packed input; all ranks run
// Model::forward(Mode::kInference) over whatever process grids the model was
// built with; rank 0 scatters per-request top-k softmax results back to the
// clients' futures. Two dispatch disciplines:
//
//   strict (default)  — a batch occupies the model until its costliest
//     member finishes (forward runs max passes over the whole batch). The
//     next batch's input broadcast is double-buffered behind the current
//     forward on the model's comm engine (ServeOptions::double_buffer).
//   continuous        — each slot frees the moment its own request finishes
//     its passes and refills greedily from the queue, so a cheap request
//     never waits out an expensive neighbour's tail.
//
// Both produce bitwise-identical responses: eval-mode operators are
// per-sample (batchnorm running statistics), so zero-padded or refilled
// neighbour slots cannot perturb a request, and repeating a forward on
// unchanged inputs recomputes identical logits.
#pragma once

#include <atomic>
#include <mutex>
#include <vector>

#include "core/model.hpp"
#include "serve/batcher.hpp"
#include "serve/obs.hpp"

namespace distconv::serve {

/// Thread-safe completion statistics over a sliding latency window, so a
/// long-lived server stays O(1) in memory.
class CompletionWindow {
 public:
  /// Latency samples retained for the percentile window.
  static constexpr std::size_t kWindow = 1 << 16;

  void record(std::uint64_t batch_requests, const std::vector<double>& lats);
  std::uint64_t batches() const;
  std::uint64_t served() const;
  /// Percentiles over the retained window (0 when nothing completed yet).
  void percentiles(double* p50, double* p99) const;

 private:
  mutable std::mutex mu_;
  std::vector<double> latencies_;  ///< ring buffer of recent latencies
  std::size_t cursor_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t served_ = 0;
};

/// Everything a replica loop reads and writes besides the model: the queue
/// it drains, where completions are recorded, its metric handles, and an
/// optional poison flag (Router::kill_replica) checked each iteration.
struct ReplicaRuntime {
  Batcher* batcher = nullptr;
  CompletionWindow* window = nullptr;
  LoopObs obs;
  const std::atomic<bool>* poison = nullptr;
};

/// Run the serving loop until the batcher closes and drains (every rank of
/// model.comm() must call this). Throws ReplicaKilledError on every rank of
/// the group when rt.poison is observed; rethrows any forward/comm error.
/// On either exit the caller owns failing still-queued requests.
void serve_replica_loop(core::Model& model, const ServeOptions& opts,
                        const ReplicaRuntime& rt);

/// Close rt.batcher and deliver `err` to every still-queued request (rank 0
/// of the failed loop calls this so no client blocks on a promise the
/// replica can no longer keep).
void fail_pending_requests(Batcher& batcher, std::exception_ptr err);

/// Top-k softmax of one row of logits: probabilities descending, ties broken
/// by the lower class index. Exposed for tests and offline scoring.
std::vector<Prediction> topk_softmax(const float* logits, std::int64_t classes,
                                     int k);

}  // namespace distconv::serve
