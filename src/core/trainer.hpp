// Trainer: the training-loop driver, including out-of-core micro-batching.
//
// The paper's §VII discusses micro-batching as the standard alternative when
// memory is tight ("mini-batches are split into micro-batches and updates
// accumulated, but this can increase training time") — it is the technique
// spatial parallelism competes with. Trainer implements it over the Model's
// gradient-accumulation API: a global mini-batch of N samples runs as M
// micro-batches of N/M through a model built with batch N/M, gradients
// accumulate locally, and the last micro-batch's backward completes the
// step's gradient sums (overlapped with its backprop when the model's
// overlap_allreduce option is on — the default — with the model's engine
// advancing the in-flight rounds between every micro-batch's layers; the
// non-completing micro-batches still overlap their shuffles and halo
// refreshes through the same engine). With M = 1 this is a plain training step. Every strategy the engine executes —
// sample, spatial, hybrid, and channel/filter-parallel (c > 1) grids —
// composes with micro-batching: channel-parallel layers accumulate their
// weight-gradient slices locally and the deferred completion runs the
// shrunk slice allreduce once per step.
#pragma once

#include <functional>

#include "core/model.hpp"
#include "obs/attribution.hpp"

namespace distconv::obs {
class DriftMonitor;
}

namespace distconv::core {

class SnapshotManager;

struct TrainerOptions {
  kernels::SgdConfig sgd{0.01f, 0.9f, 0.0f};
  /// Micro-batches per optimizer step; the model's batch dimension must be
  /// global_batch / micro_batches.
  int micro_batches = 1;
};

class Trainer {
 public:
  Trainer(Model& model, const TrainerOptions& options)
      : model_(&model), options_(options) {
    DC_REQUIRE(options.micro_batches >= 1, "need at least one micro-batch");
  }

  /// One optimizer step on a global batch with per-pixel BCE targets.
  /// global_input/global_targets carry micro_batches × model-batch samples;
  /// returns the mean loss over the whole global batch. Collective.
  double step_bce(const Tensor<float>& global_input,
                  const Tensor<float>& global_targets);

  /// One optimizer step with integer classification labels.
  double step_softmax(const Tensor<float>& global_input,
                      const std::vector<int>& labels);

  Model& model() { return *model_; }
  const TrainerOptions& options() const { return options_; }

  /// Periodic checkpointing: after each completed step the manager's cadence
  /// decides whether to snapshot (collective when it does). Pass nullptr to
  /// detach. The manager must outlive the trainer.
  void attach_snapshots(SnapshotManager* snapshots) { snapshots_ = snapshots; }

  /// Online perf-model drift checks: after each completed step the monitor's
  /// cadence decides whether to re-join measured metrics against the cost
  /// model (rank 0 only). Pass nullptr to detach; the monitor must outlive
  /// the trainer.
  void attach_drift(obs::DriftMonitor* drift) { drift_ = drift; }

  /// Optimizer steps completed by *this trainer object*. The recovery path
  /// seeds it from the restored snapshot's step so the replayed loop and the
  /// snapshot cadence line up with the pre-fault run.
  std::int64_t steps_done() const { return steps_done_; }
  void set_steps_done(std::int64_t steps) { steps_done_ = steps; }

 private:
  /// Copy samples [first, first + n) of `global` into `micro`.
  static void slice_samples(const Tensor<float>& global, std::int64_t first,
                            Tensor<float>& micro);

  /// Step-boundary bookkeeping shared by both loss heads: the fault
  /// injection site fires before any of the step's communication.
  void begin_step();
  void end_step();

  Model* model_;
  TrainerOptions options_;
  SnapshotManager* snapshots_ = nullptr;
  obs::DriftMonitor* drift_ = nullptr;
  std::int64_t steps_done_ = 0;
  /// Step-attribution bookkeeping: the wall clock and the rank thread's
  /// cumulative wait totals at begin_step(), differenced at end_step().
  std::int64_t step_t0_ns_ = 0;
  obs::WaitTotals step_w0_;
  bool step_timed_ = false;
};

}  // namespace distconv::core
