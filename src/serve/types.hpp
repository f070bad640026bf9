// Shared types of the distributed inference serving subsystem.
//
// Serving composes three pieces: a Batcher that groups single-sample
// requests under a max-batch / max-delay policy (serve/batcher.hpp), a
// Server whose SPMD loop dispatches each batch through the distributed
// eval-mode forward over whatever process grids the model was built with
// (serve/server.hpp), and the forward-only strategy objective that picks
// those grids (perf/strategy_opt.hpp, Objective::kInference).
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace distconv::serve {

/// One scored class of a completed request.
struct Prediction {
  int cls = 0;
  float prob = 0.0f;
};

/// What a submitted request's future resolves to.
struct InferenceResult {
  /// Top-k classes by softmax probability, descending (ties broken by the
  /// lower class index so results are deterministic).
  std::vector<Prediction> topk;
  double latency_seconds = 0;  ///< submit → completion
};

/// Dynamic batching policy: dispatch as soon as `max_batch` requests are
/// queued, or when the oldest queued request has waited `max_delay_us`
/// microseconds — whichever comes first. max_delay_us == 0 is the greedy
/// policy: dispatch whatever is queued the moment the server is free.
///
/// Degradation policy: `max_queue` bounds the backlog — a push against a
/// full queue throws OverloadedError immediately (admission control: reject
/// fast while the server still works, rather than letting latency grow
/// without bound until everything times out). `deadline_us` bounds queueing
/// time — a request still queued past its deadline has its future failed
/// with DeadlineExceededError at pop, and never wastes a forward pass.
struct BatcherOptions {
  int max_batch = 8;                 ///< DC_SERVE_MAX_BATCH
  std::int64_t max_delay_us = 1000;  ///< DC_SERVE_MAX_DELAY_US
  std::int64_t max_queue = 1024;     ///< DC_SERVE_MAX_QUEUE; 0 = unbounded
  std::int64_t deadline_us = 0;      ///< DC_SERVE_DEADLINE_US; 0 = no deadline
};

struct ServeOptions {
  BatcherOptions batcher;
  int top_k = 5;
  /// Continuous batching: free forward slots refill from the queue as each
  /// request completes its passes, instead of the strict batch barrier that
  /// holds every slot until the whole batch finishes. DC_SERVE_CONTINUOUS.
  bool continuous = false;
  /// Double-buffer the next batch's rank-0 input broadcast behind the
  /// current forward pass on the model's comm engine (strict batching
  /// only — continuous refills depend on which slots the current forward
  /// frees, so there is nothing to prefetch). DC_SERVE_DOUBLE_BUFFER.
  bool double_buffer = true;
  /// Replica groups the fleet entry points carve the world into (the Router
  /// fans one model out over this many groups). DC_SERVE_REPLICAS.
  int replicas = 1;
  /// p99 latency target the SLO policy chooser (serve/slo.hpp) aims at; 0 =
  /// no target (keep the configured batcher policy). DC_SERVE_SLO_P99_US.
  std::int64_t slo_p99_us = 0;
};

/// Read the batching knobs from DC_SERVE_MAX_BATCH / DC_SERVE_MAX_DELAY_US /
/// DC_SERVE_MAX_QUEUE / DC_SERVE_DEADLINE_US (defaults above when unset or
/// unparsable). serve_options_from_env additionally reads DC_SERVE_CONTINUOUS
/// / DC_SERVE_DOUBLE_BUFFER (1|true|on|0|false|off; any other value throws),
/// DC_SERVE_REPLICAS and DC_SERVE_SLO_P99_US.
BatcherOptions batcher_options_from_env();
ServeOptions serve_options_from_env();

}  // namespace distconv::serve
