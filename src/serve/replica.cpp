#include "serve/replica.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>

#include "comm/collectives.hpp"
#include "comm/nonblocking.hpp"
#include "obs/attribution.hpp"

namespace distconv::serve {

std::vector<Prediction> topk_softmax(const float* logits, std::int64_t classes,
                                     int k) {
  const std::int64_t kk = std::min<std::int64_t>(std::max(1, k), classes);
  // Max-shifted softmax in double for stability; deterministic given the
  // logits (ascending accumulation).
  float mx = logits[0];
  for (std::int64_t c = 1; c < classes; ++c) mx = std::max(mx, logits[c]);
  double denom = 0.0;
  for (std::int64_t c = 0; c < classes; ++c) {
    denom += std::exp(double(logits[c]) - mx);
  }
  std::vector<int> order(static_cast<std::size_t>(classes));
  std::iota(order.begin(), order.end(), 0);
  // NaN logits (requests are validated by shape, not value) map to -inf so
  // the comparator stays a strict weak ordering; ties break on the lower
  // class index for determinism.
  const auto key = [&](int i) {
    const float v = logits[i];
    return std::isnan(v) ? -std::numeric_limits<float>::infinity() : v;
  };
  std::partial_sort(order.begin(), order.begin() + kk, order.end(),
                    [&](int a, int b) {
                      const float ka = key(a), kb = key(b);
                      if (ka != kb) return ka > kb;
                      return a < b;  // deterministic tie-break
                    });
  std::vector<Prediction> out(static_cast<std::size_t>(kk));
  for (std::int64_t i = 0; i < kk; ++i) {
    out[i].cls = order[i];
    out[i].prob =
        static_cast<float>(std::exp(double(logits[order[i]]) - mx) / denom);
  }
  return out;
}

void CompletionWindow::record(std::uint64_t batch_requests,
                              const std::vector<double>& lats) {
  std::lock_guard<std::mutex> lock(mu_);
  ++batches_;
  served_ += batch_requests;
  // Percentiles are computed over a sliding window of the most recent
  // completions, so a long-lived server's stats stay bounded.
  for (const double l : lats) {
    if (latencies_.size() < kWindow) {
      latencies_.push_back(l);
    } else {
      latencies_[cursor_ % kWindow] = l;
    }
    ++cursor_;
  }
}

std::uint64_t CompletionWindow::batches() const {
  std::lock_guard<std::mutex> lock(mu_);
  return batches_;
}

std::uint64_t CompletionWindow::served() const {
  std::lock_guard<std::mutex> lock(mu_);
  return served_;
}

void CompletionWindow::percentiles(double* p50, double* p99) const {
  std::lock_guard<std::mutex> lock(mu_);
  *p50 = 0;
  *p99 = 0;
  if (latencies_.empty()) return;
  std::vector<double> sorted = latencies_;
  std::sort(sorted.begin(), sorted.end());
  const auto pct = [&](double q) {
    const auto n = static_cast<std::int64_t>(sorted.size());
    const auto idx = std::min<std::int64_t>(
        n - 1, static_cast<std::int64_t>(std::ceil(q * n)) - 1);
    return sorted[static_cast<std::size_t>(std::max<std::int64_t>(0, idx))];
  };
  *p50 = pct(0.50);
  *p99 = pct(0.99);
}

namespace {

/// Per-request trace marker: every serve.req.* instant carries the fleet-
/// global request id so the router→replica→response chain can be joined.
void emit_req_instant(const char* name, std::uint64_t id) {
  const obs::trace::Arg args[] = {{"req", static_cast<double>(id)}};
  obs::trace::emit_instant(name, "serve", args, 1);
}

}  // namespace

void fail_pending_requests(Batcher& batcher, std::exception_ptr err) {
  batcher.close();
  for (;;) {
    std::vector<Request> rest =
        batcher.take_ready(batcher.options().max_batch);
    if (rest.empty()) break;
    for (auto& req : rest) {
      if (obs::timing_enabled()) emit_req_instant("serve.req.failed", req.id);
      try {
        req.done.set_exception(err);
      } catch (...) {
        // Already satisfied — nothing to deliver.
      }
    }
  }
}

namespace {

/// Shared geometry and helpers of both dispatch disciplines.
struct LoopContext {
  core::Model* model;
  const ServeOptions* opts;
  const ReplicaRuntime* rt;
  Shape4 in_shape;
  int capacity = 0;
  std::int64_t classes = 0;
  std::int64_t sample_elems = 0;
  int out_layer = 0;
  /// End of the most recent forward (rank 0, timing on): splits a
  /// completing request's latency into forward vs respond stages.
  std::chrono::steady_clock::time_point fwd_end;

  comm::Comm& comm() const { return model->comm(); }
  bool rank0() const { return model->comm().rank() == 0; }

  bool poisoned() const {
    return rt->poison != nullptr &&
           rt->poison->load(std::memory_order_acquire);
  }

  /// Reject malformed samples here, on rank 0, *before* anything hits the
  /// wire: the bad request's future carries the error and the collective
  /// round proceeds with the valid remainder — a client mistake must not
  /// wedge every rank of the serving loop.
  std::vector<Request> validate(std::vector<Request> batch) const {
    std::vector<Request> valid;
    valid.reserve(batch.size());
    for (auto& req : batch) {
      const Shape4& s = req.input.shape();
      if (s.c == in_shape.c && s.h == in_shape.h && s.w == in_shape.w) {
        valid.push_back(std::move(req));
      } else {
        req.done.set_exception(std::make_exception_ptr(Error(
            internal::compose("request sample shape ", s.str(),
                              " does not match model input ",
                              in_shape.str()))));
      }
    }
    return valid;
  }

  static std::exception_ptr killed_error() {
    return std::make_exception_ptr(ReplicaKilledError(
        "serving replica killed (Router::kill_replica); queued requests "
        "fail with ReplicaKilledError and routing skips this replica"));
  }

  [[noreturn]] void throw_killed() const {
    std::rethrow_exception(killed_error());
  }

  /// Fail already-popped requests on the kill path so their clients see the
  /// replica error instead of a broken promise.
  static void fail_requests(std::vector<Request>& reqs,
                            const std::exception_ptr& err) {
    for (auto& req : reqs) {
      if (obs::timing_enabled()) emit_req_instant("serve.req.failed", req.id);
      try {
        req.done.set_exception(err);
      } catch (...) {
        // Already satisfied — nothing to deliver.
      }
    }
    reqs.clear();
  }

  /// Mark the moment a batch's forward starts: stamps each request's
  /// dispatch time and emits its serve.req.dispatch instant (rank 0 only).
  template <typename Reqs>
  static void mark_dispatched(Reqs& reqs,
                              std::chrono::steady_clock::time_point now) {
    for (Request& req : reqs) {
      req.dispatched = now;
      emit_req_instant("serve.req.dispatch", req.id);
    }
  }

  /// Complete one request from row `row` of the gathered output.
  void complete(Request& req, const Tensor<float>& out, std::int64_t row,
                std::chrono::steady_clock::time_point now,
                std::vector<double>* lats) const {
    InferenceResult res;
    res.topk = topk_softmax(out.data() + row * classes, classes, opts->top_k);
    res.latency_seconds =
        std::chrono::duration<double>(now - req.enqueued).count();
    lats->push_back(res.latency_seconds);
    if (obs::timing_enabled()) {
      record_stages(req, now);
      emit_req_instant("serve.req.done", req.id);
    }
    req.done.set_value(std::move(res));
  }

  /// Queue / batch-wait / forward / respond breakdown of one completed
  /// request. Timestamps are only stamped when timing was on at that hop,
  /// so each stage guards against a missing (epoch) predecessor.
  void record_stages(const Request& req,
                     std::chrono::steady_clock::time_point now) const {
    const LoopObs& m = rt->obs;
    const auto us = [](std::chrono::steady_clock::duration d) {
      const auto v =
          std::chrono::duration_cast<std::chrono::microseconds>(d).count();
      return static_cast<std::uint64_t>(std::max<std::int64_t>(0, v));
    };
    const std::chrono::steady_clock::time_point epoch{};
    if (req.popped == epoch) return;
    m.stage_queue_us.record(us(req.popped - req.enqueued));
    if (req.dispatched == epoch) return;
    m.stage_batch_wait_us.record(us(req.dispatched - req.popped));
    if (fwd_end == epoch) return;
    m.stage_forward_us.record(us(fwd_end - req.dispatched));
    m.stage_respond_us.record(us(now - fwd_end));
  }

  void record_completions(std::uint64_t dispatched,
                          const std::vector<double>& lats) const {
    rt->window->record(lats.size(), lats);
    if (obs::timing_enabled()) {
      const LoopObs& m = rt->obs;
      m.requests.add(lats.size());
      m.batches.inc();
      m.batch_size.record(dispatched);
      for (const double l : lats) {
        m.latency_us.record(static_cast<std::uint64_t>(l * 1e6));
      }
      // Refresh the live percentile gauges on a coarse cadence: the window
      // sort is too expensive for every batch, cheap every 16th.
      const std::uint64_t batches = rt->window->batches();
      if (batches % 16 == 1) {
        double p50 = 0, p99 = 0;
        rt->window->percentiles(&p50, &p99);
        m.p50_us.set(static_cast<std::int64_t>(p50 * 1e6));
        m.p99_us.set(static_cast<std::int64_t>(p99 * 1e6));
      }
    }
  }
};

/// Drains an in-flight engine broadcast on scope exit: the engine still
/// holds the op's pointers into the prefetch buffer, so a forward error must
/// not unwind past that buffer with the op queued. The happy path drains
/// explicitly (to surface comm errors) and disarms.
struct EngineDrainGuard {
  comm::CollectiveEngine* engine = nullptr;
  std::uint64_t ticket = 0;

  ~EngineDrainGuard() {
    if (engine != nullptr && ticket != 0) {
      try {
        engine->drain_until(ticket);
      } catch (...) {
        // Unwinding from a comm error already; the abort machinery has
        // unstuck (or will unstick) the pending receive.
      }
    }
  }
};

/// Strict batching: the PR 4 loop plus variable-cost passes and the
/// double-buffered next-batch broadcast on the model's comm engine.
void strict_loop(LoopContext& ctx) {
  core::Model& model = *ctx.model;
  auto& comm = ctx.comm();
  Batcher& batcher = *ctx.rt->batcher;
  const bool db = ctx.opts->double_buffer;

  Tensor<float> bufs[2] = {Tensor<float>(ctx.in_shape),
                           Tensor<float>(ctx.in_shape)};
  int cur = 0;
  std::vector<Request> batch;  // occupies bufs[cur]
  std::int64_t passes = 1;
  bool have = false;

  const auto max_passes = [](const std::vector<Request>& reqs) {
    std::int64_t p = 1;
    for (const Request& r : reqs) p = std::max<std::int64_t>(p, r.passes);
    return p;
  };
  const auto pack = [&](const std::vector<Request>& reqs, Tensor<float>& buf) {
    for (std::size_t j = 0; j < reqs.size(); ++j) {
      const Tensor<float>& s = reqs[j].input;
      std::copy(s.data(), s.data() + s.size(),
                buf.data() + static_cast<std::int64_t>(j) * ctx.sample_elems);
    }
  };

  // Popped requests live in `batch`/`next`, outside the queue — an exception
  // unwinding the loop (injected fault, watchdog timeout mid-collective)
  // would destroy their promises unresolved ("broken promise" at the
  // client). The catch below turns that into the same typed failure the
  // clean kill path delivers, then rethrows for the containment layer.
  std::vector<Request> next;  // prefetched batch, occupies bufs[1 - cur]
  try {
  for (;;) {
    if (!have) {
      // Blocking acquire: rank 0 forms the batch; everyone learns the header
      // (count: -1 = shutdown, -2 = killed, 0 = every request was rejected,
      // loop again) and receives the packed input prefix.
      std::int64_t header[2] = {0, 1};
      if (ctx.rank0()) {
        if (ctx.poisoned()) {
          header[0] = -2;
        } else {
          std::vector<Request> raw = batcher.next_batch(ctx.capacity);
          const bool drained = raw.empty();  // closed + queue empty
          batch = ctx.validate(std::move(raw));
          if (ctx.poisoned()) {
            header[0] = -2;  // killed while parked (kill closes the queue)
          } else {
            header[0] = drained ? -1 : static_cast<std::int64_t>(batch.size());
            header[1] = max_passes(batch);
          }
        }
      }
      comm::broadcast(comm, header, 2, 0);
      if (header[0] == -2) {
        if (ctx.rank0()) LoopContext::fail_requests(batch, ctx.killed_error());
        ctx.throw_killed();
      }
      if (header[0] < 0) break;
      if (header[0] == 0) continue;
      bufs[cur].zero();
      if (ctx.rank0()) pack(batch, bufs[cur]);
      comm::broadcast(comm, bufs[cur].data(),
                      static_cast<std::size_t>(header[0] * ctx.sample_elems),
                      0);
      passes = header[1];
      have = true;
    }

    // Prefetch the next batch's payload behind this forward: greedy pop (it
    // must never stall the forward already formed), small header broadcast,
    // then the packed input rides the model's engine, advancing at the
    // forward's own engine calls.
    std::int64_t nheader[2] = {0, 1};
    EngineDrainGuard inflight;
    if (db) {
      if (ctx.rank0() && !ctx.poisoned()) {
        next = ctx.validate(batcher.take_ready(ctx.capacity));
        nheader[0] = static_cast<std::int64_t>(next.size());
        nheader[1] = max_passes(next);
      }
      comm::broadcast(comm, nheader, 2, 0);
      if (nheader[0] > 0) {
        bufs[1 - cur].zero();
        if (ctx.rank0()) pack(next, bufs[1 - cur]);
        inflight.engine = &model.comm_engine();
        auto op = std::make_unique<comm::NbBroadcast<float>>(
            comm, bufs[1 - cur].data(),
            static_cast<std::size_t>(nheader[0] * ctx.sample_elems), 0);
        op->set_obs_label("serve-prefetch");
        op->set_obs_bytes(static_cast<std::uint64_t>(nheader[0]) *
                          ctx.sample_elems * sizeof(float));
        inflight.ticket = inflight.engine->enqueue(std::move(op));
      }
    }

    {
      obs::trace::Span batch_span("serve.batch", "serve");
      batch_span.arg("size", static_cast<double>(batch.size()));
      batch_span.arg("passes", static_cast<double>(passes));
      if (ctx.rank0() && obs::timing_enabled()) {
        LoopContext::mark_dispatched(batch, std::chrono::steady_clock::now());
      }
      for (std::int64_t p = 0; p < passes; ++p) {
        model.set_input(0, bufs[cur]);
        model.forward(core::Mode::kInference);
      }
    }
    if (ctx.rank0() && obs::timing_enabled()) {
      ctx.fwd_end = std::chrono::steady_clock::now();
    }
    Tensor<float> out = model.gather_output(ctx.out_layer);

    if (inflight.ticket != 0) {
      // The prefetched payload must be resident before we swap to it (and
      // before its buffer can be reused); usually already done by now.
      inflight.engine->drain_until(inflight.ticket);
      inflight.ticket = 0;
    }

    if (ctx.rank0()) {
      const auto now = std::chrono::steady_clock::now();
      std::vector<double> lats;
      lats.reserve(batch.size());
      for (std::size_t j = 0; j < batch.size(); ++j) {
        ctx.complete(batch[j], out, static_cast<std::int64_t>(j), now, &lats);
      }
      ctx.record_completions(batch.size(), lats);
      batch.clear();
    }

    if (nheader[0] > 0) {
      cur = 1 - cur;
      batch = std::move(next);
      passes = nheader[1];
      have = true;
    } else {
      have = false;
    }
  }
  } catch (...) {
    if (ctx.rank0()) {
      LoopContext::fail_requests(batch, std::current_exception());
      LoopContext::fail_requests(next, std::current_exception());
    }
    throw;
  }
}

/// Continuous batching: `capacity` slots, each freed the moment its own
/// request finishes its passes, refilled greedily from the queue. One
/// forward pass per iteration over whatever mix of old and new requests the
/// slots hold; per-sample eval-mode operators keep every response
/// bitwise-identical to strict batching.
void continuous_loop(LoopContext& ctx) {
  core::Model& model = *ctx.model;
  auto& comm = ctx.comm();
  Batcher& batcher = *ctx.rt->batcher;

  struct Slot {
    Request req;
    std::int64_t remaining = 0;
    bool occupied = false;
  };
  std::vector<Slot> slots(static_cast<std::size_t>(ctx.capacity));

  Tensor<float> input(ctx.in_shape);
  input.zero();
  // Header: [0] status (0 = serve, -1 = shutdown, -2 = killed), [1] refill
  // count, [2 + s] per-slot code (0 = empty, 1 = continuing, 2 = refilled).
  std::vector<std::int64_t> header(static_cast<std::size_t>(ctx.capacity) + 2);
  Tensor<float> staging(ctx.in_shape);  // packed refill samples

  // Same unwind contract as strict_loop: occupied slots and just-popped
  // refills hold live promises, so any exception escaping the loop must
  // fail them before the stack frame (and the promises) die.
  std::vector<Request> fresh;
  try {
  for (;;) {
    fresh.clear();
    if (ctx.rank0()) {
      std::fill(header.begin(), header.end(), 0);
      int occupied = 0;
      for (const Slot& s : slots) occupied += s.occupied ? 1 : 0;
      int free = ctx.capacity - occupied;
      if (ctx.poisoned()) {
        header[0] = -2;
      } else if (occupied == 0) {
        // Idle: park under the configured max-batch / max-delay policy
        // until traffic (or shutdown) arrives.
        std::vector<Request> raw = batcher.next_batch(free);
        const bool drained = raw.empty();  // closed + queue empty
        fresh = ctx.validate(std::move(raw));
        if (ctx.poisoned()) {
          header[0] = -2;
        } else if (drained) {
          header[0] = -1;
        }
      } else if (free > 0) {
        // Busy: refill greedily — freed slots must not wait out a delay
        // policy while their neighbours burn forward passes.
        fresh = ctx.validate(batcher.take_ready(free));
      }
      if (header[0] == 0) {
        header[1] = static_cast<std::int64_t>(fresh.size());
        std::size_t next_fresh = 0;
        for (std::size_t s = 0; s < slots.size(); ++s) {
          if (slots[s].occupied) {
            header[2 + s] = 1;
          } else if (next_fresh < fresh.size()) {
            slots[s].req = std::move(fresh[next_fresh++]);
            slots[s].remaining = slots[s].req.passes;
            slots[s].occupied = true;
            header[2 + s] = 2;
            if (obs::timing_enabled()) {
              slots[s].req.dispatched = std::chrono::steady_clock::now();
              emit_req_instant("serve.req.dispatch", slots[s].req.id);
            }
          }
        }
      }
    }
    comm::broadcast(comm, header.data(), header.size(), 0);
    if (header[0] == -2) {
      if (ctx.rank0()) {
        const std::exception_ptr err = LoopContext::killed_error();
        LoopContext::fail_requests(fresh, err);
        for (Slot& s : slots) {
          if (!s.occupied) continue;
          std::vector<Request> one;
          one.push_back(std::move(s.req));
          LoopContext::fail_requests(one, err);
          s.occupied = false;
        }
      }
      ctx.throw_killed();
    }
    if (header[0] == -1) break;
    if (ctx.rank0() && header[1] > 0) {
      std::int64_t row = 0;
      for (std::size_t s = 0; s < slots.size(); ++s) {
        if (header[2 + s] != 2) continue;
        const Tensor<float>& smp = slots[s].req.input;
        std::copy(smp.data(), smp.data() + smp.size(),
                  staging.data() + row * ctx.sample_elems);
        ++row;
      }
    }
    if (header[1] > 0) {
      comm::broadcast(comm, staging.data(),
                      static_cast<std::size_t>(header[1] * ctx.sample_elems),
                      0);
    }
    // Every rank applies the same slot plan: zero vacated slots (padding
    // stays provably inert), splice refills, keep continuing slots bitwise
    // untouched.
    std::int64_t row = 0;
    std::int64_t active = 0;
    for (std::size_t s = 0; s < slots.size(); ++s) {
      float* dst = input.data() + static_cast<std::int64_t>(s) *
                                      ctx.sample_elems;
      if (header[2 + s] == 0) {
        std::fill(dst, dst + ctx.sample_elems, 0.0f);
      } else if (header[2 + s] == 2) {
        std::copy(staging.data() + row * ctx.sample_elems,
                  staging.data() + (row + 1) * ctx.sample_elems, dst);
        ++row;
        ++active;
      } else {
        ++active;
      }
    }

    {
      obs::trace::Span batch_span("serve.batch", "serve");
      batch_span.arg("size", static_cast<double>(active));
      batch_span.arg("refill", static_cast<double>(header[1]));
      model.set_input(0, input);
      model.forward(core::Mode::kInference);
    }
    if (ctx.rank0() && obs::timing_enabled()) {
      ctx.fwd_end = std::chrono::steady_clock::now();
    }
    Tensor<float> out = model.gather_output(ctx.out_layer);

    if (ctx.rank0()) {
      const auto now = std::chrono::steady_clock::now();
      std::vector<double> lats;
      for (std::size_t s = 0; s < slots.size(); ++s) {
        if (!slots[s].occupied) continue;
        if (--slots[s].remaining > 0) continue;
        ctx.complete(slots[s].req, out, static_cast<std::int64_t>(s), now,
                     &lats);
        slots[s].req = Request{};
        slots[s].occupied = false;
      }
      if (obs::timing_enabled() && header[1] > 0) {
        ctx.rt->obs.refills.add(static_cast<std::uint64_t>(header[1]));
      }
      ctx.record_completions(static_cast<std::uint64_t>(active), lats);
    }
  }
  } catch (...) {
    if (ctx.rank0()) {
      LoopContext::fail_requests(fresh, std::current_exception());
      std::vector<Request> held;
      for (Slot& s : slots) {
        if (s.occupied) held.push_back(std::move(s.req));
        s.occupied = false;
      }
      LoopContext::fail_requests(held, std::current_exception());
    }
    throw;
  }
}

}  // namespace

void serve_replica_loop(core::Model& model, const ServeOptions& opts,
                        const ReplicaRuntime& rt) {
  DC_REQUIRE(rt.batcher != nullptr && rt.window != nullptr,
             "serve_replica_loop needs a batcher and a completion window");
  LoopContext ctx;
  ctx.model = &model;
  ctx.opts = &opts;
  ctx.rt = &rt;
  ctx.out_layer = model.output_layer();
  const Shape4 out_shape = model.rt(ctx.out_layer).out_shape;
  DC_REQUIRE(out_shape.h == 1 && out_shape.w == 1,
             "serving expects a (N, classes, 1, 1) classification head, got ",
             out_shape.str());
  ctx.in_shape = model.rt(0).out_shape;
  ctx.capacity = static_cast<int>(ctx.in_shape.n);
  ctx.classes = out_shape.c;
  ctx.sample_elems = ctx.in_shape.c * ctx.in_shape.h * ctx.in_shape.w;

  if (opts.continuous) {
    continuous_loop(ctx);
  } else {
    strict_loop(ctx);
  }
}

}  // namespace distconv::serve
