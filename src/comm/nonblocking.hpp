// Collective operations as resumable state machines over the eager
// point-to-point layer. Each op is the one implementation of its algorithm:
// the blocking collectives in comm/collectives.hpp build the op and run() it
// inline, and the CollectiveEngine below advances the same op between the
// owning rank's compute steps.
//
// Every blocking receive of the algorithm is a posted irecv plus a
// resumption point. Sends are eager (they complete on return), so an op only
// ever blocks on one posted receive at a time — `progress()` tests it,
// applies the step, and posts the next round. Because the arithmetic order
// inside an op is fixed, its result is bitwise-identical regardless of when
// or how often it is progressed, or whether it runs inline.
//
// The CollectiveEngine serializes ops onto a single logical channel: an op
// starts communicating only when it reaches the head of the queue, matching
// the performance model's greedy schedule ("only one allreduce at a time is
// considered to run", perf/network_cost.cpp). Ops are constructed — and
// allocate their tags — at enqueue time, so as long as every rank enqueues
// in the same program order (SPMD discipline, as with the blocking
// collectives), tags agree across ranks no matter how the wire schedules
// interleave.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "comm/comm.hpp"
#include "comm/types.hpp"
#include "obs/attribution.hpp"
#include "support/error.hpp"

namespace distconv::comm {

enum class AllreduceAlgo { kAuto, kRecursiveDoubling, kRing };

/// Message-size threshold (bytes) above which the ring algorithm wins; the
/// same constant appears in the analytic model (perf/comm_model.hpp).
inline constexpr std::size_t kAllreduceRingThresholdBytes = 16384;

namespace internal {

template <typename T>
void apply_op(ReduceOp op, T* acc, const T* in, std::size_t n) {
  switch (op) {
    case ReduceOp::kSum:
      for (std::size_t i = 0; i < n; ++i) acc[i] += in[i];
      break;
    case ReduceOp::kMax:
      for (std::size_t i = 0; i < n; ++i) acc[i] = std::max(acc[i], in[i]);
      break;
    case ReduceOp::kMin:
      for (std::size_t i = 0; i < n; ++i) acc[i] = std::min(acc[i], in[i]);
      break;
    case ReduceOp::kProd:
      for (std::size_t i = 0; i < n; ++i) acc[i] *= in[i];
      break;
  }
}

/// Balanced partition of n items over p blocks: first (n % p) blocks get one
/// extra item. Returns [start, end) of block b.
inline std::pair<std::size_t, std::size_t> block_range(std::size_t n, int p, int b) {
  const std::size_t base = n / p;
  const std::size_t extra = n % p;
  const std::size_t ub = static_cast<std::size_t>(b);
  const std::size_t start = ub * base + std::min<std::size_t>(ub, extra);
  const std::size_t len = base + (ub < extra ? 1 : 0);
  return {start, start + len};
}

/// Whether an allreduce of n elements of T over p ranks runs the ring:
/// kAuto picks it above kAllreduceRingThresholdBytes, and the ring falls
/// back to recursive doubling when its blocks would be empty (n < p).
template <typename T>
bool allreduce_uses_ring(std::size_t n, int p, AllreduceAlgo algo) {
  const bool ring = algo == AllreduceAlgo::kRing ||
                    (algo == AllreduceAlgo::kAuto &&
                     n * sizeof(T) > kAllreduceRingThresholdBytes);
  return ring && n >= static_cast<std::size_t>(p);
}

}  // namespace internal

/// A resumable collective operation. Lifecycle: construct (allocates tags,
/// touches no wire) → start() (first sends/receives) → progress() until
/// done; or construct → run() for a blocking call.
class NbOp {
 public:
  virtual ~NbOp() = default;
  NbOp() = default;
  NbOp(const NbOp&) = delete;
  NbOp& operator=(const NbOp&) = delete;

  bool started() const { return started_; }
  bool done() const { return done_; }

  /// Short label for watchdog diagnostics: what a drain blocked on this op
  /// reports if the wait times out.
  virtual const char* name() const { return "nonblocking-op"; }

  /// Observability label override: the comm.op.<label>.* counters and the
  /// trace span default to name(); Model relabels its gradient-completion
  /// ops "gradreduce" so attribution can separate them from other
  /// iallreduces. Must be a string literal.
  void set_obs_label(const char* label) { obs_label_ = label; }
  const char* obs_label() const { return obs_label_ ? obs_label_ : name(); }
  /// Payload size reported in comm.op.<label>.bytes (0 when unset).
  void set_obs_bytes(std::uint64_t bytes) { obs_bytes_ = bytes; }

  /// Begin communicating. Called once, by the engine, when the op reaches
  /// the head of the wire queue.
  void start() {
    DC_REQUIRE(!started_, "nonblocking op started twice");
    started_ = true;
    if (obs::timing_enabled()) obs_t0_ = obs::trace::now_ns();
    if (begin()) {
      done_ = true;
      record_obs();
    }
  }

  /// Advance as far as currently possible without blocking; true when the
  /// op has completed (its buffers hold the final result).
  bool progress() {
    if (done_) return true;
    DC_REQUIRE(started_, "progress() on an op that was never started");
    if (advance()) {
      done_ = true;
      record_obs();
    }
    return done_;
  }

  /// Block until the op can advance, then advance. Throws on world abort.
  void wait_progress() {
    if (done_) return;
    DC_REQUIRE(started_, "wait_progress() on an op that was never started");
    block();
    progress();
  }

  /// Run the op to completion on the calling thread, outside any engine:
  /// the body of the blocking collectives. Records no comm.op.* counters —
  /// the blocking call's CollectiveScope counts it.
  void run() {
    DC_REQUIRE(!started_, "nonblocking op started twice");
    started_ = true;
    if (!begin()) {
      while (!advance()) block();
    }
    done_ = true;
  }

 protected:
  /// Post the first sends/receives. True if the op is already complete
  /// (single-rank groups, zero-length buffers).
  virtual bool begin() = 0;
  /// Nonblocking advance; true when complete.
  virtual bool advance() = 0;
  /// Block until advance() can make progress.
  virtual void block() = 0;

 private:
  // Timed start → completion, recorded by the owner's progress or drain
  // call that retires the op. obs_t0_ == 0 means timing was off when the op
  // started.
  void record_obs() {
    if (obs_t0_ != 0) {
      obs::record_nb_op(obs_label(), obs_t0_, obs_bytes_);
      obs_t0_ = 0;
    }
  }

  bool started_ = false;
  bool done_ = false;
  const char* obs_label_ = nullptr;
  std::uint64_t obs_bytes_ = 0;
  std::int64_t obs_t0_ = 0;
};

/// Helper base for ops whose progress is driven by one posted receive at a
/// time: advance() drains completed receives through step(), block() waits
/// on the pending one.
class RequestDrivenOp : public NbOp {
 protected:
  bool advance() final {
    while (pending_.test()) {
      if (step()) return true;
    }
    return false;
  }
  void block() final { pending_.wait(); }

  /// The pending receive completed: apply it and post the next round.
  /// True when the op is complete.
  virtual bool step() = 0;

  Request pending_;  ///< receive the op is currently blocked on
};

/// Recursive-doubling allreduce (latency-optimal, small n): the first 2·rem
/// ranks fold pairwise down to a power of two, the survivors exchange over
/// a hypercube, and the folded-away ranks receive the result back.
template <typename T>
class NbAllreduceRd final : public RequestDrivenOp {
 public:
  const char* name() const override { return "iallreduce-rd"; }
  NbAllreduceRd(Comm& comm, T* buf, std::size_t n, ReduceOp op, int tag = -1)
      : comm_(&comm), buf_(buf), n_(n), op_(op),
        tag_(tag >= 0 ? tag : comm.next_internal_tag()) {}

 protected:
  bool begin() override {
    const int p = comm_->size();
    if (p == 1 || n_ == 0) return true;
    me_ = comm_->rank();
    tmp_.resize(n_);
    pof2_ = 1;
    while (pof2_ * 2 <= p) pof2_ *= 2;
    rem_ = p - pof2_;
    if (me_ < 2 * rem_) {
      if (me_ % 2 == 0) {
        // Fold into the odd neighbour; the only message that ever comes
        // back on this (src, tag) channel is the final result, so the
        // receive can be posted now.
        comm_->send(buf_, n_, me_ + 1, tag_);
        pending_ = comm_->irecv(buf_, n_ * sizeof(T), me_ + 1, tag_);
        stage_ = Stage::kFinalRecv;
      } else {
        pending_ = comm_->irecv(tmp_.data(), n_ * sizeof(T), me_ - 1, tag_);
        stage_ = Stage::kFoldRecv;
      }
      return false;
    }
    newrank_ = me_ - rem_;
    mask_ = 1;
    return post_exchange();
  }

  bool step() override {
    switch (stage_) {
      case Stage::kFoldRecv:
        internal::apply_op(op_, buf_, tmp_.data(), n_);
        newrank_ = me_ / 2;
        mask_ = 1;
        return post_exchange();
      case Stage::kExchangeRecv:
        internal::apply_op(op_, buf_, tmp_.data(), n_);
        mask_ <<= 1;
        return post_exchange();
      case Stage::kFinalRecv:
        return true;
    }
    DC_FAIL("unreachable nonblocking allreduce stage");
  }

 private:
  enum class Stage { kFoldRecv, kExchangeRecv, kFinalRecv };

  /// Post the next hypercube exchange, or unfold and finish.
  bool post_exchange() {
    if (mask_ < pof2_) {
      const int partner_new = newrank_ ^ mask_;
      const int partner =
          partner_new < rem_ ? partner_new * 2 + 1 : partner_new + rem_;
      pending_ = comm_->irecv(tmp_.data(), n_ * sizeof(T), partner, tag_);
      comm_->send(buf_, n_, partner, tag_);
      stage_ = Stage::kExchangeRecv;
      return false;
    }
    if (me_ < 2 * rem_) comm_->send(buf_, n_, me_ - 1, tag_);  // odd unfolds
    return true;
  }

  Comm* comm_;
  T* buf_;
  std::size_t n_;
  ReduceOp op_;
  int tag_;
  int me_ = 0, pof2_ = 1, rem_ = 0, newrank_ = -1, mask_ = 1;
  Stage stage_ = Stage::kFinalRecv;
  std::vector<T> tmp_;
};

/// Ring allreduce (bandwidth-optimal, large n): ring reduce-scatter over the
/// balanced block partition, owner exchange, ring allgather. Callers must
/// guarantee n >= p (internal::allreduce_uses_ring falls back to recursive
/// doubling below that).
template <typename T>
class NbAllreduceRing final : public RequestDrivenOp {
 public:
  const char* name() const override { return "iallreduce-ring"; }
  NbAllreduceRing(Comm& comm, T* buf, std::size_t n, ReduceOp op, int tag = -1)
      : comm_(&comm), buf_(buf), n_(n), op_(op),
        tag_(tag >= 0 ? tag : comm.next_internal_tag()) {
    DC_REQUIRE(n == 0 || n >= static_cast<std::size_t>(comm.size()),
               "ring allreduce needs n >= p (dispatcher bug)");
  }

 protected:
  bool begin() override {
    p_ = comm_->size();
    if (p_ == 1 || n_ == 0) return true;
    me_ = comm_->rank();
    right_ = (me_ + 1) % p_;
    left_ = (me_ - 1 + p_) % p_;
    std::size_t max_block = 0;
    for (int b = 0; b < p_; ++b) {
      const auto [s, e] = internal::block_range(n_, p_, b);
      max_block = std::max(max_block, e - s);
    }
    tmp_.resize(max_block);
    s_ = 0;
    stage_ = Stage::kReduceScatter;
    post_reduce_scatter();
    return false;
  }

  bool step() override {
    switch (stage_) {
      case Stage::kReduceScatter: {
        const int recv_block = (me_ - s_ - 1 + p_) % p_;
        const auto [rs, re] = internal::block_range(n_, p_, recv_block);
        internal::apply_op(op_, buf_ + rs, tmp_.data(), re - rs);
        if (++s_ < p_ - 1) {
          post_reduce_scatter();
          return false;
        }
        // Rank me now holds the fully reduced block (me + 1) % p; swap it
        // straight to its owner and receive my own block from my left
        // neighbour (who holds it).
        const int have = (me_ + 1) % p_;
        const auto [ms, me2] = internal::block_range(n_, p_, me_);
        const auto [hs, he] = internal::block_range(n_, p_, have);
        stage_ = Stage::kOwnerSwap;
        pending_ = comm_->irecv(buf_ + ms, (me2 - ms) * sizeof(T), left_, tag_);
        comm_->send(buf_ + hs, he - hs, have, tag_);
        return false;
      }
      case Stage::kOwnerSwap:
        s_ = 0;
        stage_ = Stage::kAllgather;
        post_allgather();
        return false;
      case Stage::kAllgather:
        if (++s_ < p_ - 1) {
          post_allgather();
          return false;
        }
        return true;
    }
    DC_FAIL("unreachable nonblocking ring stage");
  }

 private:
  enum class Stage { kReduceScatter, kOwnerSwap, kAllgather };

  void post_reduce_scatter() {
    const int send_block = (me_ - s_ + p_) % p_;
    const int recv_block = (me_ - s_ - 1 + p_) % p_;
    const auto [ss, se] = internal::block_range(n_, p_, send_block);
    const auto [rs, re] = internal::block_range(n_, p_, recv_block);
    pending_ = comm_->irecv(tmp_.data(), (re - rs) * sizeof(T), left_, tag_);
    comm_->send(buf_ + ss, se - ss, right_, tag_);
  }

  void post_allgather() {
    const int send_block = (me_ - s_ + p_) % p_;
    const int recv_block = (me_ - s_ - 1 + p_) % p_;
    const auto [ss, se] = internal::block_range(n_, p_, send_block);
    const auto [rs, re] = internal::block_range(n_, p_, recv_block);
    pending_ = comm_->irecv(buf_ + rs, (re - rs) * sizeof(T), left_, tag_);
    comm_->send(buf_ + ss, se - ss, right_, tag_);
  }

  Comm* comm_;
  T* buf_;
  std::size_t n_;
  ReduceOp op_;
  int tag_;
  int p_ = 1, me_ = 0, right_ = 0, left_ = 0, s_ = 0;
  Stage stage_ = Stage::kReduceScatter;
  std::vector<T> tmp_;
};

/// Ring allgatherv: in step s each rank forwards the block it received in
/// step s-1 (no arithmetic, so exactness is trivial).
template <typename T>
class NbAllgatherv final : public RequestDrivenOp {
 public:
  const char* name() const override { return "iallgatherv"; }
  NbAllgatherv(Comm& comm, const T* sendbuf, std::size_t n, T* recvbuf,
               std::vector<std::size_t> counts, std::vector<std::size_t> displs,
               int tag = -1)
      : comm_(&comm), sendbuf_(sendbuf), n_(n), recvbuf_(recvbuf),
        counts_(std::move(counts)), displs_(std::move(displs)),
        tag_(tag >= 0 ? tag : comm.next_internal_tag()) {}

 protected:
  bool begin() override {
    p_ = comm_->size();
    me_ = comm_->rank();
    DC_REQUIRE(counts_[me_] == n_, "allgatherv: local count mismatch");
    std::copy(sendbuf_, sendbuf_ + n_, recvbuf_ + displs_[me_]);
    if (p_ == 1) return true;
    right_ = (me_ + 1) % p_;
    left_ = (me_ - 1 + p_) % p_;
    s_ = 0;
    post_step();
    return false;
  }

  bool step() override {
    if (++s_ < p_ - 1) {
      post_step();
      return false;
    }
    return true;
  }

 private:
  void post_step() {
    const int send_block = (me_ - s_ + p_) % p_;
    const int recv_block = (me_ - s_ - 1 + p_) % p_;
    pending_ = comm_->irecv(recvbuf_ + displs_[recv_block],
                            counts_[recv_block] * sizeof(T), left_, tag_);
    comm_->send(recvbuf_ + displs_[send_block], counts_[send_block], right_,
                tag_);
  }

  Comm* comm_;
  const T* sendbuf_;
  std::size_t n_;
  T* recvbuf_;
  std::vector<std::size_t> counts_, displs_;
  int tag_;
  int p_ = 1, me_ = 0, right_ = 0, left_ = 0, s_ = 0;
};

/// Binomial-tree broadcast in shifted rank space (no arithmetic, so
/// exactness is trivial). A non-root rank blocks on exactly one receive —
/// from its tree parent — then eagerly forwards to its children; the root
/// completes inside begin(). The serving loop uses this to double-buffer the
/// next batch's input broadcast behind the current forward pass.
template <typename T>
class NbBroadcast final : public RequestDrivenOp {
 public:
  const char* name() const override { return "ibroadcast"; }
  NbBroadcast(Comm& comm, T* buf, std::size_t n, int root, int tag = -1)
      : comm_(&comm), buf_(buf), n_(n), root_(root),
        tag_(tag >= 0 ? tag : comm.next_internal_tag()) {}

 protected:
  bool begin() override {
    const int p = comm_->size();
    if (p == 1 || n_ == 0) return true;
    const int vrank = (comm_->rank() - root_ + p) % p;
    vrank_ = vrank;
    p_ = p;
    int mask = 1;
    while (mask < p) {
      if (vrank & mask) {
        const int src = ((vrank ^ mask) + root_) % p;
        recv_mask_ = mask;
        pending_ = comm_->irecv(buf_, n_ * sizeof(T), src, tag_);
        return false;
      }
      mask <<= 1;
    }
    // Root: no parent; send to children immediately (sends are eager).
    send_children(mask >> 1);
    return true;
  }

  bool step() override {
    // Parent's payload arrived; forward down the subtree and finish.
    send_children(recv_mask_ >> 1);
    return true;
  }

 private:
  void send_children(int mask) {
    for (; mask > 0; mask >>= 1) {
      if (vrank_ + mask < p_) {
        const int dst = (vrank_ + mask + root_) % p_;
        comm_->send(buf_, n_, dst, tag_);
      }
    }
  }

  Comm* comm_;
  T* buf_;
  std::size_t n_;
  int root_;
  int tag_;
  int p_ = 1, vrank_ = 0, recv_mask_ = 0;
};

/// Build the allreduce op the blocking allreduce() runs for (n, algo); see
/// internal::allreduce_uses_ring.
template <typename T>
std::unique_ptr<NbOp> make_iallreduce(Comm& comm, T* buf, std::size_t n,
                                      ReduceOp op,
                                      AllreduceAlgo algo = AllreduceAlgo::kAuto,
                                      int tag = -1) {
  if (internal::allreduce_uses_ring<T>(n, comm.size(), algo)) {
    return std::make_unique<NbAllreduceRing<T>>(comm, buf, n, op, tag);
  }
  return std::make_unique<NbAllreduceRd<T>>(comm, buf, n, op, tag);
}

/// Progress engine for nonblocking collectives. Ops are enqueued in SPMD
/// order on every rank; only the head op communicates ("one allreduce in
/// flight"), the rest wait their turn. progress() is cheap and safe to call
/// between kernels; drain() blocks until the queue is empty.
class CollectiveEngine {
 public:
  /// Take ownership of op and start it if the wire is free. Returns the op's
  /// ticket: a 1-based sequence number that drain_until() accepts — tickets
  /// are never reused, so a consumer can wait on "its" op without holding a
  /// pointer into the queue.
  std::uint64_t enqueue(std::unique_ptr<NbOp> op) {
    DC_REQUIRE(op != nullptr, "enqueue of null op");
    queue_.push_back(std::move(op));
    const std::uint64_t ticket = ++enqueued_;
    progress();
    return ticket;
  }

  /// Advance the head op (and any successors that complete immediately)
  /// without blocking. Returns true when the queue is empty.
  bool progress() {
    while (!queue_.empty()) {
      NbOp& head = *queue_.front();
      if (!head.started()) head.start();
      if (!head.progress()) return false;
      queue_.pop_front();
      ++completed_;
    }
    return true;
  }

  /// Block until every enqueued op has completed.
  void drain() { drain_until(enqueued_); }

  /// Block until the op with the given ticket (and every op ahead of it in
  /// the FIFO) has completed. No-op for already-completed tickets.
  void drain_until(std::uint64_t ticket) {
    while (completed_ < ticket && !queue_.empty()) {
      NbOp& head = *queue_.front();
      // The watchdog names the op a hung drain held; the wait counts
      // toward the op's obs category.
      OpScope scope(head.name(), head.obs_label());
      if (!head.started()) head.start();
      while (!head.progress()) head.wait_progress();
      queue_.pop_front();
      ++completed_;
    }
  }

  bool idle() const { return queue_.empty(); }
  std::size_t pending_ops() const { return queue_.size(); }
  /// Ops retired since construction (monotonic; drain_until's clock).
  std::uint64_t completed_ops() const { return completed_; }

 private:
  std::deque<std::unique_ptr<NbOp>> queue_;
  std::uint64_t enqueued_ = 0;
  std::uint64_t completed_ = 0;
};

}  // namespace distconv::comm
