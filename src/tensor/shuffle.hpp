// Shuffler: redistributes a tensor between two distributions (§III-C).
//
// When adjacent layers use different distributions (e.g. sample-parallel →
// hybrid sample/spatial, conv → model-parallel FC, or spatial → channel
// grids in the §III-D mixed strategies), data must be shuffled. Each rank
// sends the indices it owns under the source distribution that it does not
// own under the destination, via a single all-to-allv: rank p sends
// I(p)(Di) ∩ I(q)(Dj) to each q. The plan is built from 4-D box
// intersections, so every grid dimension — samples, channels, H, W —
// redistributes uniformly; channel-partitioned ↔ spatially-partitioned
// moves need no special casing.
//
// Both distributions must cover the same global shape and be laid out over
// the same communicator (every rank participates in every layer, as in the
// paper's experiments).
#pragma once

#include <memory>
#include <vector>

#include "comm/nonblocking.hpp"
#include "tensor/dist_tensor.hpp"

namespace distconv {

template <typename T>
class ShuffleOp;

template <typename T>
class Shuffler {
 public:
  Shuffler(const Distribution& src, const Distribution& dst, comm::Comm& comm)
      : src_(src), dst_(dst), comm_(&comm) {
    DC_REQUIRE(src.global_shape() == dst.global_shape(),
               "cannot shuffle between different global shapes ",
               src.global_shape().str(), " and ", dst.global_shape().str());
    DC_REQUIRE(src.grid.size() == comm.size() && dst.grid.size() == comm.size(),
               "both grids must span the whole communicator");
    const int p = comm.size();
    const int me = comm.rank();
    const Box4 my_src = src.owned_box(me);
    const Box4 my_dst = dst.owned_box(me);
    send_boxes_.resize(p);
    recv_boxes_.resize(p);
    send_counts_.assign(p, 0);
    recv_counts_.assign(p, 0);
    send_displs_.assign(p, 0);
    recv_displs_.assign(p, 0);
    std::size_t stot = 0, rtot = 0;
    for (int r = 0; r < p; ++r) {
      send_boxes_[r] = intersect_boxes(my_src, dst.owned_box(r));
      recv_boxes_[r] = intersect_boxes(src.owned_box(r), my_dst);
      send_counts_[r] = static_cast<std::size_t>(send_boxes_[r].volume());
      recv_counts_[r] = static_cast<std::size_t>(recv_boxes_[r].volume());
      send_displs_[r] = stot;
      recv_displs_[r] = rtot;
      stot += send_counts_[r];
      rtot += recv_counts_[r];
    }
    send_total_ = stot;
    recv_total_ = rtot;
  }

  /// Move owned data of `src` into the owned region of `dst`. Margins of
  /// `dst` are not refreshed (run a HaloExchange afterwards if needed).
  void run(const DistTensor<T>& src, DistTensor<T>& dst) const {
    comm::OpScope scope("shuffle");
    make_op(src, dst)->run();
  }

  /// Total elements this rank sends to other ranks (excludes the local copy);
  /// used to validate the Shuffle() cost term of the performance model.
  std::size_t remote_send_elements() const {
    std::size_t n = 0;
    for (int r = 0; r < comm_->size(); ++r) {
      if (r == comm_->rank()) continue;
      n += send_counts_[r];
    }
    return n;
  }

  /// True when source and destination distributions are identical (the
  /// shuffle degenerates to a local copy).
  bool is_identity() const { return src_ == dst_; }

  /// Build this shuffle as a progress-engine op moving src → dst. The tag is
  /// drawn here (enqueue time, SPMD order); the pairwise-exchange rounds run
  /// as the engine progresses the op, so a pre-posted shuffle overlaps the
  /// layers between its producer and its consumer. run() executes the same
  /// op inline.
  std::unique_ptr<comm::NbOp> make_op(const DistTensor<T>& src,
                                      DistTensor<T>& dst) const {
    DC_REQUIRE(src.dist() == src_ && dst.dist() == dst_,
               "tensors do not match the planned distributions");
    return std::make_unique<ShuffleOp<T>>(*this, src, dst,
                                          comm_->next_internal_tag());
  }

 private:
  friend class ShuffleOp<T>;

  Distribution src_, dst_;
  comm::Comm* comm_;
  std::vector<Box4> send_boxes_, recv_boxes_;
  std::vector<std::size_t> send_counts_, recv_counts_, send_displs_, recv_displs_;
  std::size_t send_total_ = 0, recv_total_ = 0;
};

/// The shuffle as a resumable op: the pairwise-exchange schedule of
/// comm::alltoallv (local copy, then round s exchanges with ranks me ± s),
/// one posted receive per round. Packing happens when the op starts (at the
/// engine's FIFO head); the unpack into dst happens at completion.
template <typename T>
class ShuffleOp final : public comm::RequestDrivenOp {
 public:
  ShuffleOp(const Shuffler<T>& plan, const DistTensor<T>& src,
            DistTensor<T>& dst, int tag)
      : plan_(&plan), src_(&src), dst_(&dst), tag_(tag) {
    set_obs_bytes(plan.remote_send_elements() * sizeof(T));
  }

  const char* name() const override { return "shuffle"; }

 protected:
  bool begin() override {
    const Shuffler<T>& plan = *plan_;
    const int p = plan.comm_->size();
    const int me = plan.comm_->rank();
    sendbuf_.resize(plan.send_total_);
    recvbuf_.resize(plan.recv_total_);
    for (int r = 0; r < p; ++r) {
      if (plan.send_counts_[r] == 0) continue;
      pack_box(src_->buffer(), src_->global_to_buffer(plan.send_boxes_[r]),
               sendbuf_.data() + plan.send_displs_[r]);
    }
    std::copy(sendbuf_.begin() + plan.send_displs_[me],
              sendbuf_.begin() + plan.send_displs_[me] + plan.send_counts_[me],
              recvbuf_.begin() + plan.recv_displs_[me]);
    if (p == 1) return finish();
    s_ = 1;
    post_round();
    return false;
  }

  bool step() override {
    if (++s_ < plan_->comm_->size()) {
      post_round();
      return false;
    }
    return finish();
  }

 private:
  void post_round() {
    const Shuffler<T>& plan = *plan_;
    const int p = plan.comm_->size();
    const int me = plan.comm_->rank();
    const int dst = (me + s_) % p;
    const int src = (me - s_ + p) % p;
    pending_ = plan.comm_->irecv(recvbuf_.data() + plan.recv_displs_[src],
                                 plan.recv_counts_[src] * sizeof(T), src, tag_);
    plan.comm_->send(sendbuf_.data() + plan.send_displs_[dst],
                     plan.send_counts_[dst], dst, tag_);
  }

  bool finish() {
    const Shuffler<T>& plan = *plan_;
    for (int r = 0; r < plan.comm_->size(); ++r) {
      if (plan.recv_counts_[r] == 0) continue;
      unpack_box(recvbuf_.data() + plan.recv_displs_[r],
                 dst_->global_to_buffer(plan.recv_boxes_[r]), dst_->buffer());
    }
    return true;
  }

  const Shuffler<T>* plan_;
  const DistTensor<T>* src_;
  DistTensor<T>* dst_;
  int tag_;
  int s_ = 0;
  std::vector<T> sendbuf_, recvbuf_;
};

}  // namespace distconv
