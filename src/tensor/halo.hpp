// HaloExchange: refreshes the margin regions of a DistTensor from the
// neighbouring ranks' owned data — the stencil-style exchange of §III-A.
//
// The exchange is 8-directional (N/S/E/W edges plus the four corners, as in
// Fig. 1b of the paper); all sends/receives are posted up front so the whole
// exchange proceeds concurrently and can be overlapped with interior
// computation via the start()/finish() split (§IV-A).
//
// Two modes:
//   kReplace — forward direction: margins are overwritten with neighbour
//     data (used before convolution/pooling reads).
//   kSum     — reverse direction: each rank sends its margin contents back to
//     the owning rank, which *accumulates* them into its owned edge (used for
//     scatter-style gradient flows).
#pragma once

#include <vector>

#include "comm/comm.hpp"
#include "comm/nonblocking.hpp"
#include "tensor/dist_tensor.hpp"

namespace distconv {

enum class HaloOp { kReplace, kSum };

namespace internal {

/// Direction index for (dh, dw) in {-1,0,1}², excluding (0,0).
inline int dir_index(int dh, int dw) { return (dh + 1) * 3 + (dw + 1); }
inline int opposite_dir_index(int dh, int dw) { return dir_index(-dh, -dw); }

}  // namespace internal

template <typename T>
class HaloExchange {
 public:
  explicit HaloExchange(DistTensor<T>* tensor) : t_(tensor) {
    DC_REQUIRE(t_ != nullptr, "HaloExchange requires a tensor");
    build_plan();
  }

  /// Post all receives and sends. Interior computation may run between
  /// start() and finish(). `tag_base` lets a caller that defers start() (the
  /// progress engine starts ops only at the head of its FIFO) allocate the
  /// tag at enqueue time, preserving the SPMD tag order; -1 allocates here.
  void start(HaloOp op = HaloOp::kReplace, int tag_base = -1) {
    DC_REQUIRE(!in_flight_, "halo exchange already in flight");
    op_ = op;
    in_flight_ = true;
    auto& comm = t_->comm();
    if (tag_base < 0) tag_base = comm.next_internal_tag();

    const auto& outgoing = (op == HaloOp::kReplace) ? sends_ : recvs_;
    const auto& incoming = (op == HaloOp::kReplace) ? recvs_ : sends_;

    // Post receives first so eager sends land directly in user buffers.
    recv_bufs_.resize(incoming.size());
    reqs_.clear();
    for (std::size_t i = 0; i < incoming.size(); ++i) {
      const auto& tr = incoming[i];
      recv_bufs_[i].resize(static_cast<std::size_t>(tr.box.volume()));
      reqs_.push_back(comm.irecv(recv_bufs_[i].data(),
                                 recv_bufs_[i].size() * sizeof(T), tr.peer,
                                 tag_base + tr.recv_tag_off));
    }
    send_bufs_.resize(outgoing.size());
    for (std::size_t i = 0; i < outgoing.size(); ++i) {
      const auto& tr = outgoing[i];
      send_bufs_[i].resize(static_cast<std::size_t>(tr.box.volume()));
      pack_box(t_->buffer(), t_->global_to_buffer(tr.box), send_bufs_[i].data());
      comm.send(send_bufs_[i].data(), send_bufs_[i].size(), tr.peer,
                tag_base + tr.send_tag_off);
    }
  }

  /// Wait for all transfers and unpack into margins (kReplace) or accumulate
  /// into the owned edge (kSum).
  void finish() {
    DC_REQUIRE(in_flight_, "finish() without start()");
    comm::OpScope scope("halo-exchange");
    for (auto& r : reqs_) r.wait();
    unpack_received();
  }

  /// Nonblocking finish: true (and unpacked) when every transfer has
  /// completed, false otherwise. Lets the progress engine drive the
  /// exchange: all sends are eager and all receives are posted by start(),
  /// so the only deferred work is this completion test plus the unpack.
  bool try_finish() {
    DC_REQUIRE(in_flight_, "try_finish() without start()");
    for (auto& r : reqs_) {
      if (!r.test()) return false;
    }
    unpack_received();
    return true;
  }

  /// Block until every posted transfer is complete (without unpacking);
  /// the progress engine's blocking-wait primitive for an in-flight op.
  void wait_transfers() {
    comm::OpScope scope("halo-exchange");
    for (auto& r : reqs_) r.wait();
  }

  void exchange(HaloOp op = HaloOp::kReplace) {
    start(op);
    finish();
  }

  /// Two-phase variant (kReplace only): exchange north/south edges first,
  /// then east/west columns over the *full* local height including the
  /// just-received H margins — corner data rides along, eliminating the four
  /// diagonal messages (4 messages instead of 8 on an interior rank). The
  /// classic stencil trade-off: fewer, larger messages, but the phases
  /// serialize, so this variant cannot overlap with interior compute.
  void exchange_two_phase() {
    DC_REQUIRE(!in_flight_, "halo exchange already in flight");
    if (two_phase_w_sends_.empty() && two_phase_w_recvs_.empty() &&
        !two_phase_built_) {
      build_two_phase_plan();
    }
    auto& comm = t_->comm();
    // Phase 1: H-direction edges (no corners).
    run_blocking_phase(comm, phase_h_sends_, phase_h_recvs_);
    // Phase 2: W-direction columns spanning owned rows + H margins.
    run_blocking_phase(comm, two_phase_w_sends_, two_phase_w_recvs_);
  }

  /// Total payload bytes this rank sends per kReplace exchange (for
  /// validating the analytic communication model).
  std::size_t send_bytes_per_exchange() const {
    std::size_t bytes = 0;
    for (const auto& tr : sends_) bytes += static_cast<std::size_t>(tr.box.volume()) * sizeof(T);
    return bytes;
  }

  /// Number of neighbours this rank exchanges with.
  int num_send_transfers() const { return static_cast<int>(sends_.size()); }
  int num_recv_transfers() const { return static_cast<int>(recvs_.size()); }

 private:
  struct Transfer {
    int peer = -1;          ///< comm rank of the neighbour
    Box4 box;               ///< global-coordinate box transferred
    int send_tag_off = 0;   ///< sub-tag when this side originates the message
    int recv_tag_off = 0;   ///< sub-tag the originator used (opposite dir)
  };

  /// Unpack every completed receive and retire the in-flight exchange.
  void unpack_received() {
    const auto& incoming = (op_ == HaloOp::kReplace) ? recvs_ : sends_;
    for (std::size_t i = 0; i < incoming.size(); ++i) {
      const Box4 local = t_->global_to_buffer(incoming[i].box);
      if (op_ == HaloOp::kReplace) {
        unpack_box(recv_bufs_[i].data(), local, t_->buffer());
      } else {
        unpack_box_accumulate(recv_bufs_[i].data(), local, t_->buffer());
      }
    }
    in_flight_ = false;
  }

  /// Blocking pairwise phase used by the two-phase variant.
  void run_blocking_phase(comm::Comm& comm, const std::vector<Transfer>& sends,
                          const std::vector<Transfer>& recvs) {
    const int tag_base = comm.next_internal_tag();
    std::vector<std::vector<T>> rbufs(recvs.size());
    std::vector<comm::Request> reqs;
    for (std::size_t i = 0; i < recvs.size(); ++i) {
      rbufs[i].resize(static_cast<std::size_t>(recvs[i].box.volume()));
      reqs.push_back(comm.irecv(rbufs[i].data(), rbufs[i].size() * sizeof(T),
                                recvs[i].peer, tag_base + recvs[i].recv_tag_off));
    }
    std::vector<T> sbuf;
    for (const auto& tr : sends) {
      sbuf.resize(static_cast<std::size_t>(tr.box.volume()));
      pack_box(t_->buffer(), t_->global_to_buffer(tr.box), sbuf.data());
      comm.send(sbuf.data(), sbuf.size(), tr.peer, tag_base + tr.send_tag_off);
    }
    for (auto& r : reqs) r.wait();
    for (std::size_t i = 0; i < recvs.size(); ++i) {
      unpack_box(rbufs[i].data(), t_->global_to_buffer(recvs[i].box),
                 t_->buffer());
    }
  }

  void build_two_phase_plan() {
    two_phase_built_ = true;
    // Phase 1 reuses the H-edge transfers of the 8-direction plan.
    for (const auto& tr : sends_) {
      const Box4& owned = cached_owned_;
      if (tr.box.off[3] == owned.off[3] && tr.box.ext[3] == owned.ext[3]) {
        phase_h_sends_.push_back(tr);
      }
    }
    for (const auto& tr : recvs_) {
      const Box4& owned = cached_owned_;
      if (tr.box.off[3] == owned.off[3] && tr.box.ext[3] == owned.ext[3]) {
        phase_h_recvs_.push_back(tr);
      }
    }
    // Phase 2: W-direction transfers extended over owned rows + H margins.
    // Both w-neighbours share our row partition coordinate, so the extended
    // row range is identical on both sides.
    const auto& grid = t_->grid();
    const auto coord = t_->coord();
    const auto& hp = t_->dist().h;
    const auto& wp = t_->dist().w;
    const auto& mh = t_->margins_h();
    const auto& mw = t_->margins_w();
    const std::int64_t H = hp.global(), W = wp.global();
    const std::int64_t hs = hp.start(coord.h), he = hp.end(coord.h);
    const std::int64_t ws = wp.start(coord.w), we = wp.end(coord.w);
    const std::int64_t row_lo = std::max<std::int64_t>(0, hs - mh.lo[coord.h]);
    const std::int64_t row_hi = std::min<std::int64_t>(H, he + mh.hi[coord.h]);
    for (int dw = -1; dw <= 1; dw += 2) {
      const int nw = coord.w + dw;
      if (nw < 0 || nw >= grid.w) continue;
      ProcessGrid::Coord ncoord = coord;
      ncoord.w = nw;
      const int peer = grid.rank_of(ncoord);
      const Box4 owned = cached_owned_;
      // Receive: my W margin columns over the extended rows.
      {
        const std::int64_t c0 =
            dw < 0 ? std::max<std::int64_t>(0, ws - mw.lo[coord.w]) : we;
        const std::int64_t c1 =
            dw < 0 ? ws : std::min<std::int64_t>(W, we + mw.hi[coord.w]);
        if (c1 > c0) {
          Transfer tr;
          tr.peer = peer;
          tr.box = owned;
          tr.box.off[2] = row_lo;
          tr.box.ext[2] = row_hi - row_lo;
          tr.box.off[3] = c0;
          tr.box.ext[3] = c1 - c0;
          tr.send_tag_off = internal::dir_index(0, dw);
          tr.recv_tag_off = internal::opposite_dir_index(0, dw);
          two_phase_w_recvs_.push_back(tr);
        }
      }
      // Send: the neighbour's W margin columns (inside my owned cols) over
      // the extended rows.
      {
        const std::int64_t c0 =
            dw < 0 ? ws : std::max<std::int64_t>(0, wp.start(nw) - mw.lo[nw]);
        const std::int64_t c1 =
            dw < 0 ? std::min<std::int64_t>(W, wp.end(nw) + mw.hi[nw]) : we;
        if (c1 > c0) {
          Transfer tr;
          tr.peer = peer;
          tr.box = owned;
          tr.box.off[2] = row_lo;
          tr.box.ext[2] = row_hi - row_lo;
          tr.box.off[3] = c0;
          tr.box.ext[3] = c1 - c0;
          tr.send_tag_off = internal::dir_index(0, dw);
          tr.recv_tag_off = internal::opposite_dir_index(0, dw);
          two_phase_w_sends_.push_back(tr);
        }
      }
    }
  }

  // [start, end) ranges of data I *receive* in a margin direction.
  struct Range {
    std::int64_t lo = 0, hi = 0;
    std::int64_t size() const { return hi - lo; }
  };

  void build_plan() {
    const auto& grid = t_->grid();
    const auto coord = t_->coord();
    const auto& dh_part = t_->dist().h;
    const auto& dw_part = t_->dist().w;
    const auto& mh = t_->margins_h();
    const auto& mw = t_->margins_w();
    const std::int64_t H = dh_part.global();
    const std::int64_t W = dw_part.global();

    const std::int64_t hs = dh_part.start(coord.h), he = dh_part.end(coord.h);
    const std::int64_t ws = dw_part.start(coord.w), we = dw_part.end(coord.w);

    auto recv_range_h = [&](int dh) -> Range {
      if (dh < 0) return {std::max<std::int64_t>(0, hs - mh.lo[coord.h]), hs};
      if (dh > 0) return {he, std::min<std::int64_t>(H, he + mh.hi[coord.h])};
      return {hs, he};
    };
    auto recv_range_w = [&](int dw) -> Range {
      if (dw < 0) return {std::max<std::int64_t>(0, ws - mw.lo[coord.w]), ws};
      if (dw > 0) return {we, std::min<std::int64_t>(W, we + mw.hi[coord.w])};
      return {ws, we};
    };
    // What the neighbour in direction (dh, dw) receives from me.
    auto send_range_h = [&](int dh) -> Range {
      if (dh < 0) {
        // Lower neighbour's high margin overlaps my low rows.
        const std::int64_t m = mh.hi[coord.h + dh];
        return {hs, std::min<std::int64_t>(H, dh_part.end(coord.h + dh) + m)};
      }
      if (dh > 0) {
        const std::int64_t m = mh.lo[coord.h + dh];
        return {std::max<std::int64_t>(0, dh_part.start(coord.h + dh) - m), he};
      }
      return {hs, he};
    };
    auto send_range_w = [&](int dw) -> Range {
      if (dw < 0) {
        const std::int64_t m = mw.hi[coord.w + dw];
        return {ws, std::min<std::int64_t>(W, dw_part.end(coord.w + dw) + m)};
      }
      if (dw > 0) {
        const std::int64_t m = mw.lo[coord.w + dw];
        return {std::max<std::int64_t>(0, dw_part.start(coord.w + dw) - m), we};
      }
      return {ws, we};
    };

    const Box4 owned = t_->owned_box();
    cached_owned_ = owned;
    for (int dh = -1; dh <= 1; ++dh) {
      for (int dw = -1; dw <= 1; ++dw) {
        if (dh == 0 && dw == 0) continue;
        const int nh = coord.h + dh, nw = coord.w + dw;
        if (nh < 0 || nh >= grid.h || nw < 0 || nw >= grid.w) continue;
        ProcessGrid::Coord ncoord = coord;
        ncoord.h = nh;
        ncoord.w = nw;
        const int peer = grid.rank_of(ncoord);

        // Receive: my margin region in this direction, owned by the peer.
        {
          const Range rh = recv_range_h(dh), rw = recv_range_w(dw);
          if (rh.size() > 0 && rw.size() > 0) {
            DC_REQUIRE(rh.lo >= dh_part.start(nh) || dh == 0,
                       "H margin exceeds neighbour block: partition too fine "
                       "for the stencil (see §III-A edge case)");
            DC_REQUIRE(rw.lo >= dw_part.start(nw) || dw == 0,
                       "W margin exceeds neighbour block: partition too fine "
                       "for the stencil (see §III-A edge case)");
            Box4 box;
            box.off[0] = owned.off[0];
            box.ext[0] = owned.ext[0];
            box.off[1] = owned.off[1];
            box.ext[1] = owned.ext[1];
            box.off[2] = rh.lo;
            box.ext[2] = rh.size();
            box.off[3] = rw.lo;
            box.ext[3] = rw.size();
            Transfer tr;
            tr.peer = peer;
            tr.box = box;
            tr.send_tag_off = internal::dir_index(dh, dw);
            tr.recv_tag_off = internal::opposite_dir_index(dh, dw);
            recvs_.push_back(tr);
          }
        }
        // Send: the peer's margin region in the opposite direction, owned by
        // me.
        {
          const Range sh = send_range_h(dh), sw = send_range_w(dw);
          if (sh.size() > 0 && sw.size() > 0) {
            DC_REQUIRE(sh.lo >= hs && sh.hi <= he,
                       "neighbour's H margin exceeds my block: partition too "
                       "fine for the stencil");
            DC_REQUIRE(sw.lo >= ws && sw.hi <= we,
                       "neighbour's W margin exceeds my block: partition too "
                       "fine for the stencil");
            Box4 box;
            box.off[0] = owned.off[0];
            box.ext[0] = owned.ext[0];
            box.off[1] = owned.off[1];
            box.ext[1] = owned.ext[1];
            box.off[2] = sh.lo;
            box.ext[2] = sh.size();
            box.off[3] = sw.lo;
            box.ext[3] = sw.size();
            Transfer tr;
            tr.peer = peer;
            tr.box = box;
            tr.send_tag_off = internal::dir_index(dh, dw);
            tr.recv_tag_off = internal::opposite_dir_index(dh, dw);
            sends_.push_back(tr);
          }
        }
      }
    }
  }

  DistTensor<T>* t_;
  HaloOp op_ = HaloOp::kReplace;
  bool in_flight_ = false;
  std::vector<Transfer> sends_, recvs_;
  std::vector<std::vector<T>> send_bufs_, recv_bufs_;
  std::vector<comm::Request> reqs_;
  // Two-phase variant state (built lazily).
  bool two_phase_built_ = false;
  Box4 cached_owned_;
  std::vector<Transfer> phase_h_sends_, phase_h_recvs_;
  std::vector<Transfer> two_phase_w_sends_, two_phase_w_recvs_;
};

/// A halo exchange as a progress-engine op: the tag is drawn at construction
/// (enqueue time, SPMD order), the wire work starts when the op reaches the
/// engine's FIFO head, and the margin unpack happens in the owner's progress
/// or drain call that observes completion. Same transfers and the same
/// unpack as exchange(), hence bitwise-identical margins.
template <typename T>
class HaloRefreshOp final : public comm::NbOp {
 public:
  explicit HaloRefreshOp(HaloExchange<T>& halo, HaloOp op, comm::Comm& comm)
      : halo_(&halo), hop_(op), tag_base_(comm.next_internal_tag()) {
    set_obs_bytes(halo.send_bytes_per_exchange());
  }

  const char* name() const override { return "halo-refresh"; }

 protected:
  bool begin() override {
    halo_->start(hop_, tag_base_);
    return halo_->try_finish();
  }
  bool advance() override { return halo_->try_finish(); }
  void block() override { halo_->wait_transfers(); }

 private:
  HaloExchange<T>* halo_;
  HaloOp hop_;
  int tag_base_;
};

}  // namespace distconv
