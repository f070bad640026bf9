// Blocking collective operations built purely on point-to-point messaging.
// broadcast, allgatherv and allreduce build the matching resumable op of
// comm/nonblocking.hpp and run it inline, so the engine-driven and the
// blocking form of each are one implementation.
//
// The algorithms follow Thakur, Rabenseifner & Gropp, "Optimization of
// Collective Communication Operations in MPICH" (IJHPCA 2005) — the same
// reference the paper's performance model uses — so the implemented
// collectives and the analytic cost formulas in src/perf describe the same
// algorithms:
//   * broadcast: binomial tree
//   * reduce: binomial tree
//   * allgather / allgatherv: ring
//   * allreduce: recursive doubling (latency-optimal, small n) or
//     ring reduce-scatter + ring allgather (bandwidth-optimal, large n)
//   * alltoallv: pairwise exchange
//   * barrier: dissemination
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "comm/comm.hpp"
#include "comm/nonblocking.hpp"
#include "comm/types.hpp"
#include "obs/attribution.hpp"
#include "support/error.hpp"

namespace distconv::comm {

namespace internal {

/// Rounds of a binomial/dissemination pattern over p ranks (for the
/// observability span args; matches the α terms in perf/comm_model).
inline int log2_rounds(int p) {
  int r = 0;
  while ((1 << r) < p) ++r;
  return r;
}

}  // namespace internal

inline void barrier(Comm& comm) {
  OpScope scope("barrier");
  const int p = comm.size();
  static const obs::CollCounters& cc = obs::coll_counters("barrier");
  obs::CollectiveScope ocs(cc, 0, internal::log2_rounds(p));
  const int tag = comm.next_internal_tag();
  // Distinct send/recv bytes: sendrecv aliasing one buffer races the
  // remote's delivery read against the local receive completion write.
  const char snd = 0;
  char rcv = 0;
  for (int k = 1; k < p; k <<= 1) {
    const int dst = (comm.rank() + k) % p;
    const int src = (comm.rank() - k + p) % p;
    comm.sendrecv(&snd, 1, dst, tag, &rcv, 1, src, tag);
  }
}

template <typename T>
void broadcast(Comm& comm, T* buf, std::size_t n, int root) {
  OpScope scope("broadcast");
  const int p = comm.size();
  static const obs::CollCounters& cc = obs::coll_counters("broadcast");
  obs::CollectiveScope ocs(cc, n * sizeof(T), internal::log2_rounds(p));
  NbBroadcast<T>(comm, buf, n, root).run();
}

template <typename T>
void reduce(Comm& comm, T* buf, std::size_t n, ReduceOp op, int root) {
  OpScope scope("reduce");
  const int p = comm.size();
  static const obs::CollCounters& cc = obs::coll_counters("reduce");
  obs::CollectiveScope ocs(cc, n * sizeof(T), internal::log2_rounds(p));
  if (p == 1) return;
  const int tag = comm.next_internal_tag();
  const int vrank = (comm.rank() - root + p) % p;
  std::vector<T> tmp(n);
  int mask = 1;
  while (mask < p) {
    if ((vrank & mask) == 0) {
      const int vsrc = vrank | mask;
      if (vsrc < p) {
        const int src = (vsrc + root) % p;
        comm.recv(tmp.data(), n, src, tag);
        internal::apply_op(op, buf, tmp.data(), n);
      }
    } else {
      const int dst = ((vrank & ~mask) + root) % p;
      comm.send(buf, n, dst, tag);
      break;
    }
    mask <<= 1;
  }
}

/// Allgather with equal contribution sizes; recvbuf holds p * n elements.
template <typename T>
void allgather(Comm& comm, const T* sendbuf, std::size_t n, T* recvbuf) {
  OpScope scope("allgather");
  const int p = comm.size();
  static const obs::CollCounters& cc = obs::coll_counters("allgather");
  obs::CollectiveScope ocs(cc, static_cast<std::uint64_t>(p) * n * sizeof(T),
                           p - 1);
  const int me = comm.rank();
  std::copy(sendbuf, sendbuf + n, recvbuf + static_cast<std::size_t>(me) * n);
  if (p == 1) return;
  const int tag = comm.next_internal_tag();
  // Ring: in step s, forward the block received in step s-1.
  const int right = (me + 1) % p;
  const int left = (me - 1 + p) % p;
  for (int s = 0; s < p - 1; ++s) {
    const int send_block = (me - s + p) % p;
    const int recv_block = (me - s - 1 + p) % p;
    comm.sendrecv(recvbuf + static_cast<std::size_t>(send_block) * n, n * sizeof(T),
                  right, tag, recvbuf + static_cast<std::size_t>(recv_block) * n,
                  n * sizeof(T), left, tag);
  }
}

/// Allgather with per-rank element counts. displs are element offsets into
/// recvbuf; recvbuf must hold sum(counts) elements.
template <typename T>
void allgatherv(Comm& comm, const T* sendbuf, std::size_t n, T* recvbuf,
                const std::vector<std::size_t>& counts,
                const std::vector<std::size_t>& displs) {
  OpScope scope("allgatherv");
  const int p = comm.size();
  std::uint64_t total = 0;
  for (const std::size_t c : counts) total += c;
  static const obs::CollCounters& cc = obs::coll_counters("allgatherv");
  obs::CollectiveScope ocs(cc, total * sizeof(T), p - 1);
  NbAllgatherv<T>(comm, sendbuf, n, recvbuf, counts, displs).run();
}

/// Allreduce by recursive doubling (latency-optimal, small n) or ring
/// reduce-scatter + ring allgather (bandwidth-optimal, large n); kAuto picks
/// by kAllreduceRingThresholdBytes (see internal::allreduce_uses_ring).
template <typename T>
void allreduce(Comm& comm, T* buf, std::size_t n, ReduceOp op,
               AllreduceAlgo algo = AllreduceAlgo::kAuto) {
  const int p = comm.size();
  if (internal::allreduce_uses_ring<T>(n, p, algo)) {
    OpScope scope("allreduce-ring");
    static const obs::CollCounters& cc = obs::coll_counters("allreduce-ring");
    obs::CollectiveScope ocs(cc, n * sizeof(T), 2 * (p - 1));
    NbAllreduceRing<T>(comm, buf, n, op).run();
  } else {
    OpScope scope("allreduce-rd");
    static const obs::CollCounters& cc = obs::coll_counters("allreduce-rd");
    obs::CollectiveScope ocs(cc, n * sizeof(T), internal::log2_rounds(p));
    NbAllreduceRd<T>(comm, buf, n, op).run();
  }
}

/// All-to-all with per-destination counts/displacements (elements).
/// Pairwise-exchange algorithm: p-1 rounds plus the local copy.
template <typename T>
void alltoallv(Comm& comm, const T* sendbuf, const std::vector<std::size_t>& sendcounts,
               const std::vector<std::size_t>& senddispls, T* recvbuf,
               const std::vector<std::size_t>& recvcounts,
               const std::vector<std::size_t>& recvdispls) {
  OpScope scope("alltoallv");
  const int p = comm.size();
  std::uint64_t obs_total = 0;
  for (const std::size_t c : sendcounts) obs_total += c;
  static const obs::CollCounters& cc = obs::coll_counters("alltoallv");
  obs::CollectiveScope ocs(cc, obs_total * sizeof(T), p - 1);
  const int me = comm.rank();
  DC_REQUIRE(static_cast<int>(sendcounts.size()) == p &&
                 static_cast<int>(recvcounts.size()) == p,
             "alltoallv: counts must have one entry per rank");
  std::copy(sendbuf + senddispls[me], sendbuf + senddispls[me] + sendcounts[me],
            recvbuf + recvdispls[me]);
  if (p == 1) return;
  const int tag = comm.next_internal_tag();
  for (int s = 1; s < p; ++s) {
    const int dst = (me + s) % p;
    const int src = (me - s + p) % p;
    comm.sendrecv(sendbuf + senddispls[dst], sendcounts[dst] * sizeof(T), dst, tag,
                  recvbuf + recvdispls[src], recvcounts[src] * sizeof(T), src, tag);
  }
}

/// Gather variable-size contributions to `root`. Only root's recv arguments
/// are used.
template <typename T>
void gatherv(Comm& comm, const T* sendbuf, std::size_t n, T* recvbuf,
             const std::vector<std::size_t>& counts,
             const std::vector<std::size_t>& displs, int root) {
  OpScope scope("gatherv");
  const int p = comm.size();
  static const obs::CollCounters& cc = obs::coll_counters("gatherv");
  obs::CollectiveScope ocs(cc, n * sizeof(T), p - 1);
  const int me = comm.rank();
  const int tag = comm.next_internal_tag();
  if (me == root) {
    DC_REQUIRE(counts[me] == n, "gatherv: local count mismatch");
    std::copy(sendbuf, sendbuf + n, recvbuf + displs[me]);
    for (int r = 0; r < p; ++r) {
      if (r == root) continue;
      comm.recv(recvbuf + displs[r], counts[r], r, tag);
    }
  } else {
    comm.send(sendbuf, n, root, tag);
  }
}

/// Scatter variable-size blocks from `root`. Only root's send arguments are
/// used.
template <typename T>
void scatterv(Comm& comm, const T* sendbuf, const std::vector<std::size_t>& counts,
              const std::vector<std::size_t>& displs, T* recvbuf, std::size_t n,
              int root) {
  OpScope scope("scatterv");
  const int p = comm.size();
  static const obs::CollCounters& cc = obs::coll_counters("scatterv");
  obs::CollectiveScope ocs(cc, n * sizeof(T), p - 1);
  const int me = comm.rank();
  const int tag = comm.next_internal_tag();
  if (me == root) {
    DC_REQUIRE(counts[me] == n, "scatterv: local count mismatch");
    for (int r = 0; r < p; ++r) {
      if (r == root) continue;
      comm.send(sendbuf + displs[r], counts[r], r, tag);
    }
    std::copy(sendbuf + displs[me], sendbuf + displs[me] + n, recvbuf);
  } else {
    comm.recv(recvbuf, n, root, tag);
  }
}

}  // namespace distconv::comm
