// Analytic costs for the communication patterns the algorithms use:
// point-to-point halo transfers (α + βn), allreduce via the Thakur et al.
// models (recursive doubling vs. ring — the same algorithms implemented in
// comm/collectives.hpp), and the all-to-all shuffle of §III-C.
#pragma once

#include <algorithm>
#include <cmath>

#include "perf/machine.hpp"

namespace distconv::perf {

class CommModel {
 public:
  explicit CommModel(const MachineModel& machine) : m_(machine) {}

  const MachineModel& machine() const { return m_; }

  /// SR(n): send+receive `bytes` with one neighbour over the given link.
  /// Full-duplex assumption: concurrent send/recv costs one traversal.
  double sendrecv(double bytes, bool inter_node) const {
    return (inter_node ? m_.inter : m_.intra).time(bytes);
  }

  /// Recursive-doubling allreduce: ⌈lg p⌉ (α + nβ + nγ).
  double recursive_doubling_allreduce(int p, double bytes) const {
    if (p <= 1) return 0.0;
    const double steps = std::ceil(std::log2(double(p)));
    const LinkModel& link = effective_link(p);
    const double gamma = bytes / 4.0 / m_.reduce_flops;
    return steps * (link.alpha + link.beta * bytes + gamma);
  }

  /// Ring allreduce: 2(p−1)α_hop + 2((p−1)/p)nβ + ((p−1)/p)nγ. Rings are
  /// chunk-pipelined (NCCL/Aluminum), so the per-hop latency is far below a
  /// full message α.
  double ring_allreduce(int p, double bytes) const {
    if (p <= 1) return 0.0;
    const LinkModel& link = effective_link(p);
    const double frac = double(p - 1) / p;
    const double gamma = frac * bytes / 4.0 / m_.reduce_flops;
    return 2.0 * (p - 1) * m_.ring_hop_latency + 2.0 * frac * bytes * link.beta +
           gamma;
  }

  /// Hierarchical allreduce: reduce within each node over NVLink, then ring
  /// across nodes at the aggregate per-node bandwidth, then broadcast within
  /// nodes (how Aluminum/NCCL treat fat nodes).
  double hierarchical_allreduce(int p, double bytes) const {
    const int gpn = m_.gpus_per_node;
    if (p <= gpn) return ring_allreduce(p, bytes);
    const int nodes = (p + gpn - 1) / gpn;
    const double intra = ring_allreduce(gpn, bytes);
    const double frac = double(nodes - 1) / nodes;
    const double inter = 2.0 * (nodes - 1) * m_.ring_hop_latency +
                         2.0 * frac * bytes / m_.node_collective_bandwidth;
    return intra + inter;
  }

  /// AR(p, n): the library picks the best algorithm per message size/span.
  double allreduce(int p, double bytes) const {
    if (p <= 1) return 0.0;
    return std::min({recursive_doubling_allreduce(p, bytes),
                     ring_allreduce(p, bytes),
                     hierarchical_allreduce(p, bytes)});
  }

  /// Shuffle(Di, Dj) per §III-C: pairwise all-to-all of `bytes_per_rank`
  /// total payload leaving each rank (≈ local tensor size when the
  /// distributions are disjoint).
  double alltoall(int p, double bytes_per_rank) const {
    if (p <= 1) return 0.0;
    const LinkModel& link = effective_link(p);
    return (p - 1) * link.alpha + bytes_per_rank * link.beta;
  }

 private:
  /// Collectives spanning more than one node are inter-node-dominated.
  const LinkModel& effective_link(int p) const {
    return p > m_.gpus_per_node ? m_.inter : m_.intra;
  }

  MachineModel m_;
};

}  // namespace distconv::perf
