// Blocked partitions and process grids — the distribution machinery of §II-C
// and §III of the paper.
//
// Every distributed tensor dimension is partitioned in a *blocked* manner
// (the paper requires this for spatial dimensions: convolution needs
// spatially adjacent data). Partitions are balanced: the first
// (global % parts) blocks get one extra element.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/error.hpp"
#include "tensor/shape.hpp"

namespace distconv {

/// Balanced blocked partition of one dimension.
class DimPartition {
 public:
  DimPartition() = default;
  DimPartition(std::int64_t global, int parts);

  std::int64_t global() const { return global_; }
  int parts() const { return parts_; }

  std::int64_t start(int part) const;
  std::int64_t end(int part) const;  ///< exclusive
  std::int64_t size(int part) const { return end(part) - start(part); }

  /// Which part owns global index `idx`.
  int owner_of(std::int64_t idx) const;

  bool operator==(const DimPartition& o) const {
    return global_ == o.global_ && parts_ == o.parts_;
  }

 private:
  std::int64_t global_ = 1;
  int parts_ = 1;
};

/// 4D process grid over (N, C, H, W). Rank order is lexicographic
/// (n-major, then c, h, w) so sample groups are contiguous rank ranges —
/// matching the hybrid scheme of §VI-B where "samples are first partitioned
/// onto groups of GPUs, and then spatially parallelized within that group".
/// The c dimension partitions channels the same way: a conv layer on a grid
/// with c > 1 distributes x over C and y over F across the *channel group*
/// (ranks sharing (n, h, w) coordinates — contiguous by the same ordering),
/// executing the §III-D channel/filter-parallel schedule (see
/// core/layers.cpp and README "Channel/filter parallelism").
struct ProcessGrid {
  int n = 1, c = 1, h = 1, w = 1;

  int size() const { return n * c * h * w; }

  struct Coord {
    int n = 0, c = 0, h = 0, w = 0;
    bool operator==(const Coord& o) const {
      return n == o.n && c == o.c && h == o.h && w == o.w;
    }
  };

  Coord coord_of(int rank) const;
  int rank_of(const Coord& coord) const;

  bool operator==(const ProcessGrid& o) const {
    return n == o.n && c == o.c && h == o.h && w == o.w;
  }
  bool operator!=(const ProcessGrid& o) const { return !(*this == o); }

  std::string str() const {
    return internal::compose(n, "x", c, "x", h, "x", w);
  }
};

/// A distribution of an N×C×H×W tensor over a process grid: each dimension is
/// block-partitioned over the corresponding grid dimension.
struct Distribution {
  ProcessGrid grid;
  DimPartition n, c, h, w;

  static Distribution make(const Shape4& global, const ProcessGrid& grid) {
    Distribution d;
    d.grid = grid;
    d.n = DimPartition(global.n, grid.n);
    d.c = DimPartition(global.c, grid.c);
    d.h = DimPartition(global.h, grid.h);
    d.w = DimPartition(global.w, grid.w);
    return d;
  }

  Shape4 global_shape() const {
    return Shape4{n.global(), c.global(), h.global(), w.global()};
  }

  /// Local (owned) shape of the block held by `rank`.
  Shape4 local_shape(int rank) const;

  /// Owned global index box of `rank`.
  Box4 owned_box(int rank) const;

  const DimPartition& dim(int d) const {
    switch (d) {
      case 0: return n;
      case 1: return c;
      case 2: return h;
      case 3: return w;
      default: DC_FAIL("bad dimension ", d);
    }
  }

  bool operator==(const Distribution& o) const {
    return grid == o.grid && n == o.n && c == o.c && h == o.h && w == o.w;
  }
  bool operator!=(const Distribution& o) const { return !(*this == o); }
};

/// Intersection of two global-index boxes; empty extents if disjoint.
Box4 intersect_boxes(const Box4& a, const Box4& b);

/// Box covering channel slice `part` index `q` of a dense (n, C, h, w)
/// tensor: {0..n} × [part.start(q), part.end(q)) × {0..h} × {0..w}.
Box4 channel_slice_box(const DimPartition& part, int q, std::int64_t n,
                       std::int64_t h, std::int64_t w);

/// Per-slice element counts and exclusive prefix displacements of the
/// channel slices of a dense (n, C, h, w) tensor — the block layout every
/// channel-group collective uses (forward x allgather, backward dL/dy
/// allgather, weight-gradient re-replication), kept in one place so the
/// three schedules cannot drift apart.
struct SliceBlocks {
  std::vector<std::size_t> counts, displs;
  std::size_t total = 0;
};
SliceBlocks channel_slice_blocks(const DimPartition& part, std::int64_t n,
                                 std::int64_t h, std::int64_t w);

}  // namespace distconv
