// Register-tiled SGEMM.
//
// Structure (BLIS-style, scalar C++ left to the auto-vectorizer):
//
//   * the output is cut into fixed MC×NC tiles; each tile is an independent
//     task on the intra-rank pool (parallel_for over the tile grid);
//   * per tile, the k dimension is walked in KC blocks; op(A) and op(B)
//     sub-panels are packed into contiguous MR-/NR-strips (transposed
//     operands are handled by the packing gather — no materialized
//     transposed matrices), with alpha folded into the A panel;
//   * a 6×16 register-tile micro-kernel accumulates each strip pair.
//
// Determinism: the tile grid and KC blocking are compile-time constants, so
// every C element sees the same ascending-k accumulation chain regardless
// of the thread budget or of how the caller splits the n range (edge tiles
// are zero-padded to full micro-tiles rather than taking a different code
// path). That keeps results bit-identical across DC_NUM_THREADS settings
// and across the interior/boundary range splits of the halo-overlap path.
//
// sgemm_indirect runs the same micro-kernel on index-addressed operands: A
// is never packed (each step broadcast-loads its kMr elements straight from
// the source through per-row and per-step offsets), B is packed once per
// chunk of k and shared by every task, and each task accumulates its C tile
// in a contiguous buffer that is loaded and stored once per chunk. The k
// dimension is a sequence of caller-defined accumulation chains, each cut
// into kKc blocks from its start — so every C element sees the additions
// sgemm would make for one call per chain.
#include "kernels/gemm.hpp"

#include <algorithm>
#include <vector>

#include "support/intmath.hpp"
#include "support/parallel.hpp"

namespace distconv::kernels {
namespace {

constexpr std::int64_t kMr = 6;    ///< micro-tile rows (register accumulators)
constexpr std::int64_t kMc = 96;   ///< rows per task tile (multiple of kMr)
constexpr std::int64_t kNr = 16;   ///< micro-tile cols (two AVX2 vectors)
constexpr std::int64_t kNc = 192;  ///< cols per task tile (multiple of kNr)
constexpr std::int64_t kKc = 256;  ///< k-block length (fixed => fixed chains)

/// op(A)[i, kk] for the packing gather.
inline float a_elem(const float* a, std::int64_t lda, bool trans, std::int64_t i,
                    std::int64_t kk) {
  return trans ? a[kk * lda + i] : a[i * lda + kk];
}

/// op(B)[kk, j] for the packing gather.
inline float b_elem(const float* b, std::int64_t ldb, bool trans, std::int64_t kk,
                    std::int64_t j) {
  return trans ? b[j * ldb + kk] : b[kk * ldb + j];
}

/// Pack op(A)[i0:i1, p0:p1] (alpha folded in) into kMr-row strips laid out
/// [strip][kk][kMr]; rows past i1 are zero so edge strips run the full
/// micro-kernel unchanged.
void pack_a(const float* a, std::int64_t lda, bool trans, float alpha,
            std::int64_t i0, std::int64_t i1, std::int64_t p0, std::int64_t p1,
            float* ap) {
  const std::int64_t kc = p1 - p0;
  for (std::int64_t s0 = i0; s0 < i1; s0 += kMr) {
    for (std::int64_t kk = p0; kk < p1; ++kk) {
      float* dst = ap + (s0 - i0) * kc + (kk - p0) * kMr;
      for (std::int64_t r = 0; r < kMr; ++r) {
        const std::int64_t i = s0 + r;
        dst[r] = i < i1 ? alpha * a_elem(a, lda, trans, i, kk) : 0.0f;
      }
    }
  }
}

/// Pack op(B)[p0:p1, j0:j1] into kNr-column strips laid out
/// [strip][kk][kNr]; columns past j1 are zero.
void pack_b(const float* b, std::int64_t ldb, bool trans, std::int64_t p0,
            std::int64_t p1, std::int64_t j0, std::int64_t j1, float* bp) {
  const std::int64_t kc = p1 - p0;
  for (std::int64_t t0 = j0; t0 < j1; t0 += kNr) {
    float* dst = bp + (t0 - j0) * kc;
    if (!trans && t0 + kNr <= j1) {
      for (std::int64_t kk = p0; kk < p1; ++kk, dst += kNr) {
        const float* src = b + kk * ldb + t0;
        for (std::int64_t c = 0; c < kNr; ++c) dst[c] = src[c];
      }
    } else {
      for (std::int64_t kk = p0; kk < p1; ++kk, dst += kNr) {
        for (std::int64_t c = 0; c < kNr; ++c) {
          const std::int64_t j = t0 + c;
          dst[c] = j < j1 ? b_elem(b, ldb, trans, kk, j) : 0.0f;
        }
      }
    }
  }
}

/// The A operand of one micro-tile: element (r, kk) of its kMr rows.
/// Packed panels come from pack_a; gathered rows read the source buffer
/// directly, so the indirect GEMM shares the micro-kernel unchanged.
struct PackedRows {
  const float* ap;  ///< [kk][kMr] strip
  float operator()(std::int64_t kk, std::int64_t r) const { return ap[kk * kMr + r]; }
};
struct GatheredRows {
  const float* row[kMr];  ///< base of each row (edge rows repeat the last)
  const std::int64_t* k;  ///< per-step offsets
  float operator()(std::int64_t kk, std::int64_t r) const { return row[r][k[kk]]; }
};

/// acc[kMr][kNr] = A-strip · Bp-strip over kc steps — the register tile.
/// GCC/Clang vector extensions pin the 6×16 accumulator into 12 8-wide
/// vector registers (broadcast-FMA per k step); the scalar fallback keeps
/// the identical per-element ascending-k chain for other compilers.
#if defined(__GNUC__) || defined(__clang__)
typedef float vf8 __attribute__((vector_size(32), aligned(4)));

template <class Rows>
inline void micro_kernel(std::int64_t kc, const Rows& a, const float* __restrict bp,
                         float (*acc)[kNr]) {
  static_assert(kMr == 6 && kNr == 16, "micro-kernel is specialized to 6x16");
  vf8 r0a{}, r0b{}, r1a{}, r1b{}, r2a{}, r2b{};
  vf8 r3a{}, r3b{}, r4a{}, r4b{}, r5a{}, r5b{};
  for (std::int64_t kk = 0; kk < kc; ++kk) {
    const vf8 b0 = *reinterpret_cast<const vf8*>(bp + kk * kNr);
    const vf8 b1 = *reinterpret_cast<const vf8*>(bp + kk * kNr + 8);
    const float a0 = a(kk, 0), a1 = a(kk, 1), a2 = a(kk, 2);
    const float a3 = a(kk, 3), a4 = a(kk, 4), a5 = a(kk, 5);
    r0a += a0 * b0; r0b += a0 * b1;
    r1a += a1 * b0; r1b += a1 * b1;
    r2a += a2 * b0; r2b += a2 * b1;
    r3a += a3 * b0; r3b += a3 * b1;
    r4a += a4 * b0; r4b += a4 * b1;
    r5a += a5 * b0; r5b += a5 * b1;
  }
  vf8* out = reinterpret_cast<vf8*>(acc);
  out[0] = r0a; out[1] = r0b; out[2] = r1a; out[3] = r1b;
  out[4] = r2a; out[5] = r2b; out[6] = r3a; out[7] = r3b;
  out[8] = r4a; out[9] = r4b; out[10] = r5a; out[11] = r5b;
}
#else
template <class Rows>
inline void micro_kernel(std::int64_t kc, const Rows& a, const float* __restrict bp,
                         float (*acc)[kNr]) {
  for (std::int64_t r = 0; r < kMr; ++r) {
    for (std::int64_t c = 0; c < kNr; ++c) acc[r][c] = 0.0f;
  }
  for (std::int64_t kk = 0; kk < kc; ++kk) {
    const float* brow = bp + kk * kNr;
    for (std::int64_t r = 0; r < kMr; ++r) {
      const float av = a(kk, r);
      for (std::int64_t c = 0; c < kNr; ++c) acc[r][c] += av * brow[c];
    }
  }
}
#endif

/// Per-thread packing scratch, reused across tasks.
struct PackScratch {
  std::vector<float> ap, bp;
};
PackScratch& scratch() {
  thread_local PackScratch s;
  return s;
}

/// Compute one MC×NC output tile: C[i0:i1, j0:j1] += alpha·op(A)·op(B).
void compute_tile(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
                  const float* a, std::int64_t lda, bool trans_a, const float* b,
                  std::int64_t ldb, bool trans_b, float* c, std::int64_t ldc,
                  std::int64_t i0, std::int64_t j0) {
  const std::int64_t i1 = std::min(m, i0 + kMc);
  const std::int64_t j1 = std::min(n, j0 + kNc);
  const std::int64_t mstrips = ceil_div(i1 - i0, kMr);
  const std::int64_t nstrips = ceil_div(j1 - j0, kNr);
  PackScratch& s = scratch();
  s.ap.resize(static_cast<std::size_t>(mstrips) * kMr * kKc);
  s.bp.resize(static_cast<std::size_t>(nstrips) * kNr * kKc);
  for (std::int64_t p0 = 0; p0 < k; p0 += kKc) {
    const std::int64_t p1 = std::min(k, p0 + kKc);
    const std::int64_t kc = p1 - p0;
    pack_a(a, lda, trans_a, alpha, i0, i1, p0, p1, s.ap.data());
    pack_b(b, ldb, trans_b, p0, p1, j0, j1, s.bp.data());
    for (std::int64_t si = 0; si < mstrips; ++si) {
      const float* ap = s.ap.data() + si * kMr * kc;
      const std::int64_t rows = std::min(kMr, i1 - i0 - si * kMr);
      for (std::int64_t sj = 0; sj < nstrips; ++sj) {
        const float* bp = s.bp.data() + sj * kNr * kc;
        const std::int64_t cols = std::min(kNr, j1 - j0 - sj * kNr);
        alignas(32) float acc[kMr][kNr];
        micro_kernel(kc, PackedRows{ap}, bp, acc);
        float* cbase = c + (i0 + si * kMr) * ldc + j0 + sj * kNr;
        for (std::int64_t r = 0; r < rows; ++r) {
          for (std::int64_t col = 0; col < cols; ++col) {
            cbase[r * ldc + col] += acc[r][col];
          }
        }
      }
    }
  }
}

/// Packed B of one indirect chunk: B[k0:k1, 0:n] as kNr-column strips
/// laid out [strip][kk - k0][kNr]; columns past n are zero.
void pack_b_indirect(const IndirectGemm& g, std::int64_t k0, std::int64_t k1,
                     float* bp) {
  const std::int64_t kc = k1 - k0;
  const std::int64_t nstrips = ceil_div(g.n, kNr);
  parallel::parallel_for(k0, k1, 64, [&](std::int64_t q0, std::int64_t q1) {
    for (std::int64_t t = 0; t < nstrips; ++t) {
      for (std::int64_t kk = q0; kk < q1; ++kk) {
        const float* src = g.b + g.b_k[kk];
        float* dst = bp + (t * kc + kk - k0) * kNr;
        for (std::int64_t c = 0; c < kNr; ++c) {
          const std::int64_t j = t * kNr + c;
          dst[c] = j < g.n ? src[j * g.b_col] : 0.0f;
        }
      }
    }
  });
}

/// One [p0, p1) block of an accumulation chain.
struct KBlock {
  std::int64_t p0, p1;
};

/// One indirect task tile, rows [i0, i1) × strips [t0, t1), over the blocks
/// of one packed chunk starting at k0. The tile accumulates in a contiguous
/// micro-tile-ordered buffer — loaded from C (or zeroed) once and stored
/// once per chunk — so short blocks do not pay a strided C update each.
void indirect_tile(const IndirectGemm& g, const KBlock* blocks,
                   std::int64_t nblocks, std::int64_t k0, std::int64_t kchunk,
                   const float* bpack, std::int64_t i0, std::int64_t i1,
                   std::int64_t t0, std::int64_t t1, bool load_c) {
  constexpr std::int64_t kTile = kMr * kNr;
  const std::int64_t mstrips = ceil_div(i1 - i0, kMr);
  const std::int64_t nst = t1 - t0;
  PackScratch& s = scratch();
  s.ap.resize(static_cast<std::size_t>(mstrips * nst * kTile));
  float* tiles = s.ap.data();
  auto for_each_elem = [&](auto&& fn) {
    for (std::int64_t si = 0; si < mstrips; ++si) {
      const std::int64_t rows = std::min(kMr, i1 - i0 - si * kMr);
      for (std::int64_t sj = 0; sj < nst; ++sj) {
        const std::int64_t j0 = (t0 + sj) * kNr;
        const std::int64_t cols = std::min(kNr, g.n - j0);
        float* tile = tiles + (si * nst + sj) * kTile;
        for (std::int64_t r = 0; r < rows; ++r) {
          const std::int64_t crow = g.c_row[i0 + si * kMr + r];
          for (std::int64_t c = 0; c < cols; ++c) {
            fn(tile[r * kNr + c], g.c[crow + (j0 + c) * g.c_col]);
          }
        }
      }
    }
  };
  if (load_c) {
    for_each_elem([](float& t, float& c) { t = c; });
  } else {
    std::fill(tiles, tiles + mstrips * nst * kTile, 0.0f);
  }
  for (std::int64_t q = 0; q < nblocks; ++q) {
    const std::int64_t kc = blocks[q].p1 - blocks[q].p0;
    for (std::int64_t si = 0; si < mstrips; ++si) {
      GatheredRows rows;
      rows.k = g.a_k + blocks[q].p0;
      for (std::int64_t r = 0; r < kMr; ++r) {
        rows.row[r] = g.a + g.a_row[std::min(i1 - 1, i0 + si * kMr + r)];
      }
      for (std::int64_t sj = 0; sj < nst; ++sj) {
        const float* bp = bpack + ((t0 + sj) * kchunk + blocks[q].p0 - k0) * kNr;
        alignas(32) float acc[kMr][kNr];
        micro_kernel(kc, rows, bp, acc);
        float* tile = tiles + (si * nst + sj) * kTile;
        const float* sum = &acc[0][0];
        for (std::int64_t e = 0; e < kTile; ++e) tile[e] += sum[e];
      }
    }
  }
  for_each_elem([](float& t, float& c) { c = t; });
}

/// Packed-B budget of one indirect chunk (floats, ~2 MiB): bounds the
/// shared panel buffer however long k is.
constexpr std::int64_t kPackElems = 1 << 19;

}  // namespace

void sgemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
           std::int64_t k, float alpha, const float* a, std::int64_t lda,
           const float* b, std::int64_t ldb, float beta, float* c,
           std::int64_t ldc) {
  // Scale C by beta first (no 0-skips: 0·NaN must stay NaN).
  if (beta != 1.0f) {
    parallel::parallel_for(0, m, 16, [&](std::int64_t r0, std::int64_t r1) {
      for (std::int64_t i = r0; i < r1; ++i) {
        float* crow = c + i * ldc;
        if (beta == 0.0f) {
          std::fill(crow, crow + n, 0.0f);
        } else {
          for (std::int64_t j = 0; j < n; ++j) crow[j] *= beta;
        }
      }
    });
  }
  if (m == 0 || n == 0 || k == 0 || alpha == 0.0f) return;

  const std::int64_t mtiles = ceil_div(m, kMc);
  const std::int64_t ntiles = ceil_div(n, kNc);
  parallel::parallel_for(0, mtiles * ntiles, 1, [&](std::int64_t t0, std::int64_t t1) {
    for (std::int64_t t = t0; t < t1; ++t) {
      const std::int64_t i0 = (t / ntiles) * kMc;
      const std::int64_t j0 = (t % ntiles) * kNc;
      compute_tile(m, n, k, alpha, a, lda, trans_a, b, ldb, trans_b, c, ldc, i0,
                   j0);
    }
  });
}

void sgemm_indirect(const IndirectGemm& g,
                    const std::vector<std::int64_t>& chain_end, bool accumulate) {
  if (g.m == 0 || g.n == 0) return;
  std::vector<KBlock> blocks;
  std::int64_t start = 0;
  for (const std::int64_t end : chain_end) {
    for (std::int64_t p0 = start; p0 < end; p0 += kKc) {
      blocks.push_back({p0, std::min(end, p0 + kKc)});
    }
    start = end;
  }
  const std::int64_t nstrips = ceil_div(g.n, kNr);
  const std::int64_t nc_strips = kNc / kNr;
  const std::int64_t ntiles = ceil_div(nstrips, nc_strips);
  // Enough tasks to occupy the pool; the tile grid never enters an
  // element's accumulation chain, so it may follow the thread budget.
  const std::int64_t want = ceil_div(2 * parallel::num_threads(), ntiles);
  const std::int64_t mc =
      std::clamp(ceil_div(ceil_div(g.m, want), kMr) * kMr, kMr, kMc);
  const std::int64_t mtiles = ceil_div(g.m, mc);
  std::vector<float> bpack;
  bool load_c = accumulate;
  std::size_t b0 = 0;
  do {
    // Chunk: the longest run of whole blocks whose packed B fits the
    // budget (at least one block; none at all when k is empty).
    std::size_t b1 = b0;
    while (b1 < blocks.size() &&
           (b1 == b0 ||
            (blocks[b1].p1 - blocks[b0].p0) * nstrips * kNr <= kPackElems)) {
      ++b1;
    }
    const std::int64_t k0 = b1 > b0 ? blocks[b0].p0 : 0;
    const std::int64_t k1 = b1 > b0 ? blocks[b1 - 1].p1 : 0;
    bpack.resize(static_cast<std::size_t>((k1 - k0) * nstrips * kNr));
    pack_b_indirect(g, k0, k1, bpack.data());
    const KBlock* chunk = blocks.data() + b0;
    const auto nchunk = static_cast<std::int64_t>(b1 - b0);
    parallel::parallel_for(0, mtiles * ntiles, 1, [&](std::int64_t q0, std::int64_t q1) {
      for (std::int64_t q = q0; q < q1; ++q) {
        const std::int64_t i0 = (q / ntiles) * mc;
        const std::int64_t t0 = (q % ntiles) * nc_strips;
        indirect_tile(g, chunk, nchunk, k0, k1 - k0, bpack.data(), i0,
                      std::min(g.m, i0 + mc), t0,
                      std::min(nstrips, t0 + nc_strips), load_c);
      }
    });
    load_c = true;
    b0 = b1;
  } while (b0 < blocks.size());
}

}  // namespace distconv::kernels
