// Winograd F(2×2, 3×3) forward convolution (region kernel).
//
// Per 2×2 output tile the 4×4 input patch d is transformed (Bᵀ d B), the
// filter once per layer (G g Gᵀ), the contraction over channels runs as 16
// independent (F×C)·(C×tiles) GEMMs — one per transformed coordinate — and
// the inverse transform (Aᵀ m A) recovers the tile. 16 multiplies feed 36
// direct-convolution multiplies' worth of output, so compute drops ~2.25×
// while the tiled GEMM still does the heavy lifting.
//
//   Bᵀ = [[1,0,-1,0],[0,1,1,0],[0,-1,1,0],[0,1,0,-1]]
//   G  = [[1,0,0],[1/2,1/2,1/2],[1/2,-1/2,1/2],[0,0,1]]
//   Aᵀ = [[1,1,1,0],[0,1,-1,-1]]
//
// Exactness: tolerance-mode only. The transforms regroup the 3×3 stencil
// arithmetically, so outputs differ from direct/im2col in the last ulps —
// kAuto never picks this family; it runs only when asked for explicitly
// (ConvAlgo::kWinograd or DC_CONV_ALGO=winograd).
//
// Edges: tile grids round the range up to even extents. Out-of-buffer input
// reads zero-fill and out-of-range outputs are dropped; the algebra confines
// a phantom input row/column (patch index 3) to the phantom output row/
// column (tile index 1), so garbage in unvisited margin cells can only reach
// outputs that are discarded anyway.

#include <algorithm>
#include <vector>

#include "kernels/conv.hpp"
#include "kernels/gemm.hpp"
#include "support/error.hpp"
#include "support/intmath.hpp"
#include "support/parallel.hpp"

namespace distconv::kernels {
namespace {

/// Tile budget per strip: bounds the 16×max(C,F)×tiles transform buffers to
/// roughly the same footprint as the im2col lowering strips (~2 MiB each).
constexpr std::int64_t kWinogradStripElems = 1 << 19;

}  // namespace

void conv2d_forward_winograd(const Tensor<float>& x, Origin2 xo,
                             const Tensor<float>& w, Tensor<float>& y,
                             Origin2 yo, const ConvParams& p, const Range2& r) {
  DC_REQUIRE(p.kh == 3 && p.kw == 3 && p.sh == 1 && p.sw == 1,
             "winograd F(2x2,3x3) requires a 3x3 stride-1 layer");
  if (r.empty()) return;
  const std::int64_t N = y.shape().n;
  const std::int64_t F = w.shape().n;
  const std::int64_t C = w.shape().c;
  const auto& xs = x.shape();
  const auto& xst = x.strides();
  const auto& yst = y.strides();
  const std::int64_t th = ceil_div(r.h1 - r.h0, std::int64_t{2});
  const std::int64_t tw = ceil_div(r.w1 - r.w0, std::int64_t{2});

  // U[ξ] (F × C): filter transform, computed once per call (cheap next to
  // the tile work: F·C·9 input floats).
  std::vector<float> U(static_cast<std::size_t>(16) * F * C);
  parallel::parallel_for_2d(F, C, 16, [&](std::int64_t f, std::int64_t c) {
    float tmp[4][3];  // G·g
    for (int j = 0; j < 3; ++j) {
      const float g0 = w(f, c, 0, j), g1 = w(f, c, 1, j), g2 = w(f, c, 2, j);
      tmp[0][j] = g0;
      tmp[1][j] = 0.5f * (g0 + g1 + g2);
      tmp[2][j] = 0.5f * (g0 - g1 + g2);
      tmp[3][j] = g2;
    }
    for (int i = 0; i < 4; ++i) {  // (G·g)·Gᵀ
      const float t0 = tmp[i][0], t1 = tmp[i][1], t2 = tmp[i][2];
      float* u = U.data() + (static_cast<std::size_t>(i) * 4) * F * C + f * C + c;
      const std::size_t xi_stride = static_cast<std::size_t>(F) * C;
      u[0 * xi_stride] = t0;
      u[1 * xi_stride] = 0.5f * (t0 + t1 + t2);
      u[2 * xi_stride] = 0.5f * (t0 - t1 + t2);
      u[3 * xi_stride] = t2;
    }
  });

  // Strip the tile rows so V/M stay bounded.
  const std::int64_t big = std::max(C, F);
  const std::int64_t rows_per_strip = std::max<std::int64_t>(
      1, kWinogradStripElems / std::max<std::int64_t>(1, 16 * big * tw));
  std::vector<float> V, M;
  for (std::int64_t k = 0; k < N; ++k) {
    for (std::int64_t tr0 = 0; tr0 < th; tr0 += rows_per_strip) {
      const std::int64_t tr1 = std::min(th, tr0 + rows_per_strip);
      const std::int64_t T = (tr1 - tr0) * tw;
      V.resize(static_cast<std::size_t>(16) * C * T);
      M.resize(static_cast<std::size_t>(16) * F * T);

      // Input transform: V[ξ] (C × T) = per-tile Bᵀ d B, channels parallel.
      parallel::parallel_for(0, C, 1, [&](std::int64_t c0, std::int64_t c1) {
        for (std::int64_t c = c0; c < c1; ++c) {
          for (std::int64_t tr = tr0; tr < tr1; ++tr) {
            for (std::int64_t tc = 0; tc < tw; ++tc) {
              const std::int64_t t = (tr - tr0) * tw + tc;
              // Buffer coordinates of the patch's top-left element.
              const std::int64_t bh = r.h0 + 2 * tr - p.ph - xo.h;
              const std::int64_t bw = r.w0 + 2 * tc - p.pw - xo.w;
              float d[4][4];
              if (bh >= 0 && bh + 4 <= xs.h && bw >= 0 && bw + 4 <= xs.w) {
                const float* src = x.data() + xst.offset(k, c, bh, bw);
                for (int i = 0; i < 4; ++i) {
                  for (int j = 0; j < 4; ++j) d[i][j] = src[j];
                  src += xst.h;
                }
              } else {
                for (int i = 0; i < 4; ++i) {
                  for (int j = 0; j < 4; ++j) {
                    const std::int64_t ih = bh + i, iw = bw + j;
                    d[i][j] = (ih >= 0 && ih < xs.h && iw >= 0 && iw < xs.w)
                                  ? x.data()[xst.offset(k, c, ih, iw)]
                                  : 0.0f;
                  }
                }
              }
              float z[4][4];  // Bᵀ·d
              for (int j = 0; j < 4; ++j) {
                z[0][j] = d[0][j] - d[2][j];
                z[1][j] = d[1][j] + d[2][j];
                z[2][j] = d[2][j] - d[1][j];
                z[3][j] = d[1][j] - d[3][j];
              }
              float* v = V.data() + c * T + t;
              const std::size_t xi_stride = static_cast<std::size_t>(C) * T;
              for (int i = 0; i < 4; ++i) {  // (Bᵀ·d)·B
                v[(i * 4 + 0) * xi_stride] = z[i][0] - z[i][2];
                v[(i * 4 + 1) * xi_stride] = z[i][1] + z[i][2];
                v[(i * 4 + 2) * xi_stride] = z[i][2] - z[i][1];
                v[(i * 4 + 3) * xi_stride] = z[i][1] - z[i][3];
              }
            }
          }
        }
      });

      // Contraction: M[ξ] (F × T) = U[ξ] (F × C) · V[ξ] (C × T).
      for (int xi = 0; xi < 16; ++xi) {
        sgemm(false, false, F, T, C, 1.0f,
              U.data() + static_cast<std::size_t>(xi) * F * C, C,
              V.data() + static_cast<std::size_t>(xi) * C * T, T, 0.0f,
              M.data() + static_cast<std::size_t>(xi) * F * T, T);
      }

      // Inverse transform: per tile Aᵀ m A, filters parallel; clip outputs
      // to the range (phantom rows/cols of edge tiles are dropped).
      parallel::parallel_for(0, F, 1, [&](std::int64_t f0, std::int64_t f1) {
        for (std::int64_t f = f0; f < f1; ++f) {
          const std::size_t xi_stride = static_cast<std::size_t>(F) * T;
          for (std::int64_t tr = tr0; tr < tr1; ++tr) {
            for (std::int64_t tc = 0; tc < tw; ++tc) {
              const std::int64_t t = (tr - tr0) * tw + tc;
              const float* m = M.data() + f * T + t;
              float s[2][4];  // Aᵀ·m
              for (int j = 0; j < 4; ++j) {
                const float m0 = m[(0 * 4 + j) * xi_stride];
                const float m1 = m[(1 * 4 + j) * xi_stride];
                const float m2 = m[(2 * 4 + j) * xi_stride];
                const float m3 = m[(3 * 4 + j) * xi_stride];
                s[0][j] = m0 + m1 + m2;
                s[1][j] = m1 - m2 - m3;
              }
              const std::int64_t gh0 = r.h0 + 2 * tr;
              const std::int64_t gw0 = r.w0 + 2 * tc;
              for (int i = 0; i < 2; ++i) {
                if (gh0 + i >= r.h1) break;
                float o[2];
                o[0] = s[i][0] + s[i][1] + s[i][2];
                o[1] = s[i][1] - s[i][2] - s[i][3];
                float* yrow =
                    y.data() + yst.offset(k, f, gh0 + i - yo.h, gw0 - yo.w);
                yrow[0] = o[0];
                if (gw0 + 1 < r.w1) yrow[1] = o[1];
              }
            }
          }
        }
      });
    }
  }
}

}  // namespace distconv::kernels
