// The GEMM's packing and micro-kernel at one vector width (DESIGN.md §15).
// This file is compiled three times, with TFREPRO_GEMM_VECTOR_BYTES set to
// 16, 32 and 64, each with that width's ISA flags and -ffp-contract=off
// (src/kernels/CMakeLists.txt). op(a) is packed into kMR-row panels and
// op(b) into kNR-column panels, whatever their transpose form, so all four
// forms run the same kMR x kNR micro-kernel over contiguous memory.
//
// The wide objects hold code the baseline x86-64 cannot run, so this file
// defines nothing outside its width's namespace gemm<bytes>: it exports
// only RunCells, keeps everything else in an anonymous namespace and calls
// no library template, whose copy would be a weak symbol the linker might
// pick for every caller (scripts/check.sh checks each object).

#include <cstring>

#include "kernels/gemm_cells.h"
#include "kernels/lanes.h"

#define TFREPRO_GEMM_NAMESPACE_(bytes) gemm##bytes
#define TFREPRO_GEMM_NAMESPACE(bytes) TFREPRO_GEMM_NAMESPACE_(bytes)

namespace tfrepro {
namespace TFREPRO_GEMM_NAMESPACE(TFREPRO_GEMM_VECTOR_BYTES) {
namespace {

using gemm_internal::kKC;
using gemm_internal::kMC;
using gemm_internal::kNC;
using gemm_internal::Product;

constexpr int kBytes = TFREPRO_GEMM_VECTOR_BYTES;
template <typename T>
using Vec = typename Simd<T, kBytes>::Vec;

// Register block: the micro-kernel holds a kMR x kNR<T> tile of c in
// registers, kNV vectors of T per row.
constexpr int kMR = gemm_internal::kTileRows<kBytes>;
constexpr int kNV = gemm_internal::kTileVectors<kBytes>;
template <typename T>
constexpr int kNR = gemm_internal::kTileCols<T, kBytes>;

// A panel of op(b) is at most one column block, so each tile lies in one.
static_assert(kMC % kMR == 0);
static_assert(kNR<float> <= kNC && kNR<double> <= kNC &&
              kNR<int32_t> <= kNC && kNR<int64_t> <= kNC &&
              kNR<uint8_t> <= kNC);

int64_t Min(int64_t x, int64_t y) { return x < y ? x : y; }
int64_t Max(int64_t x, int64_t y) { return x > y ? x : y; }
int64_t CeilDiv(int64_t x, int64_t y) { return (x + y - 1) / y; }

// A read-only view of op(x): element (r, c) is at p[r * rs + c * cs].
template <typename T>
struct View {
  const T* p;
  int64_t rs;
  int64_t cs;
  T at(int64_t r, int64_t c) const { return p[r * rs + c * cs]; }
};

// Packs op(a)[i0 .. i0+mc, p0 .. p0+kc) as kMR-row panels: panel q holds
// rows i0 + q*kMR .. +kMR, one kMR-column per p; rows past mc are zero.
template <typename T>
void PackA(View<T> a, int64_t i0, int64_t mc, int64_t p0, int64_t kc, T* dst) {
  for (int64_t ir = 0; ir < mc; ir += kMR) {
    const int64_t mr = Min(kMR, mc - ir);
    for (int64_t p = 0; p < kc; ++p) {
      for (int r = 0; r < kMR; ++r) {
        *dst++ = r < mr ? a.at(i0 + ir + r, p0 + p) : T{0};
      }
    }
  }
}

// Packs op(b)[p0 .. p0+kc, j0 .. j0+nc) as kNR-column panels: panel q holds
// columns j0 + q*kNR .. +kNR, one kNR-row per p; columns past nc are zero.
template <typename T>
void PackB(View<T> b, int64_t p0, int64_t kc, int64_t j0, int64_t nc, T* dst) {
  for (int64_t jr = 0; jr < nc; jr += kNR<T>) {
    const int64_t nr = Min(kNR<T>, nc - jr);
    if (b.cs == 1 && nr == kNR<T>) {  // rows of b are contiguous
      for (int64_t p = 0; p < kc; ++p) {
        std::memcpy(dst, &b.p[(p0 + p) * b.rs + j0 + jr], sizeof(T) * kNR<T>);
        dst += kNR<T>;
      }
    } else {
      for (int64_t p = 0; p < kc; ++p) {
        for (int col = 0; col < kNR<T>; ++col) {
          *dst++ = col < nr ? b.at(p0 + p, j0 + jr + col) : T{0};
        }
      }
    }
  }
}

// c[0..kMR, 0..kNR) (row stride ldc) = (accumulate ? c : 0) + sum over
// p < kc of a-panel column p times b-panel row p, one multiply and then
// one add per p, in order. Each unroll covers its whole loop, so the tile
// stays in registers.
template <typename T>
void MicroKernel(int64_t kc, const T* ap, const T* bp, T* c, int64_t ldc,
                 bool accumulate) {
  constexpr int lanes = kLanes<T, kBytes>;
  Vec<T> acc[kMR][kNV];
#pragma GCC unroll kMR
  for (int r = 0; r < kMR; ++r) {
#pragma GCC unroll kNV
    for (int v = 0; v < kNV; ++v) {
      if (accumulate) {
        std::memcpy(&acc[r][v], c + r * ldc + v * lanes, sizeof(Vec<T>));
      } else {
        acc[r][v] = Vec<T>{};
      }
    }
  }
  for (int64_t p = 0; p < kc; ++p) {
    Vec<T> b[kNV];
#pragma GCC unroll kNV
    for (int v = 0; v < kNV; ++v) {
      std::memcpy(&b[v], bp + v * lanes, sizeof(Vec<T>));
    }
#pragma GCC unroll kMR
    for (int r = 0; r < kMR; ++r) {
      const T a = ap[r];
#pragma GCC unroll kNV
      for (int v = 0; v < kNV; ++v) acc[r][v] += a * b[v];
    }
    ap += kMR;
    bp += kNV * lanes;
  }
#pragma GCC unroll kMR
  for (int r = 0; r < kMR; ++r) {
#pragma GCC unroll kNV
    for (int v = 0; v < kNV; ++v) {
      std::memcpy(c + r * ldc + v * lanes, &acc[r][v], sizeof(Vec<T>));
    }
  }
}

// MicroKernel for a tile cut short by the edge of c (mr < kMR or
// nr < kNR): runs the full tile on a local copy and writes back the valid
// part.
template <typename T>
void EdgeTile(int64_t kc, const T* ap, const T* bp, T* c, int64_t ldc,
              int64_t mr, int64_t nr, bool accumulate) {
  T tile[kMR * kNR<T>] = {};
  if (accumulate) {
    for (int64_t r = 0; r < mr; ++r) {
      std::memcpy(tile + r * kNR<T>, c + r * ldc, sizeof(T) * nr);
    }
  }
  MicroKernel(kc, ap, bp, tile, kNR<T>, accumulate);
  for (int64_t r = 0; r < mr; ++r) {
    std::memcpy(c + r * ldc, tile + r * kNR<T>, sizeof(T) * nr);
  }
}

// Output rows [lo, hi) of the (pc, jc) block: packs their op(a) block into
// apack and runs the micro-kernel against the packed op(b) block. Blocks
// after the first k-block resume from the partial sums in c.
template <typename T>
void MultiplyRows(View<T> a, const T* bpack, T* apack, T* c, int64_t n,
                  int64_t lo, int64_t hi, int64_t pc, int64_t kc, int64_t jc,
                  int64_t nc) {
  const bool accumulate = pc > 0;
  for (int64_t ic = lo; ic < hi; ic += kMC) {
    const int64_t mc = Min(kMC, hi - ic);
    PackA(a, ic, mc, pc, kc, apack);
    for (int64_t jr = 0; jr < nc; jr += kNR<T>) {
      const int64_t nr = Min(kNR<T>, nc - jr);
      const T* bp = bpack + jr * kc;
      for (int64_t ir = 0; ir < mc; ir += kMR) {
        const int64_t mr = Min(kMR, mc - ir);
        T* ct = c + (ic + ir) * n + jc + jr;
        if (mr == kMR && nr == kNR<T>) {
          MicroKernel(kc, apack + ir * kc, bp, ct, n, accumulate);
        } else {
          EdgeTile(kc, apack + ir * kc, bp, ct, n, mr, nr, accumulate);
        }
      }
    }
  }
}

}  // namespace

template <typename T>
void RunCells(const Product<T>& p, int64_t lo, int64_t hi, T* apack,
              T* bpack) {
  const View<T> va{p.a, p.a_rs, p.a_cs};
  const View<T> vb{p.b, p.b_rs, p.b_cs};
  const int64_t panels = CeilDiv(p.m, kMR);
  for (int64_t jb = lo / panels; jb * panels < hi; ++jb) {
    const int64_t jc = jb * kNC;
    const int64_t nc = Min(kNC, p.n - jc);
    const int64_t row_lo = Max(0, lo - jb * panels) * kMR;
    const int64_t row_hi = Min(p.m, (hi - jb * panels) * kMR);
    for (int64_t pc = 0; pc < p.k; pc += kKC) {
      const int64_t kc = Min(kKC, p.k - pc);
      PackB(vb, pc, kc, jc, nc, bpack);
      MultiplyRows(va, bpack, apack, p.c, p.n, row_lo, row_hi, pc, kc, jc,
                   nc);
    }
  }
}

template void RunCells<float>(const Product<float>&, int64_t, int64_t, float*,
                              float*);
template void RunCells<double>(const Product<double>&, int64_t, int64_t,
                               double*, double*);
template void RunCells<int32_t>(const Product<int32_t>&, int64_t, int64_t,
                                int32_t*, int32_t*);
template void RunCells<int64_t>(const Product<int64_t>&, int64_t, int64_t,
                                int64_t*, int64_t*);
template void RunCells<uint8_t>(const Product<uint8_t>&, int64_t, int64_t,
                                uint8_t*, uint8_t*);

}  // namespace TFREPRO_GEMM_NAMESPACE(TFREPRO_GEMM_VECTOR_BYTES)
}  // namespace tfrepro
