// What the GEMM's driver (gemm.cc) and its width objects share (DESIGN.md
// §15). gemm_cells.cc is compiled once per vector width, 16, 32 and 64
// bytes, into namespace gemm16, gemm32 or gemm64, each with that width's
// ISA flags and -ffp-contract=off. The driver keeps the width choice, the
// split across threads and the packing buffers; a width object only runs
// cells. This header therefore holds declarations, constants and plain
// data, and no inline function: one compiled into a wide object would be
// a weak symbol the linker could hand to every caller in the program.

#ifndef TFREPRO_KERNELS_GEMM_CELLS_H_
#define TFREPRO_KERNELS_GEMM_CELLS_H_

#include <cstdint>

#include "kernels/lanes.h"

namespace tfrepro {
namespace gemm_internal {

// Register tile of the width-`Bytes` micro-kernel: kTileRows<Bytes> rows
// of c by kTileVectors<Bytes> vectors, kTileCols<T, Bytes> elements of T.
// 16 and 32 bytes hold 4 x 2 vectors; 64 bytes holds 8 x 1, as wide as
// 32 bytes' tile, so 16-column products still fill whole tiles.
template <int Bytes>
constexpr int kTileRows = Bytes == 64 ? 8 : 4;
template <int Bytes>
constexpr int kTileVectors = Bytes == 64 ? 1 : 2;
template <typename T, int Bytes>
constexpr int kTileCols = kTileVectors<Bytes> * kLanes<T, Bytes>;

// Cache blocks: a shard packs kMC x kKC blocks of op(a) and kKC x kNC
// blocks of op(b); 64 KiB of floats each. A 256-wide kNC ran ~15% faster
// only while each column block cost a fork-join; with one per product it
// runs perfbench's train_mlp_local 2% slower in 0.7 MB more (DESIGN.md §15).
constexpr int64_t kKC = 256;
constexpr int64_t kMC = 64;
constexpr int64_t kNC = 64;

// c[m,n] = op(a) * op(b), with op(a)[i,p] at a[i * a_rs + p * a_cs] and
// op(b)[p,j] at b[p * b_rs + j * b_cs].
template <typename T>
struct Product {
  const T* a;
  int64_t a_rs, a_cs;
  const T* b;
  int64_t b_rs, b_cs;
  T* c;
  int64_t m, k, n;
};

}  // namespace gemm_internal

// Computes cells [lo, hi) of p at one width. c is a grid of cells, each
// one kTileRows-row panel of one kNC-column block, numbered column block
// by column block. For each column block the cells touch, every k-block in
// ascending order packs that op(b) block into bpack and multiplies the
// block's rows in range, packing them into apack. apack holds at least
// RoundUp(min(kMC, m), kTileRows) x min(kKC, k) elements and bpack
// RoundUp(min(kNC, n), kTileCols) x min(kKC, k).
namespace gemm16 {
template <typename T>
void RunCells(const gemm_internal::Product<T>& p, int64_t lo, int64_t hi,
              T* apack, T* bpack);
}  // namespace gemm16
namespace gemm32 {
template <typename T>
void RunCells(const gemm_internal::Product<T>& p, int64_t lo, int64_t hi,
              T* apack, T* bpack);
}  // namespace gemm32
namespace gemm64 {
template <typename T>
void RunCells(const gemm_internal::Product<T>& p, int64_t lo, int64_t hi,
              T* apack, T* bpack);
}  // namespace gemm64

}  // namespace tfrepro

#endif  // TFREPRO_KERNELS_GEMM_CELLS_H_
