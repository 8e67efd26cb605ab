// Packed GEMM (DESIGN.md §15). op(a) is packed into kMR-row panels and
// op(b) into NR-column panels, whatever their transpose form, so all four
// forms run the same kMR x NR micro-kernel over contiguous memory. The
// micro-kernel works on the 16-byte vectors of kernels/lanes.h.

#include "kernels/gemm.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <new>

#include "kernels/lanes.h"

namespace tfrepro {
namespace {

// Register block: the micro-kernel holds a kMR x NR<T> tile of c in
// registers, NR<T> being two 16-byte vectors of T (8 floats, 4 doubles).
constexpr int kMR = 4;
template <typename T>
constexpr int kNR = 2 * kLanes<T>;

// Cache blocks: each thread packs a kMC x kKC block of op(a) and a kKC x kNC
// block of op(b); 64 KiB of floats each. A 256-wide kNC ran ~15% faster
// only while each column block cost a fork-join; with one per product it
// runs perfbench's train_mlp_local 2% slower in 0.7 MB more (DESIGN.md §15).
constexpr int64_t kKC = 256;
constexpr int64_t kMC = 64;
constexpr int64_t kNC = 64;

// Smallest shard handed to another thread, in flops; a product with fewer
// than two shards runs inline on the caller. How it was measured:
// DESIGN.md §15.
constexpr int64_t kMinShardFlops = int64_t{1} << 20;

int64_t CeilDiv(int64_t x, int64_t y) { return (x + y - 1) / y; }
int64_t RoundUp(int64_t x, int64_t y) { return CeilDiv(x, y) * y; }

// A read-only view of op(x): element (r, c) is at p[r * rs + c * cs].
template <typename T>
struct View {
  const T* p;
  int64_t rs;
  int64_t cs;
  T at(int64_t r, int64_t c) const { return p[r * rs + c * cs]; }
};

// One thread's packing buffer. It grows to the largest block the thread has
// packed and is reused by every later product on that thread, so a
// steady-state MatMul allocates nothing. Blocks are at most kMC x kKC (a)
// and kKC x kNC (b) elements, which bounds it. The pages come from mmap so
// that a pool thread's exit (every session owns its pool) returns them to
// the system; from malloc they stayed resident in the allocator's arenas,
// one buffer per thread that ever multiplied.
class PackBuffer {
 public:
  PackBuffer() = default;
  PackBuffer(const PackBuffer&) = delete;
  PackBuffer& operator=(const PackBuffer&) = delete;
  ~PackBuffer() { Release(); }

  template <typename T>
  T* Get(int64_t elements) {
    const size_t bytes = static_cast<size_t>(elements) * sizeof(T);
    if (bytes > size_) {
      Release();
      void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (p == MAP_FAILED) throw std::bad_alloc();
      data_ = p;
      size_ = bytes;
    }
    return static_cast<T*>(data_);
  }

 private:
  void Release() {
    if (data_ != nullptr) munmap(data_, size_);
    data_ = nullptr;
    size_ = 0;
  }

  void* data_ = nullptr;
  size_t size_ = 0;
};

thread_local PackBuffer tls_pack_a;
thread_local PackBuffer tls_pack_b;

// Packs op(a)[i0 .. i0+mc, p0 .. p0+kc) as kMR-row panels: panel q holds
// rows i0 + q*kMR .. +kMR, one kMR-column per p; rows past mc are zero.
template <typename T>
void PackA(View<T> a, int64_t i0, int64_t mc, int64_t p0, int64_t kc, T* dst) {
  for (int64_t ir = 0; ir < mc; ir += kMR) {
    const int64_t mr = std::min<int64_t>(kMR, mc - ir);
    for (int64_t p = 0; p < kc; ++p) {
      for (int r = 0; r < kMR; ++r) {
        *dst++ = r < mr ? a.at(i0 + ir + r, p0 + p) : T{0};
      }
    }
  }
}

// Packs op(b)[p0 .. p0+kc, j0 .. j0+nc) as NR-column panels: panel q holds
// columns j0 + q*NR .. +NR, one NR-row per p; columns past nc are zero.
template <typename T>
void PackB(View<T> b, int64_t p0, int64_t kc, int64_t j0, int64_t nc, T* dst) {
  constexpr int nr_full = kNR<T>;
  for (int64_t jr = 0; jr < nc; jr += nr_full) {
    const int64_t nr = std::min<int64_t>(nr_full, nc - jr);
    if (b.cs == 1 && nr == nr_full) {  // rows of b are contiguous
      for (int64_t p = 0; p < kc; ++p) {
        std::memcpy(dst, &b.p[(p0 + p) * b.rs + j0 + jr], sizeof(T) * nr_full);
        dst += nr_full;
      }
    } else {
      for (int64_t p = 0; p < kc; ++p) {
        for (int col = 0; col < nr_full; ++col) {
          *dst++ = col < nr ? b.at(p0 + p, j0 + jr + col) : T{0};
        }
      }
    }
  }
}

// c[0..kMR, 0..NR) (row stride ldc) = (accumulate ? c : 0) + sum over
// p < kc of a-panel column p times b-panel row p, one add per p in order.
template <typename T>
void MicroKernel(int64_t kc, const T* ap, const T* bp, T* c, int64_t ldc,
                 bool accumulate) {
  using Vec = typename Simd<T>::Vec;
  constexpr int lanes = kLanes<T>;
  Vec acc[kMR][2];
#pragma GCC unroll 4
  for (int r = 0; r < kMR; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < 2; ++v) {
      if (accumulate) {
        std::memcpy(&acc[r][v], c + r * ldc + v * lanes, sizeof(Vec));
      } else {
        acc[r][v] = Vec{};
      }
    }
  }
  for (int64_t p = 0; p < kc; ++p) {
    Vec b0, b1;
    std::memcpy(&b0, bp, sizeof(Vec));
    std::memcpy(&b1, bp + lanes, sizeof(Vec));
#pragma GCC unroll 4
    for (int r = 0; r < kMR; ++r) {
      const T a = ap[r];
      acc[r][0] += a * b0;
      acc[r][1] += a * b1;
    }
    ap += kMR;
    bp += 2 * lanes;
  }
#pragma GCC unroll 4
  for (int r = 0; r < kMR; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < 2; ++v) {
      std::memcpy(c + r * ldc + v * lanes, &acc[r][v], sizeof(Vec));
    }
  }
}

// MicroKernel for a tile cut short by the edge of c (mr < kMR or nr < NR):
// runs the full tile on a local copy and writes back the valid part.
template <typename T>
void EdgeTile(int64_t kc, const T* ap, const T* bp, T* c, int64_t ldc,
              int64_t mr, int64_t nr, bool accumulate) {
  constexpr int nr_full = kNR<T>;
  T tile[kMR * nr_full] = {};
  if (accumulate) {
    for (int64_t r = 0; r < mr; ++r) {
      std::copy_n(c + r * ldc, nr, tile + r * nr_full);
    }
  }
  MicroKernel(kc, ap, bp, tile, nr_full, accumulate);
  for (int64_t r = 0; r < mr; ++r) {
    std::copy_n(tile + r * nr_full, nr, c + r * ldc);
  }
}

// Output rows [lo, hi) of the (pc, jc) block: packs their op(a) block on
// this thread and runs the micro-kernel against the packed op(b) block.
// Blocks after the first k-block resume from the partial sums in c.
template <typename T>
void MultiplyRows(View<T> a, const T* bpack, T* c, int64_t n, int64_t lo,
                  int64_t hi, int64_t pc, int64_t kc, int64_t jc,
                  int64_t nc) {
  constexpr int nr_full = kNR<T>;
  const bool accumulate = pc > 0;
  T* apack = tls_pack_a.Get<T>(RoundUp(std::min(kMC, hi - lo), kMR) * kc);
  for (int64_t ic = lo; ic < hi; ic += kMC) {
    const int64_t mc = std::min(kMC, hi - ic);
    PackA(a, ic, mc, pc, kc, apack);
    for (int64_t jr = 0; jr < nc; jr += nr_full) {
      const int64_t nr = std::min<int64_t>(nr_full, nc - jr);
      const T* bp = bpack + jr * kc;
      for (int64_t ir = 0; ir < mc; ir += kMR) {
        const int64_t mr = std::min<int64_t>(kMR, mc - ir);
        T* ct = c + (ic + ir) * n + jc + jr;
        if (mr == kMR && nr == nr_full) {
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
void Gemm(const T* a, const T* b, T* c, int64_t m, int64_t k, int64_t n,
          bool transpose_a, bool transpose_b, ThreadPool* pool) {
  if (m == 0 || n == 0) return;
  if (k == 0) {
    std::fill_n(c, m * n, T{0});
    return;
  }
  const View<T> va{a, transpose_a ? 1 : k, transpose_a ? m : 1};
  const View<T> vb{b, transpose_b ? 1 : n, transpose_b ? k : 1};
  // c as a grid of cells, each one kMR-row panel of one kNC-column block,
  // numbered column block by column block. cells(lo, hi) computes cells
  // [lo, hi): for each column block they touch, every k-block in ascending
  // order packs that op(b) block and multiplies the block's rows in range.
  const int64_t panels = CeilDiv(m, kMR);
  auto cells = [&](int64_t lo, int64_t hi) {
    for (int64_t jb = lo / panels; jb * panels < hi; ++jb) {
      const int64_t jc = jb * kNC;
      const int64_t nc = std::min(kNC, n - jc);
      const int64_t row_lo = std::max<int64_t>(0, lo - jb * panels) * kMR;
      const int64_t row_hi = std::min(m, (hi - jb * panels) * kMR);
      for (int64_t pc = 0; pc < k; pc += kKC) {
        const int64_t kc = std::min(kKC, k - pc);
        T* bpack = tls_pack_b.Get<T>(RoundUp(nc, kNR<T>) * kc);
        PackB(vb, pc, kc, jc, nc, bpack);
        MultiplyRows(va, bpack, c, n, row_lo, row_hi, pc, kc, jc, nc);
      }
    }
  };
  // One fork-join per product: shards are runs of consecutive cells, and
  // every element of c is in one shard. A shard does at least
  // kMinShardFlops, and it is kMC rows of cells or more while that still
  // leaves every thread a shard: each shard packs the op(b) blocks it
  // touches, so shorter shards repack op(b) more often (DESIGN.md §15).
  const int64_t total = panels * CeilDiv(n, kNC);
  const int64_t threads = pool != nullptr ? pool->num_threads() : 1;
  const int64_t shard_cells =
      std::max(CeilDiv(kMinShardFlops, 2 * kMR * kNC * k),
               std::min(kMC / kMR, CeilDiv(total, threads)));
  if (threads > 1 && total > shard_cells) {
    pool->ParallelFor(total, shard_cells, cells);
  } else {
    cells(0, total);
  }
}

template void Gemm<float>(const float*, const float*, float*, int64_t,
                          int64_t, int64_t, bool, bool, ThreadPool*);
template void Gemm<double>(const double*, const double*, double*, int64_t,
                           int64_t, int64_t, bool, bool, ThreadPool*);
template void Gemm<int32_t>(const int32_t*, const int32_t*, int32_t*, int64_t,
                            int64_t, int64_t, bool, bool, ThreadPool*);
template void Gemm<int64_t>(const int64_t*, const int64_t*, int64_t*, int64_t,
                            int64_t, int64_t, bool, bool, ThreadPool*);
template void Gemm<uint8_t>(const uint8_t*, const uint8_t*, uint8_t*, int64_t,
                            int64_t, int64_t, bool, bool, ThreadPool*);

}  // namespace tfrepro
