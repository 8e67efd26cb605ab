// Packed GEMM (DESIGN.md §15): the driver. It picks the vector width once
// per process, splits c into shards of cells across the pool in one
// ParallelFor and hands each shard its thread's packing buffers. The
// packing and the micro-kernel are in gemm_cells.cc, compiled once per
// width; this file is built for the baseline x86-64 like the rest of the
// program.

#include "kernels/gemm.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstddef>
#include <new>

#include "core/metrics.h"
#include "kernels/gemm_cells.h"

namespace tfrepro {
namespace {

using gemm_internal::kKC;
using gemm_internal::kMC;
using gemm_internal::kNC;
using gemm_internal::kTileCols;
using gemm_internal::kTileRows;
using gemm_internal::Product;

// Smallest shard handed to another thread, in flops; a product with fewer
// than two shards runs inline on the caller. How it was measured:
// DESIGN.md §15.
constexpr int64_t kMinShardFlops = int64_t{1} << 20;

int64_t CeilDiv(int64_t x, int64_t y) { return (x + y - 1) / y; }
int64_t RoundUp(int64_t x, int64_t y) { return CeilDiv(x, y) * y; }

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

// One width's cell runner for T and the tile its cells are cut to.
template <typename T>
struct Width {
  int64_t rows;  // rows of c in one cell
  int64_t cols;  // columns of one packed op(b) panel
  void (*run_cells)(const Product<T>&, int64_t, int64_t, T*, T*);
};

template <typename T>
Width<T> WidthOf(int bytes) {
  switch (bytes) {
    case 64:
      return {kTileRows<64>, kTileCols<T, 64>, &gemm64::RunCells<T>};
    case 32:
      return {kTileRows<32>, kTileCols<T, 32>, &gemm32::RunCells<T>};
    default:
      return {kTileRows<16>, kTileCols<T, 16>, &gemm16::RunCells<T>};
  }
}

// The widest width this CPU runs, picked on first use and reported as the
// gauge kernels.gemm_vector_bytes.
int ProcessVectorBytes() {
  static const int bytes = [] {
    int widest = 0;
    for (int b : gemm_internal::kGemmVectorBytes) {
      if (gemm_internal::HostRunsGemmVectorBytes(b)) widest = b;
    }
    metrics::Registry::Global()
        ->GetGauge("kernels.gemm_vector_bytes")
        ->Set(widest);
    return widest;
  }();
  return bytes;
}

}  // namespace

namespace gemm_internal {

// 32 bytes needs AVX2 for its integer lanes, 64 bytes AVX-512F. The
// answer also requires the OS to save the registers.
bool HostRunsGemmVectorBytes(int bytes) {
  __builtin_cpu_init();
  switch (bytes) {
    case 16:
      return true;
    case 32:
      return __builtin_cpu_supports("avx2");
    case 64:
      return __builtin_cpu_supports("avx512f");
    default:
      return false;
  }
}

template <typename T>
void GemmAtVectorBytes(int bytes, const T* a, const T* b, T* c, int64_t m,
                       int64_t k, int64_t n, bool transpose_a,
                       bool transpose_b, ThreadPool* pool) {
  if (m == 0 || n == 0) return;
  if (k == 0) {
    std::fill_n(c, m * n, T{0});
    return;
  }
  const Width<T> width = WidthOf<T>(bytes);
  const Product<T> product{a, transpose_a ? 1 : k, transpose_a ? m : 1,
                           b, transpose_b ? 1 : n, transpose_b ? k : 1,
                           c, m, k, n};
  // A shard packs at most kMC rows of op(a) and one column block of op(b)
  // at a time, at most kKC deep.
  const int64_t kc = std::min(kKC, k);
  const int64_t a_elements = RoundUp(std::min(kMC, m), width.rows) * kc;
  const int64_t b_elements = RoundUp(std::min(kNC, n), width.cols) * kc;
  auto cells = [&](int64_t lo, int64_t hi) {
    width.run_cells(product, lo, hi, tls_pack_a.Get<T>(a_elements),
                    tls_pack_b.Get<T>(b_elements));
  };
  // One fork-join per product: shards are runs of consecutive cells (one
  // tile-high panel of one column block each, gemm_cells.h), and every
  // element of c is in one shard. A shard does at least kMinShardFlops,
  // and it is kMC rows of cells or more while that still leaves every
  // thread a shard: each shard packs the op(b) blocks it touches, so
  // shorter shards repack op(b) more often (DESIGN.md §15).
  const int64_t total = CeilDiv(m, width.rows) * CeilDiv(n, kNC);
  const int64_t threads = pool != nullptr ? pool->num_threads() : 1;
  const int64_t shard_cells =
      std::max(CeilDiv(kMinShardFlops, 2 * width.rows * kNC * k),
               std::min(kMC / width.rows, CeilDiv(total, threads)));
  if (threads > 1 && total > shard_cells) {
    pool->ParallelFor(total, shard_cells, cells);
  } else {
    cells(0, total);
  }
}

}  // namespace gemm_internal

template <typename T>
void Gemm(const T* a, const T* b, T* c, int64_t m, int64_t k, int64_t n,
          bool transpose_a, bool transpose_b, ThreadPool* pool) {
  gemm_internal::GemmAtVectorBytes(ProcessVectorBytes(), a, b, c, m, k, n,
                                   transpose_a, transpose_b, pool);
}

#define TFREPRO_INSTANTIATE_GEMM(T)                                          \
  template void Gemm<T>(const T*, const T*, T*, int64_t, int64_t, int64_t,   \
                        bool, bool, ThreadPool*);                            \
  template void gemm_internal::GemmAtVectorBytes<T>(                         \
      int, const T*, const T*, T*, int64_t, int64_t, int64_t, bool, bool,    \
      ThreadPool*);
TFREPRO_INSTANTIATE_GEMM(float)
TFREPRO_INSTANTIATE_GEMM(double)
TFREPRO_INSTANTIATE_GEMM(int32_t)
TFREPRO_INSTANTIATE_GEMM(int64_t)
TFREPRO_INSTANTIATE_GEMM(uint8_t)
#undef TFREPRO_INSTANTIATE_GEMM

}  // namespace tfrepro
