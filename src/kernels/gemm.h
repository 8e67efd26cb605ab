// The kernel layer's matrix multiply (DESIGN.md §15): one packed,
// register-blocked GEMM for every transpose form and numeric type, split
// into blocks of output across a device's threads (paper §5: kernels that
// run in parallel on multicore CPUs). Its micro-kernel runs on the widest
// vectors the CPU has, 16, 32 or 64 bytes, picked once per process; every
// width gives the same bits.

#ifndef TFREPRO_KERNELS_GEMM_H_
#define TFREPRO_KERNELS_GEMM_H_

#include <cstdint>

#include "core/threadpool.h"

namespace tfrepro {

// c[m,n] = op(a) * op(b), where op(a) is a[m,k] (a[k,m] transposed when
// transpose_a) and op(b) is b[k,n] (b[n,k] transposed when transpose_b).
// Every element of c is written. Each output element is one accumulator
// that starts at zero and adds op(a)[i,p] * op(b)[p,j] for p = 0 .. k-1 in
// ascending order, so the result does not depend on the pool, its thread
// count or how the output was split. Products large enough to pay for it
// are split across `pool`, which may be null, in one ParallelFor.
//
// T is one of float, double, int32_t, int64_t, uint8_t.
template <typename T>
void Gemm(const T* a, const T* b, T* c, int64_t m, int64_t k, int64_t n,
          bool transpose_a, bool transpose_b, ThreadPool* pool);

// For tests and benchmarks, which compare the widths: Gemm picks the
// widest of kGemmVectorBytes that HostRunsGemmVectorBytes accepts, and
// GemmAtVectorBytes runs one product at a width the host runs.
namespace gemm_internal {

constexpr int kGemmVectorBytes[] = {16, 32, 64};

bool HostRunsGemmVectorBytes(int bytes);

template <typename T>
void GemmAtVectorBytes(int bytes, const T* a, const T* b, T* c, int64_t m,
                       int64_t k, int64_t n, bool transpose_a,
                       bool transpose_b, ThreadPool* pool);

}  // namespace gemm_internal

}  // namespace tfrepro

#endif  // TFREPRO_KERNELS_GEMM_H_
