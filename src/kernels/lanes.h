// Vector lanes and Elementwise, the one loop behind the plain element-wise
// kernels (DESIGN.md §15). Vectors are GCC vector extensions of a given
// width: Elementwise runs on 16-byte vectors, which the baseline x86-64
// target (SSE2) has, so it needs no -march or intrinsics. The GEMM's
// micro-kernel (kernels/gemm_cells.cc) uses the same type at 16, 32 and
// 64 bytes, in objects built with the wider ISA flags.

#ifndef TFREPRO_KERNELS_LANES_H_
#define TFREPRO_KERNELS_LANES_H_

#include <cstdint>
#include <cstring>
#include <type_traits>

namespace tfrepro {

// The width Elementwise runs on.
constexpr int kVecBytes = 16;
template <typename T, int Bytes = kVecBytes>
constexpr int kLanes = Bytes / static_cast<int>(sizeof(T));

template <typename T, int Bytes = kVecBytes>
struct Simd {
  typedef T Vec __attribute__((vector_size(Bytes)));
};

// c in every lane of V, or c as a V when V is a scalar type. Functors build
// their non-zero constants with it: a brace-initialised vector sets lane 0
// only, so V{1} is {1, 0, 0, 0}.
template <typename V, typename C>
V Broadcast(C c) {
  if constexpr (std::is_arithmetic_v<V>) {
    return static_cast<V>(c);
  } else {
    V v{};
    for (size_t i = 0; i < sizeof(V) / sizeof(v[0]); ++i) v[i] = c;
    return v;
  }
}

// A callable runs on lanes when its type declares kOnLanes = true, as
// every LaneFunctor does. It is then also called with Simd<T>::Vec
// arguments and must do on each lane the IEEE operations it does on one T,
// in the same order.
template <typename Fn>
concept OnLanes = Fn::kOnLanes;

struct LaneFunctor {
  static constexpr bool kOnLanes = true;
};

// F::Run as a callable for Elementwise; it runs on lanes when F does.
template <typename F>
struct RunOf {
  static constexpr bool kOnLanes = OnLanes<F>;
  auto operator()(auto... a) const { return F::Run(a...); }
};

namespace lanes_internal {

// An operand is a stream (a pointer) or one value used for every element.
template <typename In>
auto At(In in, int64_t i) {
  if constexpr (std::is_pointer_v<In>) {
    return in[i];
  } else {
    return in;
  }
}

// The operand as the vector loop reads it: a value is broadcast once.
template <typename In>
auto ForLanes(In in) {
  if constexpr (std::is_pointer_v<In>) {
    return in;
  } else {
    return Broadcast<typename Simd<In>::Vec>(in);
  }
}

template <typename Op>
auto VectorAt(Op op, int64_t i) {
  if constexpr (std::is_pointer_v<Op>) {
    typename Simd<std::remove_cv_t<std::remove_pointer_t<Op>>>::Vec v;
    std::memcpy(&v, op + i, sizeof(v));
    return v;
  } else {
    return op;
  }
}

}  // namespace lanes_internal

// out[i] = fn(in[i]...) for i in [0, n), where each operand is a stream (a
// pointer to n elements) or one value used for every element. A callable
// that runs on lanes takes n / kLanes<T> whole vectors first; the rest,
// and every element of a callable that does not, go one at a time. out may
// be one of the streams: each vector loads its operands before it stores.
template <typename Fn, typename T, typename... In>
void Elementwise(int64_t n, T* out, Fn fn, In... in) {
  int64_t i = 0;
  if constexpr (OnLanes<Fn>) {
    auto vectors = [&](auto... op) {
      for (; i + kLanes<T> <= n; i += kLanes<T>) {
        const typename Simd<T>::Vec v = fn(lanes_internal::VectorAt(op, i)...);
        std::memcpy(out + i, &v, sizeof(v));
      }
    };
    vectors(lanes_internal::ForLanes(in)...);
  }
  for (; i < n; ++i) out[i] = fn(lanes_internal::At(in, i)...);
}

}  // namespace tfrepro

#endif  // TFREPRO_KERNELS_LANES_H_
