// Element-wise functors shared by the standalone math kernels
// (kernels/math_ops.cc) and the _FusedElementwise interpreter
// (kernels/fused_ops.cc). Fusion must be bit-exact with unfused execution,
// so both paths apply the exact same Run<T> per element — the fused kernel
// never re-derives the arithmetic. LaneFunctors also run on the vector
// lanes of kernels/lanes.h in the standalone kernels; the rest go through
// double or libm and run one element at a time.

#ifndef TFREPRO_KERNELS_ELEMENTWISE_FUNCTORS_H_
#define TFREPRO_KERNELS_ELEMENTWISE_FUNCTORS_H_

#include <cmath>
#include <cstdint>
#include <string>
#include <type_traits>

#include "kernels/lanes.h"

namespace tfrepro {

// ---------------------------------------------------------------------------
// Binary functors (T x T -> T, with broadcasting handled by the caller).
// ---------------------------------------------------------------------------

struct AddFunc : LaneFunctor {
  template <typename T>
  static T Run(T x, T y) {
    return x + y;
  }
};
struct SubFunc : LaneFunctor {
  template <typename T>
  static T Run(T x, T y) {
    return x - y;
  }
};
struct MulFunc : LaneFunctor {
  template <typename T>
  static T Run(T x, T y) {
    return x * y;
  }
};
struct DivFunc : LaneFunctor {
  template <typename T>
  static T Run(T x, T y) {
    return x / y;
  }
};
struct FloorDivFunc {
  template <typename T>
  static T Run(T x, T y) {
    if constexpr (std::is_integral_v<T>) {
      T q = x / y;
      if ((x % y != 0) && ((x < 0) != (y < 0))) --q;
      return q;
    } else {
      return std::floor(x / y);
    }
  }
};
struct ModFunc {
  template <typename T>
  static T Run(T x, T y) {
    if constexpr (std::is_integral_v<T>) {
      T m = x % y;
      if (m != 0 && ((x < 0) != (y < 0))) m += y;
      return m;
    } else {
      T m = std::fmod(x, y);
      if (m != 0 && ((x < 0) != (y < 0))) m += y;
      return m;
    }
  }
};
struct PowFunc {
  template <typename T>
  static T Run(T x, T y) {
    return static_cast<T>(std::pow(static_cast<double>(x),
                                   static_cast<double>(y)));
  }
};
struct MaximumFunc : LaneFunctor {
  template <typename T>
  static T Run(T x, T y) {
    return x > y ? x : y;
  }
};
struct MinimumFunc : LaneFunctor {
  template <typename T>
  static T Run(T x, T y) {
    return x < y ? x : y;
  }
};
struct SquaredDifferenceFunc : LaneFunctor {
  template <typename T>
  static T Run(T x, T y) {
    T d = x - y;
    return d * d;
  }
};

// ---------------------------------------------------------------------------
// Unary functors (T -> T).
// ---------------------------------------------------------------------------

struct NegFunc : LaneFunctor {
  template <typename T>
  static T Run(T x) {
    return -x;
  }
};
struct ExpFunc {
  template <typename T>
  static T Run(T x) {
    return static_cast<T>(std::exp(static_cast<double>(x)));
  }
};
struct LogFunc {
  template <typename T>
  static T Run(T x) {
    return static_cast<T>(std::log(static_cast<double>(x)));
  }
};
struct SqrtFunc {
  template <typename T>
  static T Run(T x) {
    return static_cast<T>(std::sqrt(static_cast<double>(x)));
  }
};
struct RsqrtFunc {
  template <typename T>
  static T Run(T x) {
    return static_cast<T>(1.0 / std::sqrt(static_cast<double>(x)));
  }
};
struct SquareFunc : LaneFunctor {
  template <typename T>
  static T Run(T x) {
    return x * x;
  }
};
struct AbsFunc : LaneFunctor {
  template <typename T>
  static T Run(T x) {
    return x < T{0} ? static_cast<T>(-x) : x;
  }
};
struct SignFunc : LaneFunctor {
  template <typename T>
  static T Run(T x) {
    return x > T{0} ? Broadcast<T>(1)
                    : (x < T{0} ? Broadcast<T>(-1) : T{0});
  }
};
struct TanhFunc {
  template <typename T>
  static T Run(T x) {
    return static_cast<T>(std::tanh(static_cast<double>(x)));
  }
};
struct SigmoidFunc {
  template <typename T>
  static T Run(T x) {
    return static_cast<T>(1.0 / (1.0 + std::exp(-static_cast<double>(x))));
  }
};
struct ReluFunc : LaneFunctor {
  template <typename T>
  static T Run(T x) {
    return x > T{0} ? x : T{0};
  }
};
struct FloorFunc {
  template <typename T>
  static T Run(T x) {
    return static_cast<T>(std::floor(static_cast<double>(x)));
  }
};
struct CeilFunc {
  template <typename T>
  static T Run(T x) {
    return static_cast<T>(std::ceil(static_cast<double>(x)));
  }
};
struct ReciprocalFunc {
  template <typename T>
  static T Run(T x) {
    return static_cast<T>(1.0 / static_cast<double>(x));
  }
};

// ---------------------------------------------------------------------------
// Name-indexed dispatch, used by the fusion pass (eligibility) and the
// _FusedElementwise kernel (recipe interpretation). kInvalid means "not a
// fusable element-wise op".
// ---------------------------------------------------------------------------

enum class UnaryEwise : uint8_t {
  kNeg, kExp, kLog, kSqrt, kRsqrt, kSquare, kAbs, kSign, kTanh, kSigmoid,
  kRelu, kFloor, kCeil, kReciprocal, kInvalid,
};

enum class BinaryEwise : uint8_t {
  kAdd, kSub, kMul, kDiv, kFloorDiv, kMod, kPow, kMaximum, kMinimum,
  kSquaredDifference, kInvalid,
};

inline UnaryEwise UnaryEwiseFromOp(const std::string& op) {
  if (op == "Neg") return UnaryEwise::kNeg;
  if (op == "Exp") return UnaryEwise::kExp;
  if (op == "Log") return UnaryEwise::kLog;
  if (op == "Sqrt") return UnaryEwise::kSqrt;
  if (op == "Rsqrt") return UnaryEwise::kRsqrt;
  if (op == "Square") return UnaryEwise::kSquare;
  if (op == "Abs") return UnaryEwise::kAbs;
  if (op == "Sign") return UnaryEwise::kSign;
  if (op == "Tanh") return UnaryEwise::kTanh;
  if (op == "Sigmoid") return UnaryEwise::kSigmoid;
  if (op == "Relu") return UnaryEwise::kRelu;
  if (op == "Floor") return UnaryEwise::kFloor;
  if (op == "Ceil") return UnaryEwise::kCeil;
  if (op == "Reciprocal") return UnaryEwise::kReciprocal;
  return UnaryEwise::kInvalid;
}

inline BinaryEwise BinaryEwiseFromOp(const std::string& op) {
  if (op == "Add") return BinaryEwise::kAdd;
  if (op == "Sub") return BinaryEwise::kSub;
  if (op == "Mul") return BinaryEwise::kMul;
  if (op == "Div") return BinaryEwise::kDiv;
  if (op == "FloorDiv") return BinaryEwise::kFloorDiv;
  if (op == "Mod") return BinaryEwise::kMod;
  if (op == "Pow") return BinaryEwise::kPow;
  if (op == "Maximum") return BinaryEwise::kMaximum;
  if (op == "Minimum") return BinaryEwise::kMinimum;
  if (op == "SquaredDifference") return BinaryEwise::kSquaredDifference;
  return BinaryEwise::kInvalid;
}

template <typename T>
inline T ApplyUnaryEwise(UnaryEwise op, T x) {
  switch (op) {
    case UnaryEwise::kNeg: return NegFunc::Run<T>(x);
    case UnaryEwise::kExp: return ExpFunc::Run<T>(x);
    case UnaryEwise::kLog: return LogFunc::Run<T>(x);
    case UnaryEwise::kSqrt: return SqrtFunc::Run<T>(x);
    case UnaryEwise::kRsqrt: return RsqrtFunc::Run<T>(x);
    case UnaryEwise::kSquare: return SquareFunc::Run<T>(x);
    case UnaryEwise::kAbs: return AbsFunc::Run<T>(x);
    case UnaryEwise::kSign: return SignFunc::Run<T>(x);
    case UnaryEwise::kTanh: return TanhFunc::Run<T>(x);
    case UnaryEwise::kSigmoid: return SigmoidFunc::Run<T>(x);
    case UnaryEwise::kRelu: return ReluFunc::Run<T>(x);
    case UnaryEwise::kFloor: return FloorFunc::Run<T>(x);
    case UnaryEwise::kCeil: return CeilFunc::Run<T>(x);
    case UnaryEwise::kReciprocal: return ReciprocalFunc::Run<T>(x);
    case UnaryEwise::kInvalid: break;
  }
  return x;
}

template <typename T>
inline T ApplyBinaryEwise(BinaryEwise op, T x, T y) {
  switch (op) {
    case BinaryEwise::kAdd: return AddFunc::Run<T>(x, y);
    case BinaryEwise::kSub: return SubFunc::Run<T>(x, y);
    case BinaryEwise::kMul: return MulFunc::Run<T>(x, y);
    case BinaryEwise::kDiv: return DivFunc::Run<T>(x, y);
    case BinaryEwise::kFloorDiv: return FloorDivFunc::Run<T>(x, y);
    case BinaryEwise::kMod: return ModFunc::Run<T>(x, y);
    case BinaryEwise::kPow: return PowFunc::Run<T>(x, y);
    case BinaryEwise::kMaximum: return MaximumFunc::Run<T>(x, y);
    case BinaryEwise::kMinimum: return MinimumFunc::Run<T>(x, y);
    case BinaryEwise::kSquaredDifference:
      return SquaredDifferenceFunc::Run<T>(x, y);
    case BinaryEwise::kInvalid: break;
  }
  return x;
}

}  // namespace tfrepro

#endif  // TFREPRO_KERNELS_ELEMENTWISE_FUNCTORS_H_
