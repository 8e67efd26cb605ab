// TensorShape: the dimensions of a dense n-dimensional array (paper §3.1).

#ifndef TFREPRO_CORE_TENSOR_SHAPE_H_
#define TFREPRO_CORE_TENSOR_SHAPE_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "core/status.h"

namespace tfrepro {

class TensorShape {
 public:
  TensorShape() = default;  // scalar (rank 0)
  TensorShape(std::initializer_list<int64_t> dims);
  explicit TensorShape(const std::vector<int64_t>& dims);

  int rank() const { return static_cast<int>(dims_.size()); }
  int64_t dim(int i) const;
  const std::vector<int64_t>& dims() const { return dims_; }

  // Total number of elements (product of dims; 1 for scalars). It walks
  // the dims on every call, so a loop reads it once, before the loop.
  int64_t num_elements() const {
    int64_t n = 1;
    for (int64_t d : dims_) n *= d;
    return n;
  }

  bool IsScalar() const { return dims_.empty(); }

  void AddDim(int64_t size);
  void InsertDim(int d, int64_t size);
  void RemoveDim(int d);
  void set_dim(int d, int64_t size);

  bool operator==(const TensorShape& other) const {
    return dims_ == other.dims_;
  }
  bool operator!=(const TensorShape& other) const { return !(*this == other); }

  std::string DebugString() const;

 private:
  std::vector<int64_t> dims_;
};

// Validates that dims are all non-negative and the element count does not
// overflow int64.
Status ValidateShape(const std::vector<int64_t>& dims);

}  // namespace tfrepro

#endif  // TFREPRO_CORE_TENSOR_SHAPE_H_
