#include "core/tensor.h"

#include <sstream>

#include "core/coding.h"

namespace tfrepro {

Tensor::Tensor(DataType dtype, const TensorShape& shape)
    : dtype_(dtype), shape_(shape), buffer_(std::make_shared<Buffer>()) {
  assert(!IsRefType(dtype));
  if (dtype == DataType::kString) {
    buffer_->strings.resize(shape.num_elements());
  } else {
    buffer_->bytes.resize(shape.num_elements() * DataTypeSize(dtype), 0);
  }
}

Tensor Tensor::Scalar(float v) {
  Tensor t(DataType::kFloat, TensorShape());
  *t.data<float>() = v;
  return t;
}
Tensor Tensor::Scalar(double v) {
  Tensor t(DataType::kDouble, TensorShape());
  *t.data<double>() = v;
  return t;
}
Tensor Tensor::Scalar(int32_t v) {
  Tensor t(DataType::kInt32, TensorShape());
  *t.data<int32_t>() = v;
  return t;
}
Tensor Tensor::Scalar(int64_t v) {
  Tensor t(DataType::kInt64, TensorShape());
  *t.data<int64_t>() = v;
  return t;
}
Tensor Tensor::Scalar(bool v) {
  Tensor t(DataType::kBool, TensorShape());
  *t.data<bool>() = v;
  return t;
}
Tensor Tensor::Scalar(const std::string& v) {
  Tensor t(DataType::kString, TensorShape());
  t.str(0) = v;
  return t;
}

size_t Tensor::TotalBytes() const {
  if (buffer_ == nullptr) return 0;
  if (dtype_ == DataType::kString) {
    size_t total = 0;
    for (const std::string& s : buffer_->strings) total += s.size();
    return total;
  }
  return buffer_->bytes.size();
}

std::string& Tensor::str(int64_t i) {
  assert(dtype_ == DataType::kString);
  assert(i >= 0 && i < static_cast<int64_t>(buffer_->strings.size()));
  return buffer_->strings[i];
}

const std::string& Tensor::str(int64_t i) const {
  assert(dtype_ == DataType::kString);
  assert(i >= 0 && i < static_cast<int64_t>(buffer_->strings.size()));
  return buffer_->strings[i];
}

char* Tensor::raw_data() {
  assert(buffer_ != nullptr);
  return buffer_->bytes.data();
}

const char* Tensor::raw_data() const {
  assert(buffer_ != nullptr);
  return buffer_->bytes.data();
}

Result<Tensor> Tensor::Reshaped(const TensorShape& new_shape) const {
  if (new_shape.num_elements() != num_elements()) {
    return InvalidArgument("Reshape from " + shape_.DebugString() + " to " +
                           new_shape.DebugString() +
                           " changes the element count");
  }
  Tensor t = *this;
  t.shape_ = new_shape;
  return t;
}

Result<Tensor> Tensor::SliceRows(int64_t start, int64_t len) const {
  if (shape_.rank() < 1) {
    return InvalidArgument("SliceRows on a scalar tensor");
  }
  if (start < 0 || len < 0 || start + len > shape_.dim(0)) {
    return OutOfRange("SliceRows [" + std::to_string(start) + "," +
                      std::to_string(start + len) + ") out of bounds for dim0=" +
                      std::to_string(shape_.dim(0)));
  }
  TensorShape out_shape = shape_;
  out_shape.set_dim(0, len);
  Tensor out(dtype_, out_shape);
  int64_t row_elems = shape_.dim(0) == 0 ? 0 : num_elements() / shape_.dim(0);
  if (dtype_ == DataType::kString) {
    for (int64_t i = 0; i < len * row_elems; ++i) {
      out.buffer_->strings[i] = buffer_->strings[start * row_elems + i];
    }
  } else {
    size_t esz = DataTypeSize(dtype_);
    if (len * row_elems > 0) {  // an empty tensor's buffer has no data pointer
      std::memcpy(out.buffer_->bytes.data(),
                  buffer_->bytes.data() + start * row_elems * esz,
                  len * row_elems * esz);
    }
  }
  return out;
}

Tensor Tensor::Clone() const {
  if (!IsInitialized()) return Tensor();
  Tensor t(dtype_, shape_);
  *t.buffer_ = *buffer_;
  return t;
}

Status Tensor::CopyDataFrom(const Tensor& other) {
  if (dtype_ != other.dtype_) {
    return InvalidArgument(std::string("CopyDataFrom dtype mismatch: ") +
                           DataTypeName(dtype_) + " vs " +
                           DataTypeName(other.dtype_));
  }
  if (num_elements() != other.num_elements()) {
    return InvalidArgument("CopyDataFrom element count mismatch: " +
                           shape_.DebugString() + " vs " +
                           other.shape_.DebugString());
  }
  *buffer_ = *other.buffer_;
  return Status::OK();
}

void Tensor::AppendToBytes(std::string* out) const {
  AppendInt64(out, static_cast<int64_t>(dtype_));
  if (!IsInitialized()) {
    // Uninitialized (kInvalid) tensors have no buffer; the header alone
    // round-trips them. The distributed transport relies on this to carry
    // dead tensors across a process boundary (§3.4 deadness propagation).
    return;
  }
  AppendShape(out, shape_);
  if (dtype_ == DataType::kString) {
    for (const std::string& s : buffer_->strings) AppendString(out, s);
  } else {
    out->append(buffer_->bytes.data(), buffer_->bytes.size());
  }
}

Result<Tensor> Tensor::ParseFromBytes(const std::string& bytes,
                                      size_t* offset) {
  int64_t dtype_val = 0;
  if (!ReadInt64(bytes, offset, &dtype_val)) {
    return DataLoss("truncated tensor header");
  }
  if (dtype_val == static_cast<int64_t>(DataType::kInvalid)) {
    return Tensor();  // uninitialized tensor: header only, no buffer
  }
  TensorShape shape;
  TF_RETURN_IF_ERROR(ReadShape(bytes, offset, &shape));
  DataType dtype = static_cast<DataType>(dtype_val);
  if (DataTypeSize(dtype) == 0 && dtype != DataType::kString) {
    return DataLoss("corrupt tensor dtype " + std::to_string(dtype_val));
  }
  // Every element takes at least its fixed width (a string: its length
  // prefix), so the element count is judged against the input before
  // anything is allocated.
  const size_t element_size = dtype == DataType::kString
                                  ? sizeof(int64_t)
                                  : DataTypeSize(dtype);
  if (!CountFits(bytes, *offset, shape.num_elements(), element_size)) {
    return DataLoss("truncated tensor data");
  }
  if (dtype == DataType::kString) {
    Tensor t(dtype, shape);
    for (int64_t i = 0, n = t.num_elements(); i < n; ++i) {
      if (!ReadString(bytes, offset, &t.str(i))) {
        return DataLoss("truncated string element");
      }
    }
    return t;
  }
  // POD payload: copied straight into the new buffer — no zero-fill pass
  // first.
  const size_t nbytes =
      static_cast<size_t>(shape.num_elements()) * element_size;
  Tensor t;
  t.dtype_ = dtype;
  t.shape_ = std::move(shape);
  t.buffer_ = std::make_shared<Buffer>();
  if (nbytes > 0) {  // an empty tensor's range has no data to copy
    const char* data = bytes.data() + *offset;
    t.buffer_->bytes.assign(data, data + nbytes);
  }
  *offset += nbytes;
  return t;
}

std::string Tensor::DebugString(int max_entries) const {
  std::ostringstream os;
  os << "Tensor<" << DataTypeName(dtype_) << ", " << shape_.DebugString()
     << ">";
  if (!IsInitialized()) return os.str();
  os << " [";
  int64_t n = std::min<int64_t>(num_elements(), max_entries);
  for (int64_t i = 0; i < n; ++i) {
    if (i > 0) os << ", ";
    switch (BaseType(dtype_)) {
      case DataType::kFloat:
        os << data<float>()[i];
        break;
      case DataType::kDouble:
        os << data<double>()[i];
        break;
      case DataType::kInt32:
        os << data<int32_t>()[i];
        break;
      case DataType::kInt64:
        os << data<int64_t>()[i];
        break;
      case DataType::kBool:
        os << (data<bool>()[i] ? "true" : "false");
        break;
      case DataType::kUint8:
        os << static_cast<int>(data<uint8_t>()[i]);
        break;
      case DataType::kString:
        os << "\"" << str(i) << "\"";
        break;
      default:
        os << "?";
    }
  }
  if (n < num_elements()) os << ", ...";
  os << "]";
  return os.str();
}

}  // namespace tfrepro
