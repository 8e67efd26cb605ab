// The one byte codec (DESIGN.md §2.1). Every binary format tfrepro writes —
// RPC bodies (§11), shipped partitions (graph/graph_io.h), traced StepStats
// (§12) and checkpoint files (§4.3) — is built from these fields, appended
// to a growing std::string and parsed back with a moving offset:
//
//   int64, float   fixed width, little-endian
//   string         int64 length, then the bytes
//   shape          int64 rank (0..16), then one int64 per dim
//
// Readers return false (or a DataLoss status) on truncated input and never
// read past its end. A count read from the input sizes nothing until
// CountFits has checked it against the bytes left: with each element at
// least `min_bytes` long, no more than (bytes left) / min_bytes of them can
// follow, so a hostile count allocates at most a constant multiple of the
// input's own size.

#ifndef TFREPRO_CORE_CODING_H_
#define TFREPRO_CORE_CODING_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/status.h"
#include "core/tensor_shape.h"

namespace tfrepro {

// Fixed-width fields are copied in host order, which this makes the
// little-endian layout the formats promise.
static_assert(std::endian::native == std::endian::little,
              "tfrepro's byte formats are little-endian");

inline void AppendInt64(std::string* out, int64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

inline bool ReadInt64(const std::string& in, size_t* offset, int64_t* v) {
  if (*offset > in.size() || in.size() - *offset < sizeof(*v)) return false;
  std::memcpy(v, in.data() + *offset, sizeof(*v));
  *offset += sizeof(*v);
  return true;
}

inline void AppendFloat(std::string* out, float v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

inline bool ReadFloat(const std::string& in, size_t* offset, float* v) {
  if (*offset > in.size() || in.size() - *offset < sizeof(*v)) return false;
  std::memcpy(v, in.data() + *offset, sizeof(*v));
  *offset += sizeof(*v);
  return true;
}

// True when `count` elements of at least `min_bytes` bytes each fit in what
// is left of `in` after `offset` (by division, so no count can wrap).
inline bool CountFits(const std::string& in, size_t offset, int64_t count,
                      size_t min_bytes) {
  return count >= 0 && offset <= in.size() &&
         static_cast<uint64_t>(count) <= (in.size() - offset) / min_bytes;
}

// Reads a count and holds it to CountFits.
inline bool ReadCount(const std::string& in, size_t* offset, size_t min_bytes,
                      int64_t* count) {
  return ReadInt64(in, offset, count) &&
         CountFits(in, *offset, *count, min_bytes);
}

inline void AppendString(std::string* out, const std::string& s) {
  AppendInt64(out, static_cast<int64_t>(s.size()));
  out->append(s);
}

inline bool ReadString(const std::string& in, size_t* offset, std::string* s) {
  int64_t len = 0;
  if (!ReadCount(in, offset, 1, &len)) return false;
  s->assign(in.data() + *offset, static_cast<size_t>(len));
  *offset += static_cast<size_t>(len);
  return true;
}

inline void AppendShape(std::string* out, const TensorShape& shape) {
  AppendInt64(out, shape.rank());
  for (int i = 0; i < shape.rank(); ++i) AppendInt64(out, shape.dim(i));
}

inline Status ReadShape(const std::string& in, size_t* offset,
                        TensorShape* shape) {
  int64_t rank = 0;
  if (!ReadInt64(in, offset, &rank)) return DataLoss("truncated shape rank");
  if (rank < 0 || rank > 16) {
    return DataLoss("corrupt shape rank " + std::to_string(rank));
  }
  std::vector<int64_t> dims(rank);
  for (int64_t& d : dims) {
    if (!ReadInt64(in, offset, &d)) return DataLoss("truncated shape dims");
  }
  TF_RETURN_IF_ERROR(ValidateShape(dims));
  *shape = TensorShape(dims);
  return Status::OK();
}

}  // namespace tfrepro

#endif  // TFREPRO_CORE_CODING_H_
