#include "kernels/checkpoint_format.h"

#include <cstring>
#include <functional>

#include "core/coding.h"
#include "core/file.h"

namespace tfrepro {

constexpr char kMagic[8] = {'T', 'F', 'R', 'C', 'K', 'P', 'T', '1'};

Status WriteCheckpoint(
    const std::string& filename,
    const std::vector<std::pair<std::string, Tensor>>& entries) {
  std::string bytes;
  bytes.append(kMagic, sizeof(kMagic));
  AppendInt64(&bytes, static_cast<int64_t>(entries.size()));
  for (const auto& [name, tensor] : entries) {
    AppendString(&bytes, name);
    tensor.AppendToBytes(&bytes);
  }
  // A checkpoint that is only partially written must never shadow the
  // previous good one.
  return WriteFileAtomically(filename, bytes);
}

namespace {

// Decodes a checkpoint's entries in order, handing each to `visit` until it
// returns true. Any corruption, a truncated file included, is DataLoss.
Status ScanCheckpoint(
    const std::string& filename,
    const std::function<bool(const std::string&, Tensor)>& visit) {
  Result<std::string> bytes = ReadFile(filename);
  TF_RETURN_IF_ERROR(bytes.status());
  const std::string& data = bytes.value();
  if (data.size() < sizeof(kMagic) ||
      std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) {
    return DataLoss("'" + filename + "' is not a tfrepro checkpoint");
  }
  size_t offset = sizeof(kMagic);
  int64_t count = 0;
  if (!ReadInt64(data, &offset, &count) || count < 0) {
    return DataLoss("corrupt checkpoint header in '" + filename + "'");
  }
  for (int64_t i = 0; i < count; ++i) {
    std::string name;
    if (!ReadString(data, &offset, &name)) {
      return DataLoss("corrupt entry name in '" + filename + "'");
    }
    Result<Tensor> t = Tensor::ParseFromBytes(data, &offset);
    if (!t.ok()) {
      return DataLoss("corrupt entry '" + name + "' in '" + filename +
                      "': " + t.status().message());
    }
    if (visit(name, std::move(t).value())) return Status::OK();
  }
  return Status::OK();
}

}  // namespace

Result<Tensor> ReadCheckpointTensor(const std::string& filename,
                                    const std::string& tensor_name) {
  Tensor found;
  bool have = false;
  TF_RETURN_IF_ERROR(
      ScanCheckpoint(filename, [&](const std::string& name, Tensor t) {
        if (name != tensor_name) return false;
        found = std::move(t);
        have = true;
        return true;
      }));
  if (!have) {
    return NotFound("tensor '" + tensor_name + "' not found in checkpoint '" +
                    filename + "'");
  }
  return found;
}

Result<std::vector<std::string>> ListCheckpointTensors(
    const std::string& filename) {
  std::vector<std::string> names;
  TF_RETURN_IF_ERROR(
      ScanCheckpoint(filename, [&](const std::string& name, Tensor) {
        names.push_back(name);
        return false;
      }));
  return names;
}

}  // namespace tfrepro
