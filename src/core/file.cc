#include "core/file.h"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace tfrepro {

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return NotFound("cannot open '" + path + "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

Status WriteFileAtomically(const std::string& path, const std::string& bytes) {
  static std::atomic<uint64_t> next_temp{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(next_temp.fetch_add(1));
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out) return InvalidArgument("cannot open '" + tmp + "'");
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  if (!out) {
    std::remove(tmp.c_str());
    return DataLoss("failed writing '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return DataLoss("failed renaming '" + tmp + "' to '" + path + "'");
  }
  return Status::OK();
}

}  // namespace tfrepro
