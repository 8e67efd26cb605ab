#include "distributed/master_state.h"

#include <filesystem>
#include <sstream>

#include "core/file.h"
#include "core/metrics.h"

namespace tfrepro {
namespace distributed {

namespace {

// Reads `count` whitespace-separated names into `out`; false on underrun.
bool ReadNames(std::istringstream* is, std::vector<std::string>* out) {
  size_t count = 0;
  if (!(*is >> count)) return false;
  out->clear();
  for (size_t i = 0; i < count; ++i) {
    std::string name;
    if (!(*is >> name)) return false;
    out->push_back(std::move(name));
  }
  return true;
}

void WriteNames(std::ostringstream* os, const std::vector<std::string>& names) {
  *os << " " << names.size();
  for (const std::string& n : names) *os << " " << n;
}

}  // namespace

Result<MasterState> LoadMasterState(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return NotFound("no master state log at '" + path + "'");
  }
  MasterState state;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    std::istringstream is(line);
    std::string kind;
    is >> kind;
    bool ok = true;
    if (kind == "prefix") {
      ok = static_cast<bool>(is >> state.session_prefix);
    } else if (kind == "compiled") {
      CompiledSignature sig;
      ok = static_cast<bool>(is >> sig.handle) &&
           ReadNames(&is, &sig.feeds) && ReadNames(&is, &sig.fetches) &&
           ReadNames(&is, &sig.targets);
      if (ok) {
        state.compiled.push_back(std::move(sig));
        state.next_handle = static_cast<int64_t>(state.compiled.size());
      }
    } else if (kind == "step") {
      int64_t id = 0;
      ok = static_cast<bool>(is >> id);
      if (ok && id > state.step_watermark) state.step_watermark = id;
    } else if (kind == "ckpt") {
      ok = static_cast<bool>(is >> state.checkpoint_step >>
                             state.checkpoint_prefix);
    } else {
      ok = false;  // unknown record kind
    }
    if (!ok) {
      return DataLoss("master state log '" + path + "' corrupt at line " +
                      std::to_string(lineno) + ": " + line);
    }
  }
  if (state.session_prefix.empty()) {
    return DataLoss("master state log '" + path + "' has no prefix record");
  }
  return state;
}

namespace {

std::string CompiledLine(const CompiledSignature& sig) {
  std::ostringstream os;
  os << "compiled " << sig.handle;
  WriteNames(&os, sig.feeds);
  WriteNames(&os, sig.fetches);
  WriteNames(&os, sig.targets);
  return os.str();
}

}  // namespace

MasterStateLog::MasterStateLog(const std::string& path, int64_t rotate_bytes)
    : rotate_bytes_(rotate_bytes), path_(path) {}

Result<std::unique_ptr<MasterStateLog>> MasterStateLog::Open(
    const std::string& path, const std::string& session_prefix,
    int64_t rotate_bytes) {
  std::filesystem::path dir = std::filesystem::path(path).parent_path();
  std::error_code ec;
  if (!dir.empty()) std::filesystem::create_directories(dir, ec);
  const bool fresh = !std::filesystem::exists(path);
  std::unique_ptr<MasterStateLog> log(
      new MasterStateLog(path, rotate_bytes));
  if (fresh) {
    log->mirror_.session_prefix = session_prefix;
  } else {
    // Seed the compaction mirror with the existing history so a rotation
    // triggered by this incarnation preserves records from earlier ones.
    Result<MasterState> loaded = LoadMasterState(path);
    TF_RETURN_IF_ERROR(loaded.status());
    log->mirror_ = std::move(loaded).value();
    std::error_code size_ec;
    log->bytes_ = static_cast<int64_t>(
        std::filesystem::file_size(path, size_ec));
    if (size_ec) log->bytes_ = 0;
  }
  log->out_.open(path, std::ios::app);
  if (!log->out_) {
    return Internal("cannot open master state log '" + path + "'");
  }
  if (fresh) {
    TF_RETURN_IF_ERROR(log->AppendLine("prefix " + session_prefix));
  }
  return log;
}

int64_t MasterStateLog::size_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

Status MasterStateLog::AppendLine(const std::string& line) {
  std::lock_guard<std::mutex> lock(mu_);
  out_ << line << "\n";
  out_.flush();
  if (!out_) {
    return Internal("write to master state log '" + path_ + "' failed");
  }
  bytes_ += static_cast<int64_t>(line.size()) + 1;
  if (rotate_bytes_ > 0 && bytes_ > rotate_bytes_) {
    return CompactLocked();
  }
  return Status::OK();
}

Status MasterStateLog::CompactLocked() {
  std::ostringstream os;
  os << "prefix " << mirror_.session_prefix << "\n";
  for (const CompiledSignature& sig : mirror_.compiled) {
    os << CompiledLine(sig) << "\n";
  }
  if (mirror_.step_watermark > 0) {
    os << "step " << mirror_.step_watermark << "\n";
  }
  if (mirror_.has_checkpoint()) {
    os << "ckpt " << mirror_.checkpoint_step << " "
       << mirror_.checkpoint_prefix << "\n";
  }
  const std::string compact = os.str();

  // On failure the old (uncompacted but complete) log is still in place;
  // keep appending to it rather than losing durability.
  TF_RETURN_IF_ERROR(WriteFileAtomically(path_, compact));
  out_.close();
  out_.open(path_, std::ios::app);
  if (!out_) {
    return Internal("cannot reopen master state log '" + path_ +
                    "' after compaction");
  }
  bytes_ = static_cast<int64_t>(compact.size());
  metrics::Registry::Global()->GetCounter("master.statelog_rotations")
      ->Increment();
  return Status::OK();
}

Status MasterStateLog::AppendCompiled(const CompiledSignature& sig) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    mirror_.compiled.push_back(sig);
    mirror_.next_handle = static_cast<int64_t>(mirror_.compiled.size());
  }
  return AppendLine(CompiledLine(sig));
}

Status MasterStateLog::AppendStep(int64_t step_id) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (step_id > mirror_.step_watermark) mirror_.step_watermark = step_id;
  }
  return AppendLine("step " + std::to_string(step_id));
}

Status MasterStateLog::AppendCheckpoint(const std::string& prefix,
                                        int64_t step) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    mirror_.checkpoint_prefix = prefix;
    mirror_.checkpoint_step = step;
  }
  return AppendLine("ckpt " + std::to_string(step) + " " + prefix);
}

}  // namespace distributed
}  // namespace tfrepro
