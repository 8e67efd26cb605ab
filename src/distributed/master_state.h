// Durable master state (paper §4.3 follow-on): everything a restarted
// MasterSession needs to rebuild itself without client help. PR-1's master
// kept its retained-partition cache, step counter, and checkpoint knowledge
// only in memory, so a master crash lost them even though the workers (and
// the checkpoint files) survived. This log persists:
//
//   * the session prefix and handle counter, so a restarted master mints
//     the same subgraph handles and can re-adopt registrations still alive
//     on the workers;
//   * each compiled step signature (feeds | fetches | targets + handle),
//     so the compiled-step cache is rebuilt by deterministic recompilation
//     from the client graph;
//   * a step-id watermark, so step ids — which tag gradients for staleness
//     (sendrecv step tags) — stay monotonic across master incarnations;
//   * the latest checkpoint (prefix + step) noted by the training loop, so
//     recovery resumes from the right files.
//
// Format: an append-only text log, one record per line, replayed in order
// on load (later records win). Names must not contain whitespace — true for
// graph node names throughout this codebase.
//
// Rotation: AppendStep writes one record per training step, so a
// long-running master grows the log without bound while its replayed state
// stays tiny (later records win). The log therefore tracks a compact
// in-memory mirror of the replayed state and, when the file exceeds
// `rotate_bytes`, atomically rewrites it to just that state
// (WriteFileAtomically: a uniquely named temp file renamed over `path`) —
// recovery over a rotated log is indistinguishable from recovery over the
// full history.

#ifndef TFREPRO_DISTRIBUTED_MASTER_STATE_H_
#define TFREPRO_DISTRIBUTED_MASTER_STATE_H_

#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "core/status.h"

namespace tfrepro {
namespace distributed {

struct CompiledSignature {
  std::string handle;
  std::vector<std::string> feeds;
  std::vector<std::string> fetches;
  std::vector<std::string> targets;
};

struct MasterState {
  std::string session_prefix;
  int64_t next_handle = 0;
  // Highest step id the previous incarnation may have issued.
  int64_t step_watermark = 0;
  std::vector<CompiledSignature> compiled;
  std::string checkpoint_prefix;
  int64_t checkpoint_step = -1;

  bool has_checkpoint() const { return checkpoint_step >= 0; }
};

// Replays the log at `path`. NotFound when no log exists (fresh start).
Result<MasterState> LoadMasterState(const std::string& path);

// Append-only writer with size-triggered compaction. Thread-safe; each
// record is flushed so the log survives an abrupt master death mid-run.
class MasterStateLog {
 public:
  static constexpr int64_t kDefaultRotateBytes = 1 << 20;  // 1 MiB

  // Opens `path` for appending, first writing a fresh `prefix` record when
  // the file is new (an existing log is continued, not truncated; its
  // replayed state seeds the compaction mirror). The log is rewritten to
  // its compact current state whenever it exceeds `rotate_bytes`
  // (0 disables rotation).
  static Result<std::unique_ptr<MasterStateLog>> Open(
      const std::string& path, const std::string& session_prefix,
      int64_t rotate_bytes = kDefaultRotateBytes);

  Status AppendCompiled(const CompiledSignature& sig);
  Status AppendStep(int64_t step_id);
  Status AppendCheckpoint(const std::string& prefix, int64_t step);

  // Current on-disk size in bytes (exact after every Append returns).
  int64_t size_bytes() const;

 private:
  MasterStateLog(const std::string& path, int64_t rotate_bytes);
  Status AppendLine(const std::string& line);
  // Rewrites the log to the mirror's compact state. Called with mu_ held.
  Status CompactLocked();

  const int64_t rotate_bytes_;
  mutable std::mutex mu_;
  std::ofstream out_;
  std::string path_;
  MasterState mirror_;
  int64_t bytes_ = 0;
};

}  // namespace distributed
}  // namespace tfrepro

#endif  // TFREPRO_DISTRIBUTED_MASTER_STATE_H_
