// Saver: the user-level checkpointing client library (paper §4.3). "Our
// typical configuration connects each Variable in a task to the same Save
// operation, with one Save per task, to maximize the I/O bandwidth to a
// distributed file system." — the Saver groups variables by the task
// they're placed on and builds one Save (and one Restore group) per task,
// each colocated with its variables; multi-task checkpoints are written as
// one file per task under a common prefix.
//
// Checkpoints are deliberately *not* synchronized with concurrent training
// steps — the paper's relaxed-consistency design; callers who want a
// consistent snapshot order the Save after a synchronous update (§4.4).

#ifndef TFREPRO_TRAIN_SAVER_H_
#define TFREPRO_TRAIN_SAVER_H_

#include <deque>
#include <string>
#include <vector>

#include "distributed/master.h"
#include "graph/graph_builder.h"
#include "graph/ops.h"

namespace tfrepro {
namespace train {

class Saver {
 public:
  struct Options {
    // Older checkpoints beyond this count are deleted (0 = keep all);
    // customizable retention, §4.3.
    int max_to_keep = 5;
  };

  // Must be called while the graph is still being built; `vars` are
  // Variable outputs (ref type). Variables are grouped by their requested
  // task ("/job:x/task:n"); each group gets its own Save/Restore ops.
  Saver(GraphBuilder* b, const std::vector<Output>& vars, Options options);
  Saver(GraphBuilder* b, const std::vector<Output>& vars)
      : Saver(b, vars, Options{}) {}

  // Writes a checkpoint to "<prefix>-<step>" (single task) or
  // "<prefix>-<step>@<k>" per task group, and applies retention.
  Result<std::string> Save(distributed::MasterSession* session,
                           const std::string& prefix, int64_t step);

  // Restores all tracked variables from a checkpoint written by Save.
  Status Restore(distributed::MasterSession* session, const std::string& base);

  // Returns the newest checkpoint previously written with this prefix.
  static Result<std::string> LatestCheckpoint(const std::string& prefix);

  int num_task_groups() const { return static_cast<int>(groups_.size()); }

 private:
  struct TaskGroup {
    std::string task;           // "" when unplaced / single-process
    std::string filename_feed;  // placeholder node name
    std::string save_op;
    std::string restore_op;
  };

  // File name for group `i` of a checkpoint base path.
  std::string GroupFile(const std::string& base, size_t i) const;
  void RemoveCheckpoint(const std::string& base) const;

  Options options_;
  std::vector<TaskGroup> groups_;
  std::deque<std::string> kept_;
};

}  // namespace train
}  // namespace tfrepro

#endif  // TFREPRO_TRAIN_SAVER_H_
