// CheckpointPolicy: wires the user-level Saver (§4.3) into a training
// loop's failure-handling path. The paper's recovery story is "the client
// library writes periodic checkpoints; when a failure is detected the run
// is aborted and restarted from the last checkpoint" — this class owns both
// halves:
//
//   * AfterStep(session, step): called from the training loop after each
//     successful step; saves a checkpoint every `save_every_n_steps`.
//   * Recover(session): called from the master's recovery hook after a
//     task restart; restores the latest checkpoint so the retried step
//     resumes from the last durable state. Returns the restored step via
//     last_restored_step().

#ifndef TFREPRO_TRAIN_CHECKPOINT_POLICY_H_
#define TFREPRO_TRAIN_CHECKPOINT_POLICY_H_

#include <mutex>
#include <string>

#include "train/saver.h"

namespace tfrepro {
namespace train {

class CheckpointPolicy {
 public:
  // `saver` must outlive the policy. `save_every_n_steps <= 0` disables
  // periodic saving (Recover still works against checkpoints written by
  // other means under `prefix`).
  CheckpointPolicy(Saver* saver, std::string prefix, int save_every_n_steps);

  // Saves "<prefix>-<step>" when `step` is a multiple of the period, and
  // notes it with the session so a restarted master (durable state)
  // resumes from it without client help.
  Status AfterStep(distributed::MasterSession* session, int64_t step);

  // Restores the newest checkpoint under the prefix. NotFound when no
  // checkpoint exists yet (callers decide whether that is fatal — a
  // failure before the first save usually is, since the restarted task's
  // variables are gone).
  Status Recover(distributed::MasterSession* session);

  // Parses the step number out of a checkpoint base path
  // ("<prefix>-<step>"); -1 when unparseable.
  static int64_t StepOfCheckpoint(const std::string& base);

  int64_t last_saved_step() const;
  int64_t last_restored_step() const;
  int64_t recoveries() const;
  const std::string& prefix() const { return prefix_; }

 private:
  Saver* saver_;
  std::string prefix_;
  int save_every_n_;

  mutable std::mutex mu_;
  int64_t last_saved_step_ = -1;
  int64_t last_restored_step_ = -1;
  int64_t recoveries_ = 0;
};

}  // namespace train
}  // namespace tfrepro

#endif  // TFREPRO_TRAIN_CHECKPOINT_POLICY_H_
