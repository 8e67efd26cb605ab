#include "train/checkpoint_policy.h"

namespace tfrepro {
namespace train {

CheckpointPolicy::CheckpointPolicy(Saver* saver, std::string prefix,
                                   int save_every_n_steps)
    : saver_(saver),
      prefix_(std::move(prefix)),
      save_every_n_(save_every_n_steps) {}

Status CheckpointPolicy::AfterStep(distributed::MasterSession* session,
                                   int64_t step) {
  if (save_every_n_ <= 0 || step % save_every_n_ != 0) {
    return Status::OK();
  }
  Result<std::string> base = saver_->Save(session, prefix_, step);
  TF_RETURN_IF_ERROR(base.status());
  session->NoteCheckpoint(prefix_, step);
  std::lock_guard<std::mutex> lock(mu_);
  last_saved_step_ = step;
  return Status::OK();
}

Status CheckpointPolicy::Recover(distributed::MasterSession* session) {
  Result<std::string> latest = Saver::LatestCheckpoint(prefix_);
  TF_RETURN_IF_ERROR(latest.status());
  TF_RETURN_IF_ERROR(saver_->Restore(session, latest.value()));
  std::lock_guard<std::mutex> lock(mu_);
  last_restored_step_ = StepOfCheckpoint(latest.value());
  ++recoveries_;
  return Status::OK();
}

int64_t CheckpointPolicy::StepOfCheckpoint(const std::string& base) {
  size_t dash = base.rfind('-');
  if (dash == std::string::npos || dash + 1 >= base.size()) return -1;
  std::string digits = base.substr(dash + 1);
  if (digits.find_first_not_of("0123456789") != std::string::npos) return -1;
  return std::stoll(digits);
}

int64_t CheckpointPolicy::last_saved_step() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_saved_step_;
}

int64_t CheckpointPolicy::last_restored_step() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_restored_step_;
}

int64_t CheckpointPolicy::recoveries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recoveries_;
}

}  // namespace train
}  // namespace tfrepro
