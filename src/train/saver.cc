#include "train/saver.h"

#include <cstdio>
#include <filesystem>
#include <map>

#include "runtime/device.h"

namespace tfrepro {
namespace train {

namespace {

// "/job:ps/task:1/..." -> "/job:ps/task:1"; "" for unplaced variables.
std::string TaskOf(const Node* node) {
  Result<DeviceName> parsed = DeviceName::Parse(node->requested_device());
  if (!parsed.ok() || !parsed.value().has_job || !parsed.value().has_task) {
    return "";
  }
  return "/job:" + parsed.value().job + "/task:" +
         std::to_string(parsed.value().task);
}

}  // namespace

Saver::Saver(GraphBuilder* b, const std::vector<Output>& vars,
             Options options)
    : options_(options) {
  // Group variables by task (§4.3: one Save per task).
  std::map<std::string, std::vector<Output>> by_task;
  for (const Output& var : vars) {
    if (var.node == nullptr) continue;
    by_task[TaskOf(var.node)].push_back(var);
  }

  for (const auto& [task, group_vars] : by_task) {
    TaskGroup group;
    group.task = task;

    Output filename = ops::Placeholder(b, DataType::kString, TensorShape(),
                                       b->graph()->NewName("saver_filename"));
    if (filename.valid()) {
      filename.node->set_requested_device(task);
      group.filename_feed = filename.node->name();
    }

    Tensor names(DataType::kString,
                 TensorShape({static_cast<int64_t>(group_vars.size())}));
    std::vector<Output> reads;
    for (size_t i = 0; i < group_vars.size(); ++i) {
      names.str(i) = group_vars[i].node->name();
      // Identity read colocated with its variable: the group's single Save
      // gathers every variable's current value without extra hops.
      Output read = ops::Identity(b, group_vars[i]);
      if (read.valid()) {
        read.node->set_requested_device(
            group_vars[i].node->requested_device());
      }
      reads.push_back(read);
    }
    Node* save = ops::Save(b, filename, ops::Const(b, Tensor(names)), reads);
    if (save != nullptr) {
      save->set_requested_device(task);
      group.save_op = save->name();
    }

    // Restore side: one Restore + Assign per variable, grouped per task.
    std::vector<Output> assigns;
    for (size_t i = 0; i < group_vars.size(); ++i) {
      Output restored = ops::Restore(
          b, filename, ops::Const(b, Tensor::Scalar(group_vars[i].node->name())),
          BaseType(group_vars[i].dtype()));
      if (restored.valid()) {
        restored.node->set_requested_device(task);
      }
      Output assign = ops::Assign(b, group_vars[i], restored);
      if (assign.valid()) {
        assign.node->set_requested_device(
            group_vars[i].node->requested_device());
      }
      assigns.push_back(assign);
    }
    Node* restore =
        ops::Group(b, assigns, b->graph()->NewName("saver_restore"));
    if (restore != nullptr) {
      restore->set_requested_device(task);
      group.restore_op = restore->name();
    }
    groups_.push_back(std::move(group));
  }
}

Result<std::string> Saver::Save(distributed::MasterSession* session,
                                const std::string& prefix, int64_t step) {
  std::string base = prefix + "-" + std::to_string(step);
  for (size_t i = 0; i < groups_.size(); ++i) {
    TF_RETURN_IF_ERROR(session->Run(
        {{groups_[i].filename_feed, Tensor::Scalar(GroupFile(base, i))}}, {},
        {groups_[i].save_op}, nullptr));
  }
  kept_.push_back(base);
  while (options_.max_to_keep > 0 &&
         static_cast<int>(kept_.size()) > options_.max_to_keep) {
    RemoveCheckpoint(kept_.front());
    kept_.pop_front();
  }
  return base;
}

Status Saver::Restore(distributed::MasterSession* session,
                      const std::string& base) {
  for (size_t i = 0; i < groups_.size(); ++i) {
    TF_RETURN_IF_ERROR(session->Run(
        {{groups_[i].filename_feed, Tensor::Scalar(GroupFile(base, i))}}, {},
        {groups_[i].restore_op}, nullptr));
  }
  return Status::OK();
}

std::string Saver::GroupFile(const std::string& base, size_t i) const {
  if (groups_.size() == 1) return base;
  return base + "@" + std::to_string(i);
}

void Saver::RemoveCheckpoint(const std::string& base) const {
  for (size_t i = 0; i < groups_.size(); ++i) {
    std::remove(GroupFile(base, i).c_str());
  }
}

Result<std::string> Saver::LatestCheckpoint(const std::string& prefix) {
  // Checkpoints are named <prefix>-<step>[@<k>]; pick the highest step.
  namespace fs = std::filesystem;
  fs::path p = fs::path(prefix).lexically_normal();
  fs::path dir = p.parent_path().empty() ? fs::path(".") : p.parent_path();
  std::string base = p.filename().string() + "-";
  std::string latest;
  int64_t best_step = -1;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    std::string name = entry.path().filename().string();
    if (name.rfind(base, 0) != 0) continue;
    std::string suffix = name.substr(base.size());
    size_t at = suffix.find('@');
    if (at != std::string::npos) suffix = suffix.substr(0, at);
    if (suffix.empty() ||
        suffix.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    int64_t step = std::stoll(suffix);
    if (step > best_step) {
      best_step = step;
      latest = (dir / (base.substr(0, base.size() - 1) + "-" +
                       std::to_string(step)))
                   .string();
    }
  }
  if (ec || latest.empty()) {
    return NotFound("no checkpoint found with prefix '" + prefix + "'");
  }
  return latest;
}

}  // namespace train
}  // namespace tfrepro
