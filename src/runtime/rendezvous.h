// Rendezvous: the meeting point for Send/Recv pairs (paper §3.3). Send
// transmits its input "as soon as the tensor is available, using a
// rendezvous key to name the value"; Recv blocks (asynchronously) until the
// value for its key is available.
//
// A rendezvous object lives for one step and is shared by all per-device
// executors participating in that step. The distributed runtime layers a
// remote transport behind the same interface.

#ifndef TFREPRO_RUNTIME_RENDEZVOUS_H_
#define TFREPRO_RUNTIME_RENDEZVOUS_H_

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/status.h"
#include "core/tensor.h"

namespace tfrepro {

// Builds the canonical key naming one value:
//   "<send_device>;<recv_device>;<tensor_name>;<frame_iter>"
// The frame/iteration component keeps concurrent loop iterations distinct
// when a loop body is split across devices (paper §3.4).
std::string RendezvousKey(const std::string& send_device,
                          const std::string& recv_device,
                          const std::string& tensor_name,
                          int64_t frame_iter = 0);

// True when a key's send and recv devices are on different tasks (their
// "/job:X/task:N" prefixes differ).
bool IsCrossTaskKey(const std::string& key);

// The task that receives a key's value: the "/job:X/task:N" prefix of its
// recv device. Empty for a key with fewer than two fields.
std::string RecvTaskOfKey(const std::string& key);

class Rendezvous {
 public:
  // `is_dead` propagates control-flow deadness across device boundaries.
  using DoneCallback =
      std::function<void(const Status&, const Tensor&, bool is_dead)>;

  virtual ~Rendezvous() = default;

  // Hash used for shard selection in bucketed implementations. Send/Recv
  // call sites compute it once per operation and pass it through the hashed
  // overloads below, so wrappers and the sharded table never rehash the key.
  static uint64_t KeyHash(const std::string& key) {
    return static_cast<uint64_t>(std::hash<std::string>{}(key));
  }

  virtual Status Send(const std::string& key, const Tensor& value,
                      bool is_dead) = 0;
  virtual void RecvAsync(const std::string& key, DoneCallback done) = 0;

  // Hashed variants with `key_hash == KeyHash(key)` precomputed by the
  // caller. The defaults discard the hash and forward to the plain
  // virtuals, so wrappers that only intercept those stay correct.
  virtual Status Send(const std::string& key, uint64_t key_hash,
                      const Tensor& value, bool is_dead) {
    (void)key_hash;
    return Send(key, value, is_dead);
  }
  virtual void RecvAsync(const std::string& key, uint64_t key_hash,
                         DoneCallback done) {
    (void)key_hash;
    RecvAsync(key, std::move(done));
  }

  // Aborts all pending and future operations with `status` (used to unblock
  // Recv when a step fails elsewhere).
  virtual void StartAbort(const Status& status) = 0;

  // Synchronous convenience wrapper over RecvAsync.
  Status Recv(const std::string& key, Tensor* value, bool* is_dead);
};

// In-process rendezvous used within one task: values are buffered until the
// matching Recv arrives (or vice versa).
//
// The table is sharded into kNumShards hash-indexed buckets, each with its
// own mutex and maps (DESIGN.md §9), so concurrent Send/Recv across keys
// no longer serialize on one lock. An abort fans out across every shard.
class LocalRendezvous : public Rendezvous {
 public:
  static constexpr int kNumShards = 16;  // a power of two

  LocalRendezvous() = default;

  // Releases any entries still buffered, keeping the process-wide
  // rendezvous.live_items / rendezvous.live_waiters gauges balanced — after
  // every step's rendezvous is destroyed both gauges read 0, so a non-zero
  // value is a leaked entry (chaos_test asserts this).
  ~LocalRendezvous() override;

  int num_shards() const { return kNumShards; }

  Status Send(const std::string& key, const Tensor& value,
              bool is_dead) override;
  void RecvAsync(const std::string& key, DoneCallback done) override;
  Status Send(const std::string& key, uint64_t key_hash, const Tensor& value,
              bool is_dead) override;
  void RecvAsync(const std::string& key, uint64_t key_hash,
                 DoneCallback done) override;
  void StartAbort(const Status& status) override;

 private:
  struct Item {
    Tensor value;
    bool is_dead = false;
  };
  // A parked Recv, stamped so the blocked time can be recorded when the
  // matching Send arrives (metrics: rendezvous.recv_wait_ms).
  struct Waiter {
    DoneCallback done;
    int64_t wait_start_micros = 0;
  };
  // One hash bucket of the key space. `aborted` is replicated per shard so
  // the Send/Recv hot path checks and updates only its own bucket's lock.
  struct Shard {
    std::mutex mu;
    Status aborted;
    std::unordered_map<std::string, std::deque<Item>> ready;
    std::unordered_map<std::string, std::deque<Waiter>> waiting;
  };

  Shard& shard(uint64_t key_hash) {
    return shards_[key_hash & (kNumShards - 1)];
  }

  std::array<Shard, kNumShards> shards_;
  // Serializes StartAbort calls only (first-abort-wins); never taken by
  // Send/Recv.
  std::mutex abort_mu_;
  bool abort_started_ = false;
};

}  // namespace tfrepro

#endif  // TFREPRO_RUNTIME_RENDEZVOUS_H_
