// Admission control for the tuning service: bounded session-affinity
// sharded FIFOs with load shedding, plus an unbounded cancel-resolution
// lane.
//
//  * Shedding — Admit() rejects with ResourceExhausted (and a retry-after
//    hint the protocol layer forwards to clients) when the queues hold
//    max_queue_depth sessions in total, or when the executor backlog probe
//    — wired to ThreadPool::PendingCount() by the server — reports the
//    pool already saturated. Rejecting at the door keeps latency bounded
//    instead of letting the queue grow without limit.
//
//  * Dispatch — Next(shard) blocks until a session is queued on that
//    shard and pops exactly one. The server's dispatcher calls it only
//    while it holds a free in-flight slot (server.h), so sessions waiting
//    for a slot stay queued here, where shedding and the shutdown-cancels-
//    queued contract still see them.
//
//  * Session affinity — a session id always lands on shard
//    `id % num_shards`, so every job of one session is dispatched by the
//    same dispatcher thread, in submit order, and one hot session (long
//    jobs, tight resubmit loop) can only ever saturate its own shard
//    while the other dispatchers keep draining theirs.
//
//  * Cancel lane — AdmitCancel() enqueues a session whose pending cancel
//    just needs resolving (RunJob with the cancel flag set resolves
//    without running). The lane is unbounded and never shed: losing a
//    cancel would strand the session queued forever, and each entry costs
//    one O(1) resolution, not a tuning job.

#ifndef SLICETUNER_SERVE_ADMISSION_H_
#define SLICETUNER_SERVE_ADMISSION_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <vector>

#include "common/status.h"

namespace slicetuner {
namespace serve {

struct AdmissionOptions {
  /// Queue slots (across all shards) before Admit sheds load.
  size_t max_queue_depth = 16;
  /// Retry hint attached to shed rejections.
  int retry_after_ms = 50;
  /// When > 0, Admit also sheds while backlog_probe() exceeds this bound.
  size_t max_executor_backlog = 0;
  /// Executor saturation signal (e.g. the shared pool's PendingCount).
  std::function<size_t()> backlog_probe;
  /// Session-affinity dispatch shards; the server runs one dispatcher
  /// thread per shard. 1 preserves the single strict-FIFO dispatcher.
  size_t num_shards = 1;
};

struct AdmissionStats {
  size_t admitted = 0;
  size_t shed_queue_full = 0;
  size_t shed_backlog = 0;
  size_t max_depth_seen = 0;
  size_t cancels_admitted = 0;
};

class AdmissionController {
 public:
  explicit AdmissionController(AdmissionOptions options = {});

  /// Enqueues a session id on its affinity shard, or sheds:
  /// ResourceExhausted with the configured retry-after encoded for the
  /// caller via retry_after_ms().
  Status Admit(uint64_t session_id);

  /// Blocks until a session is queued on `shard` and pops it (FIFO). After
  /// Stop() it keeps popping what is left on the shard, then returns
  /// nullopt.
  std::optional<uint64_t> Next(size_t shard = 0);

  /// Enqueues a session on the cancel-resolution lane (unbounded, never
  /// shed; accepted even after Stop so in-flight sheds still resolve).
  void AdmitCancel(uint64_t session_id);

  /// Blocks until cancel work arrives (returning all of it) or Stop() was
  /// called (returning what is left, possibly empty).
  std::vector<uint64_t> NextCancels();

  /// Unblocks Next/NextCancels; subsequent Admit calls fail
  /// FailedPrecondition.
  void Stop();

  /// Queued sessions across all shards (cancel lane excluded).
  size_t depth() const;
  size_t num_shards() const { return options_.num_shards; }
  int retry_after_ms() const { return options_.retry_after_ms; }
  AdmissionStats stats() const;

 private:
  size_t TotalDepthLocked() const;

  AdmissionOptions options_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable cancel_cv_;
  std::vector<std::deque<uint64_t>> queues_;  // one per shard
  std::deque<uint64_t> cancels_;
  AdmissionStats stats_;
  bool stopped_ = false;
};

}  // namespace serve
}  // namespace slicetuner

#endif  // SLICETUNER_SERVE_ADMISSION_H_
