// Deterministic, nestable parallel-for on top of ThreadPool.
//
// The calling thread participates in the loop and only waits for helper
// tasks that actually *started*, so the construct is safe to nest (a pool
// worker blocked inside a ParallelFor can never deadlock the pool: the
// caller alone is guaranteed to drain the iteration space even if no helper
// ever gets a worker). Engine sessions (engine/experiment_runner.h),
// curve-estimation grids, and tensor kernels all fan out through it.
//
// This lives in common/ (not engine/) because it is the concurrency
// primitive of *both* levels of the performance stack: the engine fans
// inter-slice work (model trainings, experiment cells) across the pool, and
// the tensor kernels fan intra-op row blocks across the same pool. Sharing
// one DefaultThreadPool bounds the process to workers + callers no matter
// how the two levels nest — that is the oversubscription guard. Kernels can
// additionally consult ParallelForDepth() to skip intra-op fan-out when they
// are already running inside an engine-level lane.
//
// Determinism contract: the seeded variant hands iteration i an Rng derived
// as Rng(root_seed).Fork(i). Child streams depend only on (root_seed, i) —
// never on which thread runs the iteration or in which order — so results
// written into per-index slots are bit-identical at 1, 2, or N threads.

#ifndef SLICETUNER_COMMON_PARALLEL_FOR_H_
#define SLICETUNER_COMMON_PARALLEL_FOR_H_

#include <cstddef>
#include <functional>

#include "common/random.h"
#include "common/thread_pool.h"

namespace slicetuner {

/// Execution knobs shared by the engine entry points.
struct ParallelOptions {
  /// 1 = run serially on the calling thread (the byte-for-byte fallback);
  /// 0 (or any value < 1 other than 1) = use every worker of the pool;
  /// N > 1 = at most N concurrent lanes.
  int num_threads = 0;
  /// Pool to borrow helpers from; nullptr = DefaultThreadPool().
  ThreadPool* pool = nullptr;
};

/// Runs fn(i) for i in [0, n). fn must be safe to invoke concurrently for
/// distinct i unless num_threads == 1.
void ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                 const ParallelOptions& options = {});

/// Runs fn(i, rng_i) for i in [0, n) where rng_i = Rng(root_seed).Fork(i).
void ParallelForSeeded(uint64_t root_seed, size_t n,
                       const std::function<void(size_t, Rng&)>& fn,
                       const ParallelOptions& options = {});

/// Resolves `options` to the effective lane count for `n` iterations
/// (>= 1; 1 means the serial path).
size_t EffectiveThreads(size_t n, const ParallelOptions& options);

/// Number of multi-lane ParallelFor loops enclosing the calling thread's
/// current stack frame (0 outside any loop, on a pool worker before it
/// claims an iteration, and inside loops running on the serial fallback —
/// a serial loop occupies no worker, so nested code may still fan out).
/// The tensor kernels use this to run serially when an engine-level fan-out
/// already owns the pool, instead of flooding the queue with helper tasks
/// that would never start.
int ParallelForDepth();

}  // namespace slicetuner

#endif  // SLICETUNER_COMMON_PARALLEL_FOR_H_
