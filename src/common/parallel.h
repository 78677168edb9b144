// Intra-task parallelism context shared by the shuffle and io layers.
//
// The engines already parallelize *across* tasks (one thread per map /
// reduce slot); ParallelContext is the budgeted worker pool that lets a
// single task parallelize *within* itself — fanning radix sort buckets
// out as sub-sorts, compressing spill blocks while the producer keeps
// appending, spilling sealed partitions concurrently, prefetching merge
// blocks — without oversubscribing the machine. One context is owned by
// the engine (not per task), so N concurrent tasks share one pool of
// `threads` workers and one inflight-block budget instead of creating
// N x threads of each.
//
// Deadlock freedom: the one join in this header is help-while-wait
// (ThreadPool::RunUntil) — a thread blocked on a TaskGroup join
// executes queued pool tasks inline, so progress never depends on a
// free worker — and the inflight-block budget is never waited on. The
// one rule tasks must follow: never block on anything that only the
// submitting thread can release.
//
// A null ParallelContext* (or one constructed with threads == 1) means
// "serial" everywhere: callers fall back to their single-threaded path,
// which the parallel paths are byte-identical to by construction.

#ifndef DATAMPI_BENCH_COMMON_PARALLEL_H_
#define DATAMPI_BENCH_COMMON_PARALLEL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>

#include "common/thread_pool.h"

namespace dmb {

/// \brief Shared pool + inflight budget for intra-task shuffle work.
class ParallelContext {
 public:
  struct Options {
    /// Worker threads. 0 = hardware_concurrency; 1 = serial (no pool is
    /// created and enabled() is false).
    int threads = 0;
    /// Spill blocks allowed in flight (compressing or compressed but
    /// not yet written) per writer pipeline. 0 = 2x threads. Bounds the
    /// extra memory an overlapped writer holds to
    /// max_inflight_blocks x block_bytes (plus compression output).
    int max_inflight_blocks = 0;
    /// Slices below this record count sort serially even with a pool
    /// (the fan-out overhead beats the win on small inputs).
    /// 0 = default (64K records).
    int64_t parallel_sort_threshold = 0;
  };

  static constexpr int64_t kDefaultSortThreshold = 64 << 10;

  explicit ParallelContext(Options options);
  ~ParallelContext();

  ParallelContext(const ParallelContext&) = delete;
  ParallelContext& operator=(const ParallelContext&) = delete;

  /// \brief True when a pool exists (resolved threads > 1). When false
  /// every consumer must take its serial path.
  bool enabled() const { return pool_ != nullptr; }

  /// \brief The shared pool; null when serial.
  ThreadPool* pool() const { return pool_.get(); }

  int threads() const { return threads_; }
  int max_inflight_blocks() const { return max_inflight_blocks_; }
  int64_t parallel_sort_threshold() const { return sort_threshold_; }

  /// \brief Acquires one inflight-block slot if any is free; returns
  /// false when the budget is exhausted (always true when serial).
  /// There is no blocking form: a writer finding the budget empty
  /// retires its own in-flight blocks, or writes the block itself when
  /// it has none. Parking on the budget could deadlock: the parked
  /// writer may be running inline (help-while-wait) on the stack of the
  /// writer holding the slots.
  bool TryAcquireBlockSlot();
  /// \brief Releases a slot acquired by TryAcquireBlockSlot.
  void ReleaseBlockSlot();

  /// \brief Tasks handed to the pool through TaskGroup::Run and the
  /// writer/prefetch pipelines — the EngineStats::parallel_shuffle_tasks
  /// source.
  int64_t tasks_spawned() const {
    return tasks_spawned_.load(std::memory_order_relaxed);
  }
  void CountSpawnedTask() {
    tasks_spawned_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  int threads_ = 1;
  int max_inflight_blocks_ = 0;
  int64_t sort_threshold_ = kDefaultSortThreshold;
  std::unique_ptr<ThreadPool> pool_;
  std::atomic<int> block_slots_{0};
  std::atomic<int64_t> tasks_spawned_{0};
};

/// \brief Fork/join helper over a ParallelContext: Run() hands closures
/// to the shared pool (or runs them inline when serial / the pool is
/// shutting down), Wait() joins help-while-wait. Not thread-safe: one
/// owner thread calls Run and Wait; only the spawned closures run
/// elsewhere. Reusable after Wait().
class TaskGroup {
 public:
  /// \param context may be null (serial: Run executes inline).
  explicit TaskGroup(ParallelContext* context)
      : context_(context != nullptr && context->enabled() ? context
                                                          : nullptr) {}
  ~TaskGroup() { Wait(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// \brief True when tasks actually fan out to a pool.
  bool parallel() const { return context_ != nullptr; }

  /// \brief Runs `fn` on the pool, or inline when serial.
  void Run(std::function<void()> fn);

  /// \brief Blocks until every Run() closure has finished, helping the
  /// pool drain while waiting.
  void Wait();

  /// \brief Closures handed to the pool (0 on the serial path).
  int64_t spawned() const { return spawned_; }

 private:
  ParallelContext* context_;
  std::atomic<int64_t> pending_{0};
  int64_t spawned_ = 0;
};

}  // namespace dmb

#endif  // DATAMPI_BENCH_COMMON_PARALLEL_H_
