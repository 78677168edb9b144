#include "common/parallel.h"

#include <thread>
#include <utility>

namespace dmb {

ParallelContext::ParallelContext(Options options) {
  int threads = options.threads;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 1;
  }
  threads_ = threads;
  max_inflight_blocks_ = options.max_inflight_blocks > 0
                             ? options.max_inflight_blocks
                             : 2 * threads_;
  if (options.parallel_sort_threshold > 0) {
    sort_threshold_ = options.parallel_sort_threshold;
  }
  if (threads_ > 1) {
    pool_ = std::make_unique<ThreadPool>(threads_);
    block_slots_.store(max_inflight_blocks_, std::memory_order_relaxed);
  }
}

ParallelContext::~ParallelContext() = default;

bool ParallelContext::TryAcquireBlockSlot() {
  if (!enabled()) return true;
  int slots = block_slots_.load(std::memory_order_relaxed);
  while (slots > 0) {
    if (block_slots_.compare_exchange_weak(slots, slots - 1,
                                           std::memory_order_acquire,
                                           std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

void ParallelContext::ReleaseBlockSlot() {
  if (!enabled()) return;
  block_slots_.fetch_add(1, std::memory_order_release);
}

void TaskGroup::Run(std::function<void()> fn) {
  if (context_ == nullptr) {
    fn();
    return;
  }
  pending_.fetch_add(1, std::memory_order_relaxed);
  const bool submitted = context_->pool()->Submit(
      [this, fn = std::move(fn)]() mutable {
        fn();
        pending_.fetch_sub(1, std::memory_order_release);
      });
  if (!submitted) {
    // Pool shutting down (process teardown): run inline so Wait() holds.
    pending_.fetch_sub(1, std::memory_order_relaxed);
    fn();
    return;
  }
  ++spawned_;
  context_->CountSpawnedTask();
}

void TaskGroup::Wait() {
  if (context_ == nullptr) return;
  while (pending_.load(std::memory_order_acquire) != 0) {
    if (context_->pool()->RunUntil([this] {
          return pending_.load(std::memory_order_acquire) == 0;
        })) {
      return;
    }
    // Pool shut down mid-wait: workers drain already-queued tasks
    // before exiting, so the last decrement lands shortly — poll.
    std::this_thread::yield();
  }
}

}  // namespace dmb
