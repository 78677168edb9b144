// InOrderQueue: hands items that concurrent producers finish in any
// order to one consumer in index order, each as soon as every item
// before it has been taken.
//
// rddlite's wide stage runs its map tasks at once but writes their
// outputs into the shuffle collector in parent-partition order, so run
// names, stats and output match a serial map stage. Waiting for every
// task before writing any would keep every output resident at once;
// through the queue only the outputs that finished ahead of an earlier
// one wait, and each is freed once written.

#ifndef DATAMPI_BENCH_COMMON_IN_ORDER_QUEUE_H_
#define DATAMPI_BENCH_COMMON_IN_ORDER_QUEUE_H_

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/wait_graph.h"

namespace dmb {

template <typename T>
class InOrderQueue {
 public:
  /// \param n items, indexed 0..n-1.
  explicit InOrderQueue(size_t n) : slots_(n) {}

  InOrderQueue(const InOrderQueue&) = delete;
  InOrderQueue& operator=(const InOrderQueue&) = delete;

  /// \brief Item `i` is done (once per index; thread-safe). Dropped once
  /// the queue has stopped.
  void Put(size_t i, T item) {
    MutexLock lock(mu_);
    if (stopped_) return;
    slots_[i] = std::move(item);
    ++held_;
    if (i == next_) cv_.NotifyAll();
  }

  /// \brief The next item in index order, blocking until it is put;
  /// nullopt once every item has been taken or the queue has stopped.
  std::optional<T> Next() {
    MutexLock lock(mu_);
    while (!stopped_ && next_ < slots_.size() && !slots_[next_]) {
      WaitScope waiting(this, "InOrderQueue::Next");
      cv_.Wait(mu_);
    }
    if (stopped_ || next_ == slots_.size()) return std::nullopt;
    std::optional<T> item;
    item.swap(slots_[next_]);
    ++next_;
    --held_;
    return item;
  }

  /// \brief Takes nothing more: drops the held items and every later
  /// Put, and ends a blocked Next with nullopt (a producer or the
  /// consumer failed).
  void Stop() {
    MutexLock lock(mu_);
    stopped_ = true;
    for (auto& slot : slots_) slot.reset();
    held_ = 0;
    cv_.NotifyAll();
  }

  /// \brief Items put but not taken yet.
  size_t held() const {
    MutexLock lock(mu_);
    return held_;
  }

 private:
  mutable Mutex mu_;
  CondVar cv_;
  std::vector<std::optional<T>> slots_ DMB_GUARDED_BY(mu_);
  size_t next_ DMB_GUARDED_BY(mu_) = 0;
  size_t held_ DMB_GUARDED_BY(mu_) = 0;
  bool stopped_ DMB_GUARDED_BY(mu_) = false;
};

}  // namespace dmb

#endif  // DATAMPI_BENCH_COMMON_IN_ORDER_QUEUE_H_
