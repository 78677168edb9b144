// Runtime deadlock detection over a global wait-for graph.
//
// Every potentially-unbounded blocking wait in the runtime (ThreadPool
// RunUntil/Wait, BatchChannelGroup Push/Pull, the JobServer fair-queue
// park, the scheduler's plan-completion wait) registers a
// waiter->resource edge here, and every party that can *satisfy* such a
// wait registers as a holder of the resource (a pool thread running a
// task, a channel's producer / consumer, a worker running a job). When a
// BeginWait closes a fully-blocked closure — the waiter, every holder
// of its awaited resource, every holder of *their* awaited resources,
// and so on, are all blocked — a background monitor re-verifies the
// closure over several confirmation rounds (true deadlocks persist;
// wake-in-flight races dissolve) and then fails with the full cycle:
// thread, wait label, resource, and what each participant holds.
//
// The graph is compiled into every build but gated behind a runtime
// flag checked on the (already slow) blocking paths, so release builds
// pay one relaxed atomic load per park. The DMB_VALIDATE CMake option
// turns the flag on from process start; tests flip it explicitly.

#ifndef DATAMPI_BENCH_COMMON_WAIT_GRAPH_H_
#define DATAMPI_BENCH_COMMON_WAIT_GRAPH_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/mutex.h"

namespace dmb {

/// \brief Global wait-for graph with cycle detection (see file comment).
///
/// All methods are thread-safe; the internal mutex is a leaf lock (the
/// graph never calls out while holding it), so registration is safe
/// from inside any runtime critical section.
class WaitGraph {
 public:
  /// Resources are identified by a stable address (the owning object,
  /// or a distinct sub-object for multi-resource owners such as a
  /// channel partition's data vs. space side).
  using ResourceId = const void*;

  struct Options {
    /// Consecutive stable re-observations of a blocked closure before
    /// it is reported. True deadlocks persist indefinitely, so higher
    /// values only delay the report; transient candidates (a notified
    /// thread that has not yet deregistered) dissolve within a round.
    int confirm_rounds = 5;
    /// Delay between confirmation rounds.
    int confirm_interval_ms = 200;
  };

  /// Receives the formatted cycle report. The default (when unset or
  /// reset to nullptr) logs the report and aborts via DMB_CHECK.
  using FailureHandler = std::function<void(const std::string& report)>;

  static WaitGraph& Global();

  /// Cheap global gate; every instrumentation site checks this first.
  static bool enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }
  static void SetEnabled(bool on);

  void SetOptions(const Options& options);
  void SetFailureHandler(FailureHandler handler);

  /// The calling thread now holds (one unit of) `res`. `label` names
  /// the resource in reports; the first registration wins.
  void Acquired(ResourceId res, const std::string& label);
  /// Releases one unit previously registered via Acquired().
  void Released(ResourceId res);

  /// Replaces all holders of `res` with the calling thread (used by
  /// channel endpoints, where responsibility transfers with the role).
  void SetSoleHolder(ResourceId res, const std::string& label);
  /// Removes every holder of `res` (the resource can no longer block
  /// anyone — e.g. a closed channel partition).
  void ClearHolders(ResourceId res);

  /// The calling thread is about to block waiting for `res`. Runs
  /// cycle detection; candidates are handed to the confirmation
  /// monitor, and the caller proceeds into its real wait either way
  /// (a true deadlock keeps it parked until the report fires). Waits
  /// may nest (a task that RunUntil runs inline may park again): the
  /// outermost wait is the semantic edge.
  void BeginWait(ResourceId res, const std::string& label);
  /// The wait returned (woken, satisfied, or cancelled).
  void EndWait();

  /// Human-readable dump of the current graph (diagnostics/tests).
  std::string DebugString();

 private:
  WaitGraph() = default;

  struct ThreadState {
    /// Nested waits, outermost first: (resource, wait label).
    std::vector<std::pair<ResourceId, std::string>> wait_stack;
    /// Bumped when wait_stack goes empty -> nonempty; identifies one
    /// semantic park across inner help-while-wait churn.
    uint64_t outer_seq = 0;
    std::map<ResourceId, int> held;
  };
  struct Resource {
    std::string label;
    std::map<std::thread::id, int> holders;
  };
  struct Candidate {
    std::thread::id tid;
    std::string signature;
    int stable = 0;
  };

  bool BlockedClosureLocked(std::thread::id start,
                            std::set<std::thread::id>* closure)
      DMB_REQUIRES(mu_);
  std::string SignatureLocked(const std::set<std::thread::id>& closure)
      DMB_REQUIRES(mu_);
  std::string FormatReportLocked(std::thread::id start,
                                 const std::set<std::thread::id>& closure)
      DMB_REQUIRES(mu_);
  void StartMonitorLocked() DMB_REQUIRES(mu_);
  void MonitorLoop();
  static void InvokeFailure(const FailureHandler& handler,
                            const std::string& report);

  Mutex mu_;
  std::map<std::thread::id, ThreadState> threads_ DMB_GUARDED_BY(mu_);
  std::map<ResourceId, Resource> resources_ DMB_GUARDED_BY(mu_);
  std::vector<Candidate> candidates_ DMB_GUARDED_BY(mu_);
  Options options_ DMB_GUARDED_BY(mu_);
  FailureHandler handler_ DMB_GUARDED_BY(mu_);
  bool monitor_started_ DMB_GUARDED_BY(mu_) = false;
  CondVar monitor_cv_;

  static std::atomic<bool> enabled_;
};

/// \brief RAII BeginWait/EndWait pair; no-op when the graph is off.
class WaitScope {
 public:
  WaitScope(WaitGraph::ResourceId res, const std::string& label) {
    if (WaitGraph::enabled()) {
      active_ = true;
      WaitGraph::Global().BeginWait(res, label);
    }
  }
  ~WaitScope() {
    if (active_) WaitGraph::Global().EndWait();
  }
  WaitScope(const WaitScope&) = delete;
  WaitScope& operator=(const WaitScope&) = delete;

 private:
  bool active_ = false;
};

/// \brief RAII Acquired/Released pair; no-op when the graph is off.
class HoldScope {
 public:
  HoldScope(WaitGraph::ResourceId res, const std::string& label)
      : res_(res) {
    if (WaitGraph::enabled()) {
      active_ = true;
      WaitGraph::Global().Acquired(res_, label);
    }
  }
  ~HoldScope() {
    if (active_) WaitGraph::Global().Released(res_);
  }
  HoldScope(const HoldScope&) = delete;
  HoldScope& operator=(const HoldScope&) = delete;

 private:
  WaitGraph::ResourceId res_;
  bool active_ = false;
};

}  // namespace dmb

#endif  // DATAMPI_BENCH_COMMON_WAIT_GRAPH_H_
