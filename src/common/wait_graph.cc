#include "common/wait_graph.h"

#include <chrono>
#include <sstream>

#include "common/logging.h"

namespace dmb {

std::atomic<bool> WaitGraph::enabled_{false};

#ifdef DMB_VALIDATE
// -DDMB_VALIDATE=ON builds run with the detector armed from process
// start, so every existing suite doubles as a no-false-positive check.
namespace {
const bool g_validate_arms_wait_graph = [] {
  WaitGraph::SetEnabled(true);
  return true;
}();
}  // namespace
#endif

WaitGraph& WaitGraph::Global() {
  // Leaked singleton: the monitor thread may still touch it during
  // process teardown, so it must outlive static destruction.
  static WaitGraph* graph = new WaitGraph();
  return *graph;
}

void WaitGraph::SetEnabled(bool on) {
  Global();  // force construction before first use
  enabled_.store(on, std::memory_order_relaxed);
}

void WaitGraph::SetOptions(const Options& options) {
  MutexLock lock(mu_);
  options_ = options;
}

void WaitGraph::SetFailureHandler(FailureHandler handler) {
  MutexLock lock(mu_);
  handler_ = std::move(handler);
}

void WaitGraph::Acquired(ResourceId res, const std::string& label) {
  const std::thread::id me = std::this_thread::get_id();
  MutexLock lock(mu_);
  ++threads_[me].held[res];
  Resource& r = resources_[res];
  if (r.label.empty()) r.label = label;
  ++r.holders[me];
}

void WaitGraph::Released(ResourceId res) {
  const std::thread::id me = std::this_thread::get_id();
  MutexLock lock(mu_);
  auto tit = threads_.find(me);
  if (tit != threads_.end()) {
    auto hit = tit->second.held.find(res);
    if (hit != tit->second.held.end() && --hit->second == 0) {
      tit->second.held.erase(hit);
    }
  }
  auto rit = resources_.find(res);
  if (rit == resources_.end()) return;
  auto hit = rit->second.holders.find(me);
  if (hit == rit->second.holders.end() && !rit->second.holders.empty()) {
    // Cross-thread handoff (acquired on one thread, released on
    // another): drop a unit from some registered holder rather than
    // leaving a stale edge behind.
    hit = rit->second.holders.begin();
    auto tit = threads_.find(hit->first);
    if (tit != threads_.end()) {
      auto held = tit->second.held.find(res);
      if (held != tit->second.held.end() && --held->second == 0) {
        tit->second.held.erase(held);
      }
    }
  }
  if (hit != rit->second.holders.end() && --hit->second == 0) {
    rit->second.holders.erase(hit);
  }
  if (rit->second.holders.empty()) resources_.erase(rit);
}

void WaitGraph::SetSoleHolder(ResourceId res, const std::string& label) {
  const std::thread::id me = std::this_thread::get_id();
  MutexLock lock(mu_);
  Resource& r = resources_[res];
  r.label = label;
  if (r.holders.size() == 1 && r.holders.begin()->first == me) return;
  for (const auto& [holder, count] : r.holders) {
    (void)count;
    auto tit = threads_.find(holder);
    if (tit != threads_.end()) tit->second.held.erase(res);
  }
  r.holders.clear();
  r.holders[me] = 1;
  threads_[me].held[res] = 1;
}

void WaitGraph::ClearHolders(ResourceId res) {
  MutexLock lock(mu_);
  auto rit = resources_.find(res);
  if (rit == resources_.end()) return;
  for (const auto& [holder, count] : rit->second.holders) {
    (void)count;
    auto tit = threads_.find(holder);
    if (tit != threads_.end()) tit->second.held.erase(res);
  }
  resources_.erase(rit);
}

void WaitGraph::BeginWait(ResourceId res, const std::string& label) {
  const std::thread::id me = std::this_thread::get_id();
  MutexLock lock(mu_);
  ThreadState& ts = threads_[me];
  if (ts.wait_stack.empty()) ++ts.outer_seq;
  ts.wait_stack.emplace_back(res, label);

  std::set<std::thread::id> closure;
  if (!BlockedClosureLocked(me, &closure)) return;
  for (const Candidate& c : candidates_) {
    if (c.tid == me) return;  // already being confirmed
  }
  candidates_.push_back(Candidate{me, SignatureLocked(closure), 0});
  StartMonitorLocked();
  monitor_cv_.NotifyOne();
}

void WaitGraph::EndWait() {
  const std::thread::id me = std::this_thread::get_id();
  MutexLock lock(mu_);
  auto tit = threads_.find(me);
  if (tit == threads_.end() || tit->second.wait_stack.empty()) return;
  tit->second.wait_stack.pop_back();
  if (tit->second.wait_stack.empty()) ++tit->second.outer_seq;
}

bool WaitGraph::BlockedClosureLocked(std::thread::id start,
                                     std::set<std::thread::id>* closure) {
  // The closure of `start` is deadlocked iff every reachable thread is
  // blocked and every awaited resource's holders are all inside the
  // closure: then no participant can ever be woken (by induction, the
  // only threads that could satisfy any wait are themselves frozen).
  // One runnable holder, or a resource with no registered holder (an
  // outside party may still act), disproves the candidate.
  std::vector<std::thread::id> work{start};
  closure->clear();
  while (!work.empty()) {
    const std::thread::id t = work.back();
    work.pop_back();
    if (!closure->insert(t).second) continue;
    auto tit = threads_.find(t);
    if (tit == threads_.end() || tit->second.wait_stack.empty()) {
      return false;  // runnable participant: not a deadlock
    }
    auto rit = resources_.find(tit->second.wait_stack.front().first);
    if (rit == resources_.end() || rit->second.holders.empty()) {
      return false;  // nobody registered: an outside wake is possible
    }
    for (const auto& [holder, count] : rit->second.holders) {
      (void)count;
      work.push_back(holder);
    }
  }
  return true;
}

std::string WaitGraph::SignatureLocked(
    const std::set<std::thread::id>& closure) {
  // Any Begin/EndWait by a member changes its outer_seq (help-while-
  // wait churn inside one semantic park does not), so a stable
  // signature across confirmation rounds means nobody progressed.
  std::ostringstream out;
  for (const std::thread::id& t : closure) {
    auto tit = threads_.find(t);
    out << t << ':'
        << (tit == threads_.end() ? 0 : tit->second.outer_seq);
    if (tit != threads_.end() && !tit->second.wait_stack.empty()) {
      out << '@' << tit->second.wait_stack.front().first;
    }
    out << ';';
  }
  return out.str();
}

std::string WaitGraph::FormatReportLocked(
    std::thread::id start, const std::set<std::thread::id>& closure) {
  // Walk waiter -> awaited resource -> (first) holder until a thread
  // repeats; the suffix from its first occurrence is a concrete cycle.
  std::vector<std::thread::id> path;
  std::map<std::thread::id, size_t> pos;
  std::thread::id t = start;
  while (pos.find(t) == pos.end()) {
    pos[t] = path.size();
    path.push_back(t);
    const auto& ts = threads_.at(t);
    const auto& res = resources_.at(ts.wait_stack.front().first);
    t = res.holders.begin()->first;
  }
  const size_t first = pos[t];

  std::ostringstream out;
  out << "WaitGraph: deadlock detected (" << closure.size()
      << " thread(s) in a fully blocked wait closure)\n";
  for (size_t i = first; i < path.size(); ++i) {
    const std::thread::id tid = path[i];
    const ThreadState& ts = threads_.at(tid);
    const auto& [res, wait_label] = ts.wait_stack.front();
    const Resource& r = resources_.at(res);
    out << "  -> thread " << tid << " waiting [" << wait_label
        << "] on \"" << r.label << "\"";
    if (!ts.held.empty()) {
      out << ", holds:";
      for (const auto& [held_res, count] : ts.held) {
        auto rit = resources_.find(held_res);
        out << " \""
            << (rit == resources_.end() ? "<unknown>" : rit->second.label)
            << "\"";
        if (count > 1) out << " x" << count;
      }
    }
    out << "\n";
  }
  out << "  -> back to thread " << path[first] << " (cycle closed)";
  return out.str();
}

void WaitGraph::StartMonitorLocked() {
  if (monitor_started_) return;
  monitor_started_ = true;
  // Detached: the singleton is leaked, so the monitor may safely run
  // until process exit. It sleeps whenever no candidate is pending.
  std::thread([this] { MonitorLoop(); }).detach();
}

// The monitor holds mu_ across loop iterations and releases it only
// around the confirmation sleep and the handler call; the function
// never returns, which the static analysis cannot express.
void WaitGraph::MonitorLoop() DMB_NO_THREAD_SAFETY_ANALYSIS {
  mu_.Lock();
  for (;;) {
    while (candidates_.empty()) monitor_cv_.Wait(mu_);
    const int interval_ms = options_.confirm_interval_ms;
    mu_.Unlock();
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    mu_.Lock();
    std::vector<std::string> reports;
    for (auto it = candidates_.begin(); it != candidates_.end();) {
      std::set<std::thread::id> closure;
      if (!BlockedClosureLocked(it->tid, &closure)) {
        it = candidates_.erase(it);  // somebody can run: not stuck
        continue;
      }
      std::string signature = SignatureLocked(closure);
      if (signature != it->signature) {
        // Somebody progressed, but the closure is blocked again: confirm
        // the new state from scratch. Dropping the candidate here would
        // lose a real deadlock whose last park found this candidate
        // still pending (BeginWait adds one candidate per thread).
        it->signature = std::move(signature);
        it->stable = 0;
        ++it;
        continue;
      }
      if (++it->stable >= options_.confirm_rounds) {
        reports.push_back(FormatReportLocked(it->tid, closure));
        it = candidates_.erase(it);
      } else {
        ++it;
      }
    }
    if (!reports.empty()) {
      const FailureHandler handler = handler_;
      mu_.Unlock();
      for (const std::string& report : reports) {
        InvokeFailure(handler, report);
      }
      mu_.Lock();
    }
  }
}

void WaitGraph::InvokeFailure(const FailureHandler& handler,
                              const std::string& report) {
  if (handler) {
    handler(report);
    return;
  }
  DMB_CHECK(false) << report;
}

std::string WaitGraph::DebugString() {
  MutexLock lock(mu_);
  std::ostringstream out;
  out << "WaitGraph{threads=" << threads_.size()
      << " resources=" << resources_.size()
      << " candidates=" << candidates_.size() << "}\n";
  for (const auto& [tid, ts] : threads_) {
    if (ts.wait_stack.empty() && ts.held.empty()) continue;
    out << "  thread " << tid;
    if (!ts.wait_stack.empty()) {
      out << " waits[" << ts.wait_stack.back().second << "]";
    }
    if (!ts.held.empty()) out << " holds " << ts.held.size();
    out << "\n";
  }
  return out.str();
}

}  // namespace dmb
