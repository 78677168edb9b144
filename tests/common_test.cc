// Tests for src/common: status/result, units, rng + zipf, hashing,
// byte buffers, time series, properties, temp dirs, thread pool.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <numeric>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "common/byte_buffer.h"
#include "common/hash.h"
#include "common/parallel.h"
#include "common/properties.h"
#include "common/random.h"
#include "common/status.h"
#include "common/table_printer.h"
#include "common/temp_dir.h"
#include "common/thread_pool.h"
#include "common/time_series.h"
#include "common/units.h"

namespace dmb {
namespace {

// ---- Status / Result ----

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, CodesAndMessages) {
  Status st = Status::IOError("disk gone");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsIOError());
  EXPECT_EQ(st.ToString(), "IOError: disk gone");
  Status ctx = st.WithContext("reading block 7");
  EXPECT_EQ(ctx.ToString(), "IOError: reading block 7: disk gone");
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> good = 42;
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 42);
  Result<int> bad = Status::NotFound("nope");
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsNotFound());
  EXPECT_EQ(bad.ValueOr(-1), -1);
}

Result<int> ParsePositive(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return x * 2;
}

Status UseAssignOrReturn(int x, int* out) {
  DMB_ASSIGN_OR_RETURN(int doubled, ParsePositive(x));
  *out = doubled;
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseAssignOrReturn(21, &out).ok());
  EXPECT_EQ(out, 42);
  EXPECT_FALSE(UseAssignOrReturn(-1, &out).ok());
}

// ---- Units ----

TEST(UnitsTest, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(8 * kGiB), "8.0 GiB");
  EXPECT_EQ(FormatBytes(256 * kMiB), "256.0 MiB");
}

TEST(UnitsTest, ParseBytesRoundTrips) {
  EXPECT_EQ(ParseBytes("256MB"), 256 * kMiB);
  EXPECT_EQ(ParseBytes("8GiB"), 8 * kGiB);
  EXPECT_EQ(ParseBytes("64k"), 64 * kKiB);
  EXPECT_EQ(ParseBytes("1.5GB"), kGiB + kGiB / 2);
  EXPECT_EQ(ParseBytes("123"), 123);
  EXPECT_EQ(ParseBytes("garbage"), -1);
  EXPECT_EQ(ParseBytes(""), -1);
  EXPECT_EQ(ParseBytes("12XB"), -1);
}

// ---- Rng / Zipf ----

TEST(RngTest, DeterministicForSeed) {
  Rng a(7), b(7), c(8);
  EXPECT_EQ(a.Next64(), b.Next64());
  EXPECT_NE(a.Next64(), c.Next64());
}

TEST(RngTest, UniformBoundsRespected) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
    const int64_t v = rng.UniformRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, DoublesInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  double sum = 0, sum2 = 0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.02);
  EXPECT_NEAR(sum2 / kN, 1.0, 0.03);
}

class ZipfParamTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfParamTest, EmpiricalFrequenciesFollowPmf) {
  const double s = GetParam();
  constexpr uint64_t kN = 1000;
  ZipfSampler zipf(kN, s);
  Rng rng(101);
  constexpr int kSamples = 200000;
  std::vector<int> histogram(kN, 0);
  for (int i = 0; i < kSamples; ++i) {
    const uint64_t k = zipf.Sample(&rng);
    ASSERT_LT(k, kN);
    ++histogram[k];
  }
  // Head items must match the analytic pmf within a few percent.
  for (uint64_t k : {0ull, 1ull, 2ull, 5ull, 10ull}) {
    const double expect = zipf.Pmf(k) * kSamples;
    EXPECT_NEAR(histogram[k], expect, std::max(40.0, expect * 0.08))
        << "rank " << k << " s=" << s;
  }
  // Monotone head: rank 0 strictly more popular than rank 20.
  EXPECT_GT(histogram[0], histogram[20]);
}

INSTANTIATE_TEST_SUITE_P(Exponents, ZipfParamTest,
                         ::testing::Values(0.8, 1.0, 1.2));

// ---- Hashing ----

TEST(HashTest, StableKnownValues) {
  // Values must never change across runs/platforms (partitioning
  // stability); pin them.
  const uint64_t h = Hash64("datampi");
  EXPECT_EQ(h, Hash64("datampi"));
  EXPECT_NE(Hash64("datampi"), Hash64("datampj"));
  EXPECT_NE(Hash64("", 0), Hash64("", 1));
}

TEST(HashTest, AllLengthsUpTo64RoundTripDistinctly) {
  std::set<uint64_t> seen;
  std::string s;
  for (int len = 0; len <= 64; ++len) {
    seen.insert(Hash64(s));
    s.push_back(static_cast<char>('a' + len % 26));
  }
  EXPECT_EQ(seen.size(), 65u) << "no collisions on trivial inputs";
}

// ---- ByteBuffer / varint ----

TEST(ByteBufferTest, VarintRoundTripEdgeCases) {
  ByteBuffer buf;
  const std::vector<uint64_t> values = {0,    1,     127,        128,
                                        255,  16384, 0xFFFFFFFF, uint64_t(-1)};
  for (uint64_t v : values) buf.AppendVarint(v);
  ByteReader reader(buf);
  for (uint64_t v : values) {
    uint64_t out;
    ASSERT_TRUE(reader.ReadVarint(&out).ok());
    EXPECT_EQ(out, v);
  }
  EXPECT_TRUE(reader.AtEnd());
}

TEST(ByteBufferTest, SignedVarintZigZag) {
  ByteBuffer buf;
  const std::vector<int64_t> values = {0, -1, 1, -64, 64, INT64_MIN,
                                       INT64_MAX};
  for (int64_t v : values) buf.AppendVarintSigned(v);
  ByteReader reader(buf);
  for (int64_t v : values) {
    int64_t out;
    ASSERT_TRUE(reader.ReadVarintSigned(&out).ok());
    EXPECT_EQ(out, v);
  }
}

TEST(ByteBufferTest, LengthPrefixedZeroCopy) {
  ByteBuffer buf;
  buf.AppendLengthPrefixed("hello");
  buf.AppendLengthPrefixed("");
  ByteReader reader(buf);
  std::string_view a, b;
  ASSERT_TRUE(reader.ReadLengthPrefixed(&a).ok());
  ASSERT_TRUE(reader.ReadLengthPrefixed(&b).ok());
  EXPECT_EQ(a, "hello");
  EXPECT_EQ(b, "");
}

TEST(ByteBufferTest, TruncatedReadsFail) {
  ByteBuffer buf;
  buf.AppendLengthPrefixed("hello");
  ByteReader reader(buf.data(), buf.size() - 1);
  std::string_view out;
  EXPECT_FALSE(reader.ReadLengthPrefixed(&out).ok());
}

// ---- TimeSeries ----

TEST(TimeSeriesTest, SampleAndHoldSemantics) {
  TimeSeries ts("x");
  ts.Add(1.0, 10.0);
  ts.Add(3.0, 20.0);
  EXPECT_EQ(ts.ValueAt(0.5), 0.0);
  EXPECT_EQ(ts.ValueAt(1.0), 10.0);
  EXPECT_EQ(ts.ValueAt(2.9), 10.0);
  EXPECT_EQ(ts.ValueAt(3.0), 20.0);
  EXPECT_EQ(ts.ValueAt(100.0), 20.0);
}

TEST(TimeSeriesTest, IntegralAndAverage) {
  TimeSeries ts("x");
  ts.Add(0.0, 10.0);
  ts.Add(10.0, 0.0);
  // 10 for t in [0,10), 0 after.
  EXPECT_NEAR(ts.IntegralOver(0, 20), 100.0, 1e-9);
  EXPECT_NEAR(ts.AverageOver(0, 20), 5.0, 1e-9);
  EXPECT_NEAR(ts.AverageOver(0, 10), 10.0, 1e-9);
  EXPECT_NEAR(ts.AverageOver(5, 15), 5.0, 1e-9);
}

TEST(TimeSeriesTest, ResampleGrid) {
  TimeSeries ts("x");
  ts.Add(0.0, 1.0);
  ts.Add(2.5, 3.0);
  auto grid = ts.Resample(5.0, 1.0);
  ASSERT_EQ(grid.size(), 6u);
  EXPECT_EQ(grid[0], 1.0);
  EXPECT_EQ(grid[2], 1.0);
  EXPECT_EQ(grid[3], 3.0);
  EXPECT_EQ(grid[5], 3.0);
}

// ---- Properties ----

TEST(PropertiesTest, TypedGetters) {
  Properties p;
  p.Set("dfs.block.size", "256MB");
  p.SetInt("tasks", 4);
  p.SetBool("compress", true);
  p.SetDouble("ratio", 0.5);
  EXPECT_EQ(p.GetBytes("dfs.block.size", 0), 256 * kMiB);
  EXPECT_EQ(p.GetInt("tasks", 0), 4);
  EXPECT_TRUE(p.GetBool("compress", false));
  EXPECT_DOUBLE_EQ(p.GetDouble("ratio", 0), 0.5);
  EXPECT_EQ(p.GetInt("missing", -3), -3);
}

TEST(PropertiesTest, ParseAndToStringRoundTrip) {
  auto parsed = Properties::Parse(
      "a=1\n# comment\n  b = two  \n\nc=3 # trailing\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->Get("a"), "1");
  EXPECT_EQ(parsed->Get("b"), "two");
  EXPECT_EQ(parsed->Get("c"), "3");
  auto reparsed = Properties::Parse(parsed->ToString());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->map(), parsed->map());
}

TEST(PropertiesTest, ParseErrors) {
  EXPECT_FALSE(Properties::Parse("novalue\n").ok());
  EXPECT_FALSE(Properties::Parse("=x\n").ok());
}

// ---- TempDir / file IO ----

TEST(TempDirTest, CreatesAndCleansUp) {
  std::filesystem::path path;
  {
    TempDir dir("dmb-test");
    path = dir.path();
    EXPECT_TRUE(std::filesystem::exists(path));
    ASSERT_TRUE(WriteFileBytes(dir.File("x.bin"), "payload").ok());
    auto read = ReadFileBytes(dir.File("x.bin"));
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(*read, "payload");
  }
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(TempDirTest, ReadMissingFileFails) {
  TempDir dir;
  EXPECT_FALSE(ReadFileBytes(dir.File("missing")).ok());
}

// ---- ThreadPool ----

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 1000; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 1000);
}

TEST(ThreadPoolTest, WaitBlocksUntilIdle) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      done.fetch_add(1);
    });
  }
  pool.Wait();
  EXPECT_EQ(done.load(), 8);
}

TEST(ThreadPoolTest, SubmitAfterShutdownIsSafelyIgnored) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  EXPECT_TRUE(pool.Submit([&counter] { counter.fetch_add(1); }));
  pool.Wait();
  pool.Shutdown();
  EXPECT_FALSE(pool.Submit([&counter] { counter.fetch_add(100); }));
  EXPECT_FALSE(pool.Submit([&counter] { counter.fetch_add(100); }));
  EXPECT_EQ(counter.load(), 1) << "post-shutdown tasks must be dropped";
}

TEST(ThreadPoolTest, ConcurrentSubmitAndWait) {
  // Several producer threads submit while another thread sits in Wait();
  // every accepted task must have run by the time all waits return.
  ThreadPool pool(4);
  std::atomic<int> accepted{0}, executed{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        if (pool.Submit([&executed] { executed.fetch_add(1); })) {
          accepted.fetch_add(1);
        }
      }
    });
  }
  std::thread waiter([&pool] {
    for (int i = 0; i < 10; ++i) pool.Wait();
  });
  for (auto& t : producers) t.join();
  waiter.join();
  pool.Wait();
  EXPECT_EQ(executed.load(), accepted.load());
  EXPECT_EQ(accepted.load(), 800);
}

TEST(ThreadPoolTest, RunUntilExecutesQueuedWorkInline) {
  // Regression for the nested-submit deadlock: the single worker
  // submits a sub-task and then joins it. Before help-while-wait joins
  // (RunUntil), the worker would block forever — no second worker
  // exists to run the sub-task.
  ThreadPool pool(1);
  std::atomic<bool> inner_done{false};
  std::atomic<bool> outer_done{false};
  pool.Submit([&] {
    pool.Submit([&inner_done] { inner_done.store(true); });
    pool.RunUntil([&inner_done] { return inner_done.load(); });
    outer_done.store(true);
  });
  pool.Wait();
  EXPECT_TRUE(inner_done.load());
  EXPECT_TRUE(outer_done.load());
}

TEST(ThreadPoolTest, RunUntilSideEffectingPredicateConsumesExactlyOnce) {
  // Regression: RunUntil used to re-evaluate done() at the top of its
  // loop after the cv wait predicate already returned true. With a
  // side-effecting predicate (a try-acquire) the first success was
  // consumed and lost — here the helper would eat the only token and
  // then park forever waiting for a second one.
  ThreadPool pool(2);
  std::atomic<int> tokens{0};
  std::thread helper([&] {
    EXPECT_TRUE(pool.RunUntil([&tokens] {
      int t = tokens.load(std::memory_order_relaxed);
      while (t > 0) {
        if (tokens.compare_exchange_weak(t, t - 1,
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed)) {
          return true;
        }
      }
      return false;
    }));
  });
  // Let the helper park on an empty queue, then produce one token and
  // wake it with an empty task.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  tokens.fetch_add(1, std::memory_order_release);
  pool.Submit([] {});
  helper.join();
  EXPECT_EQ(tokens.load(), 0) << "exactly one token consumed";
}

TEST(ThreadPoolTest, RunUntilReturnsFalseAfterShutdown) {
  // A helper whose predicate can never be satisfied by pool work must
  // unpark (returning false) when the pool shuts down instead of
  // sleeping forever on a cv nothing will signal again.
  ThreadPool pool(1);
  std::atomic<bool> helper_returned{false};
  std::thread helper([&] {
    EXPECT_FALSE(pool.RunUntil([] { return false; }));
    helper_returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  pool.Shutdown();
  helper.join();
  EXPECT_TRUE(helper_returned.load());
}

// ---- ParallelContext / TaskGroup ----

TEST(ParallelContextTest, NestedTaskGroupJoinsDoNotDeadlock) {
  // More joining tasks than workers: every outer task parks in an inner
  // TaskGroup::Wait, which must help drain the queue (the cv-blocking
  // join this replaced deadlocked here).
  ParallelContext::Options options;
  options.threads = 2;
  ParallelContext context(options);
  ASSERT_TRUE(context.enabled());
  std::atomic<int> leaves{0};
  TaskGroup outer(&context);
  for (int i = 0; i < 8; ++i) {
    outer.Run([&context, &leaves] {
      TaskGroup inner(&context);
      for (int j = 0; j < 4; ++j) {
        inner.Run([&leaves] { leaves.fetch_add(1); });
      }
      inner.Wait();
    });
  }
  outer.Wait();
  EXPECT_EQ(leaves.load(), 32);
  EXPECT_EQ(outer.spawned(), 8);
  EXPECT_GE(context.tasks_spawned(), 8);
}

TEST(ParallelContextTest, BlockSlotBudgetIsEnforced) {
  ParallelContext::Options options;
  options.threads = 2;
  options.max_inflight_blocks = 2;
  ParallelContext context(options);
  EXPECT_EQ(context.max_inflight_blocks(), 2);
  EXPECT_TRUE(context.TryAcquireBlockSlot());
  EXPECT_TRUE(context.TryAcquireBlockSlot());
  EXPECT_FALSE(context.TryAcquireBlockSlot()) << "budget must cap at 2";
  context.ReleaseBlockSlot();
  EXPECT_TRUE(context.TryAcquireBlockSlot());
  context.ReleaseBlockSlot();
  context.ReleaseBlockSlot();
}

TEST(ParallelContextTest, BlockSlotBudgetDoesNotLeakUnderContention) {
  // Hammer the budget from more threads than slots: no more than the
  // budget is ever granted at once, and the full budget survives.
  ParallelContext::Options options;
  options.threads = 4;
  options.max_inflight_blocks = 3;
  ParallelContext context(options);
  ASSERT_TRUE(context.enabled());
  std::atomic<int> in_flight{0};
  std::atomic<int> max_seen{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&context, &in_flight, &max_seen] {
      for (int i = 0; i < 500; ++i) {
        while (!context.TryAcquireBlockSlot()) std::this_thread::yield();
        const int now = in_flight.fetch_add(1) + 1;
        int seen = max_seen.load();
        while (now > seen && !max_seen.compare_exchange_weak(seen, now)) {
        }
        in_flight.fetch_sub(1);
        context.ReleaseBlockSlot();
      }
    });
  }
  for (auto& t : writers) t.join();
  EXPECT_LE(max_seen.load(), 3) << "budget cap exceeded";
  // The full budget must be back afterwards: exactly 3 immediate
  // acquires succeed.
  EXPECT_TRUE(context.TryAcquireBlockSlot());
  EXPECT_TRUE(context.TryAcquireBlockSlot());
  EXPECT_TRUE(context.TryAcquireBlockSlot());
  EXPECT_FALSE(context.TryAcquireBlockSlot()) << "a slot leaked back in";
  context.ReleaseBlockSlot();
  context.ReleaseBlockSlot();
  context.ReleaseBlockSlot();
}

TEST(ParallelContextTest, SerialContextRunsEverythingInline) {
  ParallelContext::Options options;
  options.threads = 1;
  ParallelContext context(options);
  EXPECT_FALSE(context.enabled());
  EXPECT_EQ(context.pool(), nullptr);
  // The budget never blocks a serial caller.
  EXPECT_TRUE(context.TryAcquireBlockSlot());
  context.ReleaseBlockSlot();
  int runs = 0;
  TaskGroup group(&context);
  EXPECT_FALSE(group.parallel());
  group.Run([&runs] { ++runs; });
  EXPECT_EQ(runs, 1) << "serial Run must execute inline, immediately";
  group.Wait();
  EXPECT_EQ(group.spawned(), 0);
  EXPECT_EQ(context.tasks_spawned(), 0);
}

// ---- TablePrinter ----

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.AddRow({"x", "1"});
  t.AddRow({"longer-name", "22"});
  std::ostringstream os;
  t.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  EXPECT_NE(out.find("|---"), std::string::npos);
  EXPECT_EQ(TablePrinter::Num(1.234, 2), "1.23");
  EXPECT_EQ(TablePrinter::Pct(0.42), "42%");
}

}  // namespace
}  // namespace dmb
