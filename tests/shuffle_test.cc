// Tests for the shared shuffle subsystem (src/shuffle): the KVArena
// slice representation, the PartitionedCollector (partition-on-insert,
// incremental combining, pressure spills, budget actions) and the
// RunMerger k-way merge — the one stage-boundary implementation under
// all three engines.

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/byte_buffer.h"
#include "common/parallel.h"
#include "common/random.h"
#include "common/temp_dir.h"
#include "core/kv.h"
#include "io/run_file.h"
#include "shuffle/collector.h"
#include "shuffle/fold.h"
#include "shuffle/kv_arena.h"
#include "shuffle/run_merger.h"

namespace dmb::shuffle {
namespace {

// ---- KVArena ----

TEST(KvArenaTest, AddAndLookupRoundTrip) {
  KVArena arena;
  const KVSlice a = arena.Add("apple", "1");
  const KVSlice b = arena.Add("banana", "22");
  EXPECT_EQ(arena.KeyOf(a), "apple");
  EXPECT_EQ(arena.ValueOf(a), "1");
  EXPECT_EQ(arena.KeyOf(b), "banana");
  EXPECT_EQ(arena.ValueOf(b), "22");
  EXPECT_EQ(arena.bytes(), static_cast<int64_t>(5 + 1 + 6 + 2));
}

TEST(KvArenaTest, ZeroByteKeysAndValues) {
  KVArena arena;
  const KVSlice empty_key = arena.Add("", "v");
  const KVSlice empty_val = arena.Add("k", "");
  const KVSlice empty_both = arena.Add("", "");
  EXPECT_EQ(arena.KeyOf(empty_key), "");
  EXPECT_EQ(arena.ValueOf(empty_key), "v");
  EXPECT_EQ(arena.KeyOf(empty_val), "k");
  EXPECT_EQ(arena.ValueOf(empty_val), "");
  EXPECT_EQ(arena.KeyOf(empty_both), "");
  EXPECT_EQ(arena.ValueOf(empty_both), "");
}

TEST(KvArenaTest, SlicesStayValidAcrossGrowth) {
  KVArena arena;
  const KVSlice first = arena.Add("first-key", "first-value");
  // Force many reallocations of the backing buffer.
  for (int i = 0; i < 10000; ++i) {
    arena.Add("key-" + std::to_string(i), std::string(100, 'x'));
  }
  EXPECT_EQ(arena.KeyOf(first), "first-key");
  EXPECT_EQ(arena.ValueOf(first), "first-value");
}

TEST(KvArenaTest, SortOrdersByKeyThenValue) {
  KVArena arena;
  std::vector<KVSlice> slices;
  slices.push_back(arena.Add("b", "2"));
  slices.push_back(arena.Add("a", "9"));
  slices.push_back(arena.Add("b", "1"));
  slices.push_back(arena.Add("a", "0"));
  arena.Sort(&slices);
  std::vector<std::string> flat;
  for (const auto& s : slices) {
    flat.push_back(std::string(arena.KeyOf(s)) + ":" +
                   std::string(arena.ValueOf(s)));
  }
  EXPECT_EQ(flat, (std::vector<std::string>{"a:0", "a:9", "b:1", "b:2"}));
}

// The radix sort must agree with the comparator sort record-for-record.
// Offsets may differ among fully equal records (neither sort is
// stable), so the comparison is over (key, value) bytes.
void ExpectSortsAgree(const KVArena& arena,
                      const std::vector<KVSlice>& slices,
                      const std::string& label) {
  std::vector<KVSlice> by_comparator = slices;
  arena.SortComparator(&by_comparator);
  std::vector<KVSlice> by_radix = slices;
  arena.Sort(&by_radix);
  ASSERT_EQ(by_comparator.size(), by_radix.size()) << label;
  for (size_t i = 0; i < by_comparator.size(); ++i) {
    ASSERT_EQ(arena.KeyOf(by_comparator[i]), arena.KeyOf(by_radix[i]))
        << label << " at " << i;
    ASSERT_EQ(arena.ValueOf(by_comparator[i]), arena.ValueOf(by_radix[i]))
        << label << " at " << i;
  }
}

TEST(KvArenaTest, RadixSortHandlesAdversarialKeyShapes) {
  // Every shape the prefix logic can get wrong: empty keys, keys
  // shorter than the 8-byte prefix, keys equal in the first 8 bytes
  // but diverging later, embedded NULs (which must not collide with
  // the zero-padding of short keys), and duplicate keys whose order is
  // decided by the value.
  KVArena arena;
  std::vector<KVSlice> slices;
  auto add = [&](std::string_view k, std::string_view v) {
    slices.push_back(arena.Add(k, v));
  };
  add("", "z");
  add("", "a");
  add(std::string_view("\x00", 1), "1");
  add(std::string_view("\x00\x00", 2), "1");
  add("a", "1");
  add(std::string_view("a\x00", 2), "1");
  add(std::string_view("a\x00\x00z", 4), "1");
  add("prefix18", "same 8, differ after");
  add("prefix18-suffix-b", "1");
  add("prefix18-suffix-a", "1");
  add("prefix18-suffix-a", "0");
  add("dup", "3");
  add("dup", "1");
  add("dup", "2");
  ExpectSortsAgree(arena, slices, "adversarial");
}

TEST(KvArenaTest, RadixSortMatchesComparatorSortFuzz) {
  Rng rng(20140708);
  for (int round = 0; round < 20; ++round) {
    KVArena arena;
    std::vector<KVSlice> slices;
    // Large enough to recurse past the comparator cutoff on several
    // levels; mixed shapes so buckets are uneven.
    const int n = 200 + static_cast<int>(rng.Uniform(3000));
    for (int i = 0; i < n; ++i) {
      std::string key;
      switch (rng.Uniform(4)) {
        case 0:  // short binary keys (zero-pad vs real NUL bytes)
          for (uint64_t j = rng.Uniform(8); j > 0; --j) {
            key.push_back(static_cast<char>(rng.Uniform(4)));
          }
          break;
        case 1:  // heavy shared prefix, diverging past 8 bytes
          key = "shared-prefix-" + std::to_string(rng.Uniform(64));
          break;
        case 2:  // duplicates from a tiny key space
          key = "k" + std::to_string(rng.Uniform(16));
          break;
        default:  // random binary, embedded NULs included
          for (uint64_t j = rng.Uniform(20); j > 0; --j) {
            key.push_back(static_cast<char>(rng.Uniform(256)));
          }
          break;
      }
      // Small value space so duplicate keys also collide on values.
      slices.push_back(arena.Add(key, std::to_string(rng.Uniform(8))));
    }
    ExpectSortsAgree(arena, slices, "round " + std::to_string(round));
  }
}

TEST(KvArenaTest, ParallelSortIsByteIdenticalToSerial) {
  // The parallel sort fans the top-level radix buckets out to the pool;
  // its contract is exact equality with the serial sort — same slice
  // sequence, including the order of fully equal records — at every
  // thread count and threshold.
  Rng rng(424242);
  KVArena arena;
  std::vector<KVSlice> slices;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    std::string key;
    switch (rng.Uniform(4)) {
      case 0:
        key = "shared-prefix-" + std::to_string(rng.Uniform(64));
        break;
      case 1:
        key = "k" + std::to_string(rng.Uniform(16));
        break;
      case 2:
        for (uint64_t j = rng.Uniform(12); j > 0; --j) {
          key.push_back(static_cast<char>(rng.Uniform(256)));
        }
        break;
      default:
        key = std::to_string(rng.Uniform(100000));
        break;
    }
    slices.push_back(arena.Add(key, std::to_string(rng.Uniform(8))));
  }
  std::vector<KVSlice> serial = slices;
  arena.Sort(&serial);

  auto same_slice = [](const KVSlice& a, const KVSlice& b) {
    return a.key_prefix == b.key_prefix && a.key_off == b.key_off &&
           a.key_len == b.key_len && a.val_off == b.val_off &&
           a.val_len == b.val_len;
  };
  for (const int threads : {1, 2, 8}) {
    for (const int64_t threshold : {int64_t{1}, int64_t{4096}, int64_t{1}
                                                                  << 20}) {
      ParallelContext::Options options;
      options.threads = threads;
      options.parallel_sort_threshold = threshold;
      ParallelContext context(options);
      std::vector<KVSlice> sorted = slices;
      int64_t spawned = 0;
      arena.Sort(&sorted, &context, &spawned);
      const std::string label = "threads=" + std::to_string(threads) +
                                " threshold=" + std::to_string(threshold);
      if (threads > 1 && threshold < n) {
        EXPECT_GT(spawned, 0) << label;
      } else {
        EXPECT_EQ(spawned, 0) << label;
      }
      ASSERT_EQ(sorted.size(), serial.size()) << label;
      for (size_t i = 0; i < serial.size(); ++i) {
        ASSERT_TRUE(same_slice(sorted[i], serial[i]))
            << label << " diverges at " << i;
      }
    }
  }
}

TEST(KvArenaTest, EncodedKVSizeMatchesEncodeKV) {
  for (size_t klen : {size_t{0}, size_t{1}, size_t{127}, size_t{128},
                      size_t{20000}}) {
    for (size_t vlen : {size_t{0}, size_t{5}, size_t{300}}) {
      ByteBuffer buf;
      datampi::EncodeKV(&buf, std::string(klen, 'k'), std::string(vlen, 'v'));
      EXPECT_EQ(EncodedKVSize(klen, vlen), static_cast<int64_t>(buf.size()))
          << klen << "," << vlen;
    }
  }
}

// ---- RunMerger ----

std::vector<std::pair<std::string, std::vector<std::string>>> Drain(
    KVGroupIterator* it) {
  std::vector<std::pair<std::string, std::vector<std::string>>> out;
  std::string key;
  std::vector<std::string> values;
  while (it->NextGroup(&key, &values)) {
    out.emplace_back(key, values);
  }
  return out;
}

TEST(RunMergerTest, MergesMixedRunKindsGroupedAndSorted) {
  TempDir dir("shuffle-test");

  // Arena run: (a,1) (c,3).
  auto arena = std::make_shared<KVArena>();
  std::vector<KVSlice> slices;
  slices.push_back(arena->Add("a", "1"));
  slices.push_back(arena->Add("c", "3"));

  // Encoded run: (a,2) (b,1).
  ByteBuffer encoded;
  datampi::EncodeKV(&encoded, "a", "2");
  datampi::EncodeKV(&encoded, "b", "1");

  // File run: (b,0) (d,4), in the spill block format.
  const std::string path = dir.File("run.kv");
  {
    io::SpillFileWriter writer(path);
    ASSERT_TRUE(writer.Add("b", "0").ok());
    ASSERT_TRUE(writer.Add("d", "4").ok());
    ASSERT_TRUE(writer.Finish().ok());
  }

  RunMerger merger;
  merger.AddArenaRun(arena, std::move(slices));
  merger.AddEncodedRun(std::string(encoded.view()));
  ASSERT_TRUE(merger.AddFileRun(path).ok());
  EXPECT_EQ(merger.run_count(), 3u);

  auto it = merger.Merge();
  const auto groups = Drain(it.get());
  ASSERT_TRUE(it->status().ok()) << it->status();
  ASSERT_EQ(groups.size(), 4u);
  EXPECT_EQ(groups[0].first, "a");
  EXPECT_EQ(groups[0].second, (std::vector<std::string>{"1", "2"}));
  EXPECT_EQ(groups[1].first, "b");
  EXPECT_EQ(groups[1].second, (std::vector<std::string>{"0", "1"}));
  EXPECT_EQ(groups[2].first, "c");
  EXPECT_EQ(groups[3].first, "d");
}

TEST(RunMergerTest, ManyRunsRandomizedAgainstOracle) {
  Rng rng(77);
  std::map<std::string, std::vector<std::string>> oracle;
  RunMerger merger;
  for (int run = 0; run < 13; ++run) {
    auto arena = std::make_shared<KVArena>();
    std::vector<KVSlice> slices;
    const int n = 1 + static_cast<int>(rng.Uniform(120));
    for (int i = 0; i < n; ++i) {
      const std::string key = "k" + std::to_string(rng.Uniform(40));
      const std::string value = std::to_string(rng.Uniform(1000));
      slices.push_back(arena->Add(key, value));
      oracle[key].push_back(value);
    }
    arena->Sort(&slices);
    merger.AddArenaRun(std::move(arena), std::move(slices));
  }
  auto it = merger.Merge();
  std::string key;
  std::vector<std::string> values;
  auto expected = oracle.begin();
  while (it->NextGroup(&key, &values)) {
    ASSERT_NE(expected, oracle.end());
    EXPECT_EQ(key, expected->first);
    std::sort(expected->second.begin(), expected->second.end());
    EXPECT_EQ(values, expected->second) << key;
    ++expected;
  }
  EXPECT_TRUE(it->status().ok());
  EXPECT_EQ(expected, oracle.end());
}

TEST(RunMergerTest, LoserTreeAndHeapMergeIdentically) {
  // The loser tree is the default merge; the binary heap is kept as the
  // equivalence oracle. Both must produce the same group stream —
  // including value order inside a group, which the run-index tiebreak
  // pins down — over fuzzed mixes of arena, encoded and file runs.
  Rng rng(5150);
  TempDir dir("shuffle-test");
  int file = 0;
  for (int round = 0; round < 12; ++round) {
    RunMerger loser_tree;
    RunMerger heap;
    heap.SetAlgorithm(MergeAlgorithm::kHeap);
    const int run_count = 1 + static_cast<int>(rng.Uniform(24));
    for (int run = 0; run < run_count; ++run) {
      // One sorted record set, fed identically to both mergers.
      std::vector<std::pair<std::string, std::string>> records;
      const int n = static_cast<int>(rng.Uniform(150));
      for (int i = 0; i < n; ++i) {
        records.emplace_back("k" + std::to_string(rng.Uniform(30)),
                             std::to_string(rng.Uniform(1000)));
      }
      std::sort(records.begin(), records.end());
      switch (rng.Uniform(3)) {
        case 0: {  // arena runs
          auto arena_a = std::make_shared<KVArena>();
          auto arena_b = std::make_shared<KVArena>();
          std::vector<KVSlice> slices_a, slices_b;
          for (const auto& [k, v] : records) {
            slices_a.push_back(arena_a->Add(k, v));
            slices_b.push_back(arena_b->Add(k, v));
          }
          loser_tree.AddArenaRun(std::move(arena_a), std::move(slices_a));
          heap.AddArenaRun(std::move(arena_b), std::move(slices_b));
          break;
        }
        case 1: {  // encoded runs
          ByteBuffer encoded;
          for (const auto& [k, v] : records) {
            datampi::EncodeKV(&encoded, k, v);
          }
          loser_tree.AddEncodedRun(std::string(encoded.view()));
          heap.AddEncodedRun(std::string(encoded.view()));
          break;
        }
        default: {  // file runs (shared file, two readers)
          const std::string path =
              dir.File("run" + std::to_string(file++) + ".kv");
          io::SpillFileWriter writer(path);
          for (const auto& [k, v] : records) {
            ASSERT_TRUE(writer.Add(k, v).ok());
          }
          ASSERT_TRUE(writer.Finish().ok());
          ASSERT_TRUE(loser_tree.AddFileRun(path).ok());
          ASSERT_TRUE(heap.AddFileRun(path).ok());
          break;
        }
      }
    }
    auto tree_it = loser_tree.Merge();
    auto heap_it = heap.Merge();
    const auto tree_groups = Drain(tree_it.get());
    const auto heap_groups = Drain(heap_it.get());
    ASSERT_TRUE(tree_it->status().ok()) << tree_it->status();
    ASSERT_TRUE(heap_it->status().ok()) << heap_it->status();
    ASSERT_EQ(tree_groups, heap_groups)
        << "round " << round << " (" << run_count << " runs)";
  }
}

TEST(RunMergerTest, CorruptEncodedRunSurfacesThroughStatus) {
  ByteBuffer good;
  datampi::EncodeKV(&good, "a", "1");
  std::string bytes(good.view());
  bytes += '\xff';  // dangling varint continuation byte

  RunMerger merger;
  merger.AddEncodedRun(std::move(bytes));
  auto it = merger.Merge();
  std::string key;
  std::vector<std::string> values;
  while (it->NextGroup(&key, &values)) {
  }
  EXPECT_FALSE(it->status().ok());
}

TEST(RunMergerTest, FifoPreservesArrivalOrder) {
  auto arena = std::make_shared<KVArena>();
  std::vector<KVSlice> slices;
  for (int i = 0; i < 8; ++i) {
    slices.push_back(
        arena->Add("k" + std::to_string(7 - i), std::to_string(i)));
  }
  auto it = RunMerger::Fifo(arena, std::move(slices));
  const auto groups = Drain(it.get());
  ASSERT_EQ(groups.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(groups[static_cast<size_t>(i)].first,
              "k" + std::to_string(7 - i));
    EXPECT_EQ(groups[static_cast<size_t>(i)].second,
              std::vector<std::string>{std::to_string(i)});
  }
}

// ---- PartitionedCollector ----

TEST(CollectorTest, RoutesRecordsPerPartitioner) {
  CollectorOptions options;
  options.num_partitions = 4;
  options.partitioner = std::make_shared<datampi::HashPartitioner>();
  PartitionedCollector collector(options);
  datampi::HashPartitioner reference;
  std::vector<std::set<std::string>> expected(4);
  Rng rng(9);
  for (int i = 0; i < 500; ++i) {
    const std::string key = "key" + std::to_string(rng.Uniform(90));
    ASSERT_TRUE(collector.Add(key, "v").ok());
    expected[static_cast<size_t>(reference.Partition(key, 4))].insert(key);
  }
  auto iterators = collector.FinishIterators();
  ASSERT_TRUE(iterators.ok());
  ASSERT_EQ(iterators->size(), 4u);
  for (size_t p = 0; p < 4; ++p) {
    std::set<std::string> seen;
    std::string key;
    std::vector<std::string> values;
    while ((*iterators)[p]->NextGroup(&key, &values)) {
      seen.insert(key);
    }
    EXPECT_EQ(seen, expected[p]) << "partition " << p;
  }
}

TEST(CollectorTest, SpillsUnderPressureAndCombinesIncrementally) {
  CollectorOptions options;
  options.num_partitions = 2;
  options.partitioner = std::make_shared<datampi::HashPartitioner>();
  options.memory_budget_bytes = 2048;  // force many spills
  options.combiner = [](std::string_view,
                        const std::vector<std::string>& values) {
    int64_t total = 0;
    for (const auto& v : values) total += std::stoll(v);
    return std::to_string(total);
  };
  PartitionedCollector collector(options);
  std::map<std::string, int64_t> expected;
  Rng rng(11);
  for (int i = 0; i < 4000; ++i) {
    const std::string key = "w" + std::to_string(rng.Uniform(50));
    ASSERT_TRUE(collector.Add(key, "1").ok());
    ++expected[key];
  }
  EXPECT_GT(collector.spill_count(), 0);
  EXPECT_GT(collector.spilled_bytes(), 0);
  EXPECT_EQ(collector.records_added(), 4000);
  // Incremental combining: every spill collapses duplicates, so the
  // encoded output is far smaller than the raw input encoding.
  EXPECT_LT(collector.encoded_output_bytes(),
            collector.encoded_input_bytes());

  auto iterators = collector.FinishIterators();
  ASSERT_TRUE(iterators.ok());
  std::map<std::string, int64_t> got;
  for (auto& it : *iterators) {
    std::string key;
    std::vector<std::string> values;
    while (it->NextGroup(&key, &values)) {
      // Values are partial sums (one per combined run).
      for (const auto& v : values) got[key] += std::stoll(v);
    }
    ASSERT_TRUE(it->status().ok());
  }
  EXPECT_EQ(got, expected);
}

TEST(CollectorTest, BudgetActionFailReturnsOutOfMemory) {
  CollectorOptions options;
  options.memory_budget_bytes = 256;
  options.on_budget = BudgetAction::kFail;
  PartitionedCollector collector(options);
  Status st;
  for (int i = 0; i < 1000 && st.ok(); ++i) {
    st = collector.Add("key" + std::to_string(i), "some value payload");
  }
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsOutOfMemory()) << st;
}

TEST(CollectorTest, UnsortedCollectorNeverSpills) {
  CollectorOptions options;
  options.sort_by_key = false;
  options.memory_budget_bytes = 64;  // would spill constantly if sorted
  PartitionedCollector collector(options);
  std::vector<std::string> keys;
  for (int i = 0; i < 200; ++i) {
    const std::string key = "k" + std::to_string(199 - i);
    ASSERT_TRUE(collector.Add(key, std::to_string(i)).ok());
    keys.push_back(key);
  }
  EXPECT_EQ(collector.spill_count(), 0);
  auto iterators = collector.FinishIterators();
  ASSERT_TRUE(iterators.ok());
  std::string key;
  std::vector<std::string> values;
  size_t i = 0;
  while ((*iterators)[0]->NextGroup(&key, &values)) {
    ASSERT_LT(i, keys.size());
    EXPECT_EQ(key, keys[i]) << "arrival order must be preserved";
    ++i;
  }
  EXPECT_EQ(i, keys.size());
}

TEST(CollectorTest, FinishRunsRoundTripsThroughMergerDiskAndMemory) {
  for (const bool to_disk : {true, false}) {
    CollectorOptions options;
    options.num_partitions = 3;
    options.partitioner = std::make_shared<datampi::HashPartitioner>();
    options.memory_budget_bytes = 1024;
    options.on_budget =
        to_disk ? BudgetAction::kSpill : BudgetAction::kUnbounded;
    PartitionedCollector collector(options);
    std::map<std::string, int> expected;
    Rng rng(21);
    for (int i = 0; i < 1500; ++i) {
      const std::string key = "r" + std::to_string(rng.Uniform(64));
      ASSERT_TRUE(collector.Add(key, "x").ok());
      ++expected[key];
    }
    auto runs = collector.FinishRuns(to_disk);
    ASSERT_TRUE(runs.ok());
    ASSERT_EQ(runs->size(), 3u);
    if (to_disk) {
      EXPECT_GT(collector.spill_count(), 0);
    }

    std::map<std::string, int> got;
    for (auto& partition : *runs) {
      RunMerger merger;
      for (const auto& path : partition.run_files) {
        ASSERT_TRUE(merger.AddFileRun(path).ok());
      }
      for (auto& bytes : partition.encoded_runs) {
        merger.AddEncodedRun(std::move(bytes));
      }
      auto it = merger.Merge();
      std::string key;
      std::vector<std::string> values;
      while (it->NextGroup(&key, &values)) {
        got[key] += static_cast<int>(values.size());
      }
      ASSERT_TRUE(it->status().ok());
    }
    EXPECT_EQ(got, expected) << "to_disk=" << to_disk;
  }
}

TEST(CollectorTest, ZeroByteRecordsSurviveSpillAndMerge) {
  CollectorOptions options;
  options.memory_budget_bytes = 1;  // spill after every record
  PartitionedCollector collector(options);
  ASSERT_TRUE(collector.Add("", "empty-key").ok());
  ASSERT_TRUE(collector.Add("empty-value", "").ok());
  ASSERT_TRUE(collector.Add("", "").ok());
  ASSERT_TRUE(collector.Add("k", "v").ok());
  EXPECT_GT(collector.spill_count(), 0);
  auto iterators = collector.FinishIterators();
  ASSERT_TRUE(iterators.ok());
  const auto groups = Drain((*iterators)[0].get());
  ASSERT_TRUE((*iterators)[0]->status().ok());
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].first, "");
  EXPECT_EQ(groups[0].second, (std::vector<std::string>{"", "empty-key"}));
  EXPECT_EQ(groups[1].first, "empty-value");
  EXPECT_EQ(groups[1].second, (std::vector<std::string>{""}));
  EXPECT_EQ(groups[2].first, "k");
}

// The grouped merge output must not depend on whether runs stayed
// resident (kUnbounded), were spilled to block-compressed run files and
// streamed back (kSpill under pressure), or sat under a kFail budget
// that never fired — across codecs and block sizes.
TEST(CollectorTest, StreamingAndInMemoryMergesAreEquivalent) {
  struct Config {
    BudgetAction action;
    int64_t budget;
    io::Codec codec;
    int64_t block_bytes;
  };
  const std::vector<Config> configs = {
      {BudgetAction::kUnbounded, 1 << 20, io::Codec::kLz, 64 << 10},
      {BudgetAction::kSpill, 2048, io::Codec::kLz, 512},
      {BudgetAction::kSpill, 2048, io::Codec::kNone, 256},
      {BudgetAction::kSpill, 512, io::Codec::kLz, 64 << 10},
      {BudgetAction::kFail, 1 << 20, io::Codec::kLz, 1024},
  };
  std::vector<std::vector<std::pair<std::string, std::vector<std::string>>>>
      streams;
  for (const Config& config : configs) {
    CollectorOptions options;
    options.num_partitions = 2;
    options.partitioner = std::make_shared<datampi::HashPartitioner>();
    options.memory_budget_bytes = config.budget;
    options.on_budget = config.action;
    options.spill_io.codec = config.codec;
    options.spill_io.block_bytes = config.block_bytes;
    PartitionedCollector collector(options);
    Rng rng(1234);  // same record stream for every config
    for (int i = 0; i < 3000; ++i) {
      ASSERT_TRUE(collector
                      .Add("key" + std::to_string(rng.Uniform(97)),
                           "value-" + std::to_string(rng.Uniform(10)))
                      .ok());
    }
    if (config.action == BudgetAction::kSpill) {
      EXPECT_GT(collector.spill_count(), 0);
    }
    auto iterators = collector.FinishIterators();
    ASSERT_TRUE(iterators.ok()) << iterators.status();
    std::vector<std::pair<std::string, std::vector<std::string>>> stream;
    for (auto& it : *iterators) {
      std::string key;
      std::vector<std::string> values;
      while (it->NextGroup(&key, &values)) {
        stream.emplace_back(key, values);
      }
      ASSERT_TRUE(it->status().ok()) << it->status();
    }
    streams.push_back(std::move(stream));
  }
  for (size_t i = 1; i < streams.size(); ++i) {
    EXPECT_EQ(streams[i], streams[0]) << "config " << i;
  }
}

TEST(CollectorTest, SpillFilesAreBlockCompressed) {
  CollectorOptions options;
  options.memory_budget_bytes = 4096;
  options.spill_io.codec = io::Codec::kLz;
  PartitionedCollector collector(options);
  // Heavily repetitive values compress well.
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(
        collector.Add("key" + std::to_string(i % 7), std::string(40, 'x'))
            .ok());
  }
  EXPECT_GT(collector.spill_count(), 0);
  EXPECT_GT(collector.spilled_raw_bytes(), 0);
  EXPECT_LT(collector.spilled_bytes(), collector.spilled_raw_bytes() / 2)
      << "LZ blocks should compress repetitive spill data";
}

TEST(CollectorTest, ParallelCollectorSpillsByteIdenticalRunFiles) {
  // With a ParallelContext the collector sorts slices on the pool,
  // spills sealed partitions concurrently and encodes spill blocks
  // overlapped — and must still write the exact run-file bytes (names
  // included) of the serial collector, in any thread configuration.
  auto run_files_by_name = [](ParallelContext* context,
                              int64_t* parallel_tasks) {
    CollectorOptions options;
    options.num_partitions = 3;
    options.partitioner = std::make_shared<datampi::HashPartitioner>();
    options.memory_budget_bytes = 2048;
    options.on_budget = BudgetAction::kSpill;
    options.spill_io.block_bytes = 512;
    options.parallel = context;
    PartitionedCollector collector(options);
    Rng rng(20140807);  // same record stream for every configuration
    for (int i = 0; i < 4000; ++i) {
      EXPECT_TRUE(collector
                      .Add("key" + std::to_string(rng.Uniform(97)),
                           "value-" + std::to_string(rng.Uniform(50)))
                      .ok());
    }
    auto runs = collector.FinishRuns(/*to_disk=*/true);
    EXPECT_TRUE(runs.ok()) << runs.status();
    EXPECT_GT(collector.spill_count(), 0);
    std::map<std::string, std::string> by_name;
    for (const auto& partition : *runs) {
      for (const auto& path : partition.run_files) {
        auto bytes = ReadFileBytes(path);
        EXPECT_TRUE(bytes.ok()) << bytes.status();
        const size_t slash = path.find_last_of('/');
        by_name[path.substr(slash + 1)] = std::move(*bytes);
      }
    }
    if (parallel_tasks != nullptr) {
      *parallel_tasks = collector.parallel_tasks();
    }
    return by_name;
  };

  const auto serial = run_files_by_name(nullptr, nullptr);
  ASSERT_GT(serial.size(), 1u);
  for (const int threads : {2, 8}) {
    ParallelContext::Options options;
    options.threads = threads;
    options.parallel_sort_threshold = 1;  // fan out even the small sorts
    ParallelContext context(options);
    int64_t parallel_tasks = 0;
    const auto parallel = run_files_by_name(&context, &parallel_tasks);
    EXPECT_GT(parallel_tasks, 0) << "threads=" << threads;
    ASSERT_EQ(parallel.size(), serial.size()) << "threads=" << threads;
    for (const auto& [name, bytes] : serial) {
      const auto it = parallel.find(name);
      ASSERT_NE(it, parallel.end()) << name << " threads=" << threads;
      EXPECT_EQ(it->second, bytes) << name << " threads=" << threads;
    }
  }
}

// Four partition writers spilling at once on four threads that share a
// two-slot inflight-block budget. A writer used to park on the budget
// while running inline (help-while-wait) on the stack of the writer
// holding the slots it waited for; the rounds then hung in futex waits
// (and a DMB_VALIDATE build aborted on the re-entrant acquire).
TEST(CollectorTest, ConcurrentPartitionSpillsOnATinySlotBudgetFinish) {
  for (int round = 0; round < 8; ++round) {
    ParallelContext::Options parallel;
    parallel.threads = 4;
    parallel.max_inflight_blocks = 2;
    parallel.parallel_sort_threshold = 1;
    ParallelContext context(parallel);
    CollectorOptions options;
    options.num_partitions = 4;
    options.partitioner = std::make_shared<datampi::HashPartitioner>();
    options.memory_budget_bytes = 4096;
    options.on_budget = BudgetAction::kSpill;
    options.spill_io.block_bytes = 256;
    options.parallel = &context;
    PartitionedCollector collector(options);
    Rng rng(round);
    std::map<std::string, int> expected;
    for (int i = 0; i < 2000; ++i) {
      const std::string key = "key" + std::to_string(rng.Uniform(500));
      ASSERT_TRUE(collector.Add(key, "value").ok());
      ++expected[key];
    }
    auto runs = collector.FinishRuns(/*to_disk=*/true);
    ASSERT_TRUE(runs.ok()) << runs.status();
    EXPECT_GT(collector.spill_count(), 4) << "round " << round;
    std::map<std::string, int> got;
    for (auto& partition : *runs) {
      RunMerger merger;
      for (const auto& path : partition.run_files) {
        ASSERT_TRUE(merger.AddFileRun(path).ok());
      }
      auto it = merger.Merge();
      for (const auto& [key, values] : Drain(it.get())) {
        got[key] += static_cast<int>(values.size());
      }
      ASSERT_TRUE(it->status().ok());
    }
    EXPECT_EQ(got, expected) << "round " << round;
  }
}

// ---- Hash mode (Fold) against the sort + combine path ----

std::string SumCombine(std::string_view key,
                       const std::vector<std::string>& values) {
  int64_t total = 0;
  for (const auto& v : values) EXPECT_TRUE(AddInt64(key, v, &total).ok());
  return FormatInt64(total);
}

/// Random records over few distinct keys (shared prefixes, empty and
/// long keys) with small signed counts, or with `wide` ones of up to
/// 13 digits.
std::vector<std::pair<std::string, std::string>> FoldRecords(uint64_t seed,
                                                             int n,
                                                             bool wide) {
  Rng rng(seed);
  const int distinct = 1 + static_cast<int>(rng.Uniform(300));
  std::vector<std::string> keys;
  for (int i = 0; i < distinct; ++i) {
    std::string key = rng.Bernoulli(0.5) ? "prefix-shared-" : "";
    const int len = static_cast<int>(rng.Uniform(12));
    for (int c = 0; c < len; ++c) {
      key.push_back(static_cast<char>('a' + rng.Uniform(4)));
    }
    keys.push_back(std::move(key));
  }
  std::vector<std::pair<std::string, std::string>> records;
  for (int i = 0; i < n; ++i) {
    const int64_t bound = wide ? int64_t{1000000000000} : 20;
    records.emplace_back(
        keys[rng.Uniform(keys.size())],
        std::to_string(rng.UniformRange(wide ? -bound : -5, bound)));
  }
  return records;
}

CollectorOptions FoldOptions(int partitions, BudgetAction action,
                             int64_t budget, bool hash) {
  CollectorOptions options;
  options.num_partitions = partitions;
  if (partitions > 1) {
    options.partitioner = std::make_shared<datampi::HashPartitioner>();
  }
  options.on_budget = action;
  options.memory_budget_bytes = budget;
  options.combiner = SumCombine;
  if (hash) options.fold = Fold::Int64Sum();
  return options;
}

// Without a spill both modes hold every record resident until the seal,
// so the runs they produce must be the same bytes: one record per key,
// sorted, carrying the combiner's value.
TEST(CollectorHashModeTest, RunsAreByteIdenticalToSortModeWithoutSpill) {
  Rng shape(71);
  for (int trial = 0; trial < 24; ++trial) {
    const int partitions = 1 + static_cast<int>(shape.Uniform(5));
    const auto records =
        FoldRecords(1000 + trial, 1 + static_cast<int>(shape.Uniform(3000)),
                    /*wide=*/trial % 3 == 2);
    for (const BudgetAction action :
         {BudgetAction::kUnbounded, BudgetAction::kFail, BudgetAction::kSpill}) {
      std::vector<PartitionedCollector::PartitionRuns> runs[2];
      for (const bool hash : {false, true}) {
        PartitionedCollector collector(
            FoldOptions(partitions, action, int64_t{1} << 30, hash));
        ASSERT_TRUE(collector.AddBatch(records).ok());
        EXPECT_EQ(collector.records_added(),
                  static_cast<int64_t>(records.size()));
        EXPECT_EQ(collector.spill_count(), 0);
        auto sealed = collector.FinishRuns(/*to_disk=*/false);
        ASSERT_TRUE(sealed.ok()) << sealed.status();
        runs[hash] = std::move(sealed).value();
      }
      ASSERT_EQ(runs[0].size(), runs[1].size());
      for (size_t p = 0; p < runs[0].size(); ++p) {
        EXPECT_EQ(runs[1][p].encoded_runs, runs[0][p].encoded_runs)
            << "trial " << trial << " partition " << p;
      }
    }
  }
}

// With spills the run boundaries differ (the table holds far fewer
// bytes than the sorted records), so only the reduced result must
// agree: every partition's groups folded once more.
TEST(CollectorHashModeTest, SpilledRunsReduceToTheSortModeResult) {
  Rng shape(73);
  int hash_spills = 0;
  for (int trial = 0; trial < 16; ++trial) {
    const int partitions = 1 + static_cast<int>(shape.Uniform(4));
    const int64_t budget = 2048 + static_cast<int64_t>(shape.Uniform(8192));
    const auto records =
        FoldRecords(2000 + trial, 2000, /*wide=*/trial % 4 == 3);
    std::map<std::string, std::string> reduced[2];
    for (const bool hash : {false, true}) {
      PartitionedCollector collector(
          FoldOptions(partitions, BudgetAction::kSpill, budget, hash));
      ASSERT_TRUE(collector.AddBatch(records).ok());
      if (hash) hash_spills += collector.spill_count();
      auto iterators = collector.FinishIterators();
      ASSERT_TRUE(iterators.ok()) << iterators.status();
      for (auto& it : *iterators) {
        for (auto& [key, values] : Drain(it.get())) {
          ASSERT_TRUE(reduced[hash].emplace(key, SumCombine(key, values)).second)
              << "key in two partitions: " << key;
        }
        ASSERT_TRUE(it->status().ok());
      }
    }
    EXPECT_EQ(reduced[1], reduced[0]) << "trial " << trial;
  }
  EXPECT_GT(hash_spills, 0) << "no trial drained the table";
}

TEST(CollectorHashModeTest, OverBudgetTableDrainsAsOneSortedRun) {
  PartitionedCollector collector(
      FoldOptions(1, BudgetAction::kSpill, 2048, /*hash=*/true));
  std::map<std::string, int64_t> expected;
  int spills = 0;
  for (int i = 0; i < 5000; ++i) {
    const std::string key = "key" + std::to_string(i % 700);
    ASSERT_TRUE(collector.Add(key, "1").ok());
    ++expected[key];
    // The table never holds more than the budget...
    ASSERT_LE(collector.bytes_in_memory(), 2048);
    if (collector.spill_count() != spills) {
      // ...and a drain frees everything, the table's slots included.
      spills = collector.spill_count();
      ASSERT_EQ(collector.bytes_in_memory(), 0);
    }
  }
  EXPECT_GT(collector.spill_count(), 1);
  auto iterators = collector.FinishIterators();
  ASSERT_TRUE(iterators.ok());
  std::map<std::string, int64_t> got;
  for (const auto& [key, values] : Drain((*iterators)[0].get())) {
    // At most one partial per run: each drain wrote every key once.
    EXPECT_LE(values.size(),
              static_cast<size_t>(collector.spill_count()) + 1);
    int64_t total = 0;
    for (const auto& v : values) total += std::stoll(v);
    got[key] = total;
  }
  EXPECT_EQ(got, expected);
}

TEST(CollectorHashModeTest, TableSlotsCountAgainstTheBudget) {
  PartitionedCollector collector(
      FoldOptions(1, BudgetAction::kSpill, int64_t{1} << 30, /*hash=*/true));
  // Each distinct key costs its arena record (key + an 8-byte
  // accumulator + the bookkeeping overhead)...
  int64_t records = 0;
  for (int i = 0; i < 5000; ++i) {
    const std::string key = "key" + std::to_string(i);
    ASSERT_TRUE(collector.Add(key, "1").ok());
    ASSERT_TRUE(collector.Add(key, "2").ok());
    records += static_cast<int64_t>(key.size()) + 8 +
               PartitionedCollector::kRecordOverheadBytes;
  }
  // ...plus its share of a table at most half full of 16-byte slots.
  EXPECT_GE(collector.bytes_in_memory(), records + 5000 * 2 * 16);
  EXPECT_EQ(collector.spill_count(), 0);
}

TEST(CollectorHashModeTest, FailBudgetCountsDistinctKeysOnly) {
  // 10000 records over 8 keys fit a budget the sort path exceeds.
  for (const bool hash : {false, true}) {
    PartitionedCollector collector(
        FoldOptions(2, BudgetAction::kFail, 4096, hash));
    Status st;
    for (int i = 0; i < 10000 && st.ok(); ++i) {
      st = collector.Add("k" + std::to_string(i % 8), "1");
    }
    if (hash) {
      EXPECT_TRUE(st.ok()) << st;
    } else {
      EXPECT_TRUE(st.IsOutOfMemory()) << st;
    }
  }
  // Past the budget in distinct keys the hash mode fails too.
  PartitionedCollector collector(
      FoldOptions(1, BudgetAction::kFail, 4096, /*hash=*/true));
  Status st;
  for (int i = 0; i < 10000 && st.ok(); ++i) {
    st = collector.Add("k" + std::to_string(i), "1");
  }
  EXPECT_TRUE(st.IsOutOfMemory()) << st;
}

TEST(CollectorHashModeTest, Int64FoldRejectsBadValuesNamingTheKey) {
  PartitionedCollector collector(
      FoldOptions(1, BudgetAction::kUnbounded, 1 << 20, /*hash=*/true));
  Status st = collector.Add("word", "x");
  ASSERT_TRUE(st.IsInvalidArgument()) << st;
  EXPECT_NE(st.message().find("'word'"), std::string::npos) << st;
  ASSERT_TRUE(collector.Add("word", "9223372036854775807").ok());
  st = collector.Add("word", "1");
  ASSERT_TRUE(st.IsInvalidArgument()) << st;
  EXPECT_NE(st.message().find("overflows"), std::string::npos) << st;
  EXPECT_TRUE(collector.Add("other", "12abc").IsInvalidArgument());
  EXPECT_TRUE(collector.Add("other", "").IsInvalidArgument());
  EXPECT_TRUE(
      collector.Add("other", "99999999999999999999").IsInvalidArgument());
  // A failed Add leaves the accumulator as it was.
  auto iterators = collector.FinishIterators();
  ASSERT_TRUE(iterators.ok());
  const auto groups = Drain((*iterators)[0].get());
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].first, "word");
  EXPECT_EQ(groups[0].second,
            (std::vector<std::string>{"9223372036854775807"}));
}

TEST(CollectorTest, AddAfterFinishFails) {
  PartitionedCollector collector(CollectorOptions{});
  ASSERT_TRUE(collector.Add("a", "1").ok());
  ASSERT_TRUE(collector.FinishIterators().ok());
  EXPECT_FALSE(collector.Add("b", "2").ok());
  EXPECT_FALSE(collector.FinishIterators().ok());
}

}  // namespace
}  // namespace dmb::shuffle
