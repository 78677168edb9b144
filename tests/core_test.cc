// Tests for the DataMPI core library: KV encoding, partitioners, the
// A-side store (a one-partition shuffle collector) and its external
// merge, and the bipartite job engine.

#include <algorithm>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/temp_dir.h"
#include "core/job.h"
#include "core/kv.h"
#include "core/partitioner.h"
#include "shuffle/collector.h"
#include "shuffle/fold.h"
#include "workloads/int64_sum.h"

namespace dmb::datampi {
namespace {

/// "<prefix><n>" test keys. Built by append instead of
/// operator+(const char*, std::string&&), which GCC 12 flags with a
/// -Wrestrict false positive at -O3.
std::string NumberedKey(const char* prefix, int64_t n) {
  std::string key(prefix);
  key.append(std::to_string(n));
  return key;
}

// ---- KV batch encoding ----

TEST(KvTest, BatchRoundTrip) {
  ByteBuffer buf;
  EncodeKV(&buf, "alpha", "1");
  EncodeKV(&buf, "", "empty-key");
  EncodeKV(&buf, "beta", "");
  auto decoded = DecodeKVBatch(buf.view());
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), 3u);
  EXPECT_EQ((*decoded)[0].key, "alpha");
  EXPECT_EQ((*decoded)[1].value, "empty-key");
  EXPECT_EQ((*decoded)[2].value, "");
}

TEST(KvTest, TruncatedBatchIsCorruption) {
  ByteBuffer buf;
  EncodeKV(&buf, "key", "value");
  std::string_view whole = buf.view();
  auto bad = DecodeKVBatch(whole.substr(0, whole.size() - 2));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kCorruption);
}

TEST(KvTest, BinaryKeysAndValuesSurvive) {
  ByteBuffer buf;
  const std::string key("\x00\x01\xff\x7f", 4);
  const std::string value(1000, '\xAB');
  EncodeKV(&buf, key, value);
  auto decoded = DecodeKVBatch(buf.view());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ((*decoded)[0].key, key);
  EXPECT_EQ((*decoded)[0].value, value);
}

// ---- Partitioners ----

TEST(PartitionerTest, HashIsStableAndInRange) {
  HashPartitioner hp;
  for (int parts : {1, 2, 7, 32}) {
    for (int i = 0; i < 1000; ++i) {
      const std::string key = NumberedKey("key-", i);
      const int p = hp.Partition(key, parts);
      EXPECT_GE(p, 0);
      EXPECT_LT(p, parts);
      EXPECT_EQ(p, hp.Partition(key, parts)) << "unstable";
    }
  }
}

TEST(PartitionerTest, HashSpreadsKeysRoughlyEvenly) {
  HashPartitioner hp;
  constexpr int kParts = 8;
  constexpr int kKeys = 20000;
  std::vector<int> histogram(kParts, 0);
  for (int i = 0; i < kKeys; ++i) {
    ++histogram[hp.Partition("user" + std::to_string(i), kParts)];
  }
  for (int c : histogram) {
    EXPECT_GT(c, kKeys / kParts / 2);
    EXPECT_LT(c, kKeys / kParts * 2);
  }
}

TEST(PartitionerTest, RangePartitionerIsMonotone) {
  RangePartitioner rp({"f", "m", "t"});
  EXPECT_EQ(rp.Partition("apple", 4), 0);
  EXPECT_EQ(rp.Partition("f", 4), 1);  // splits are lower-inclusive
  EXPECT_EQ(rp.Partition("grape", 4), 1);
  EXPECT_EQ(rp.Partition("pear", 4), 2);
  EXPECT_EQ(rp.Partition("zebra", 4), 3);
}

TEST(PartitionerTest, RangeFromSampleYieldsGlobalOrder) {
  Rng rng(17);
  std::vector<std::string> keys;
  for (int i = 0; i < 5000; ++i) {
    keys.push_back(std::to_string(rng.Uniform(1000000)));
  }
  const int parts = 8;
  auto rp = RangePartitioner::FromSample(keys, parts);
  // Every key in partition p must be <= every key in partition p+1.
  std::vector<std::string> max_of(parts), min_of(parts);
  std::vector<bool> seen(parts, false);
  for (const auto& k : keys) {
    const int p = rp.Partition(k, parts);
    if (!seen[p]) {
      max_of[p] = min_of[p] = k;
      seen[p] = true;
    } else {
      max_of[p] = std::max(max_of[p], k);
      min_of[p] = std::min(min_of[p], k);
    }
  }
  for (int p = 0; p + 1 < parts; ++p) {
    if (seen[p] && seen[p + 1]) {
      EXPECT_LE(max_of[p], min_of[p + 1]) << "partition " << p;
    }
  }
}

// ---- The A-side store: a one-partition collector ----

using shuffle::CollectorOptions;
using shuffle::PartitionedCollector;

/// The A-side store's shape: one partition spilling past `budget`.
CollectorOptions StoreOptions(int64_t budget = 64 << 20,
                              bool sort_by_key = true) {
  CollectorOptions options;
  options.memory_budget_bytes = budget;
  options.sort_by_key = sort_by_key;
  return options;
}

TEST(AStoreTest, GroupsAndSortsInMemory) {
  PartitionedCollector store(StoreOptions());
  ASSERT_TRUE(store.Add("b", "2").ok());
  ASSERT_TRUE(store.Add("a", "1").ok());
  ASSERT_TRUE(store.Add("b", "1").ok());
  auto groups = store.FinishIterators();
  ASSERT_TRUE(groups.ok());
  std::string key;
  std::vector<std::string> values;
  ASSERT_TRUE((*groups)[0]->NextGroup(&key, &values));
  EXPECT_EQ(key, "a");
  EXPECT_EQ(values.size(), 1u);
  ASSERT_TRUE((*groups)[0]->NextGroup(&key, &values));
  EXPECT_EQ(key, "b");
  EXPECT_EQ(values.size(), 2u);
  EXPECT_FALSE((*groups)[0]->NextGroup(&key, &values));
}

TEST(AStoreTest, SpillsUnderMemoryPressureAndMergesCorrectly) {
  PartitionedCollector store(StoreOptions(4096));  // force many spills
  Rng rng(5);
  std::map<std::string, int> expected;
  for (int i = 0; i < 3000; ++i) {
    const std::string key =
        NumberedKey("k", static_cast<int64_t>(rng.Uniform(200)));
    ASSERT_TRUE(store.Add(key, "v").ok());
    ++expected[key];
  }
  EXPECT_GT(store.spill_count(), 0) << "test must exercise spilling";
  auto groups = store.FinishIterators();
  ASSERT_TRUE(groups.ok());
  std::string key;
  std::vector<std::string> values;
  std::string prev;
  int total = 0;
  while ((*groups)[0]->NextGroup(&key, &values)) {
    EXPECT_GT(key, prev) << "keys must be strictly increasing";
    prev = key;
    EXPECT_EQ(static_cast<int>(values.size()), expected[key]);
    total += static_cast<int>(values.size());
  }
  EXPECT_EQ(total, 3000);
}

TEST(AStoreTest, FifoModePreservesArrivalOrder) {
  PartitionedCollector store(StoreOptions(64 << 20, /*sort_by_key=*/false));
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(store.Add(NumberedKey("k", 9 - i), std::to_string(i)).ok());
  }
  auto groups = store.FinishIterators();
  ASSERT_TRUE(groups.ok());
  std::string key;
  std::vector<std::string> values;
  int i = 0;
  while ((*groups)[0]->NextGroup(&key, &values)) {
    EXPECT_EQ(values[0], std::to_string(i));
    ++i;
  }
  EXPECT_EQ(i, 10);
}

TEST(AStoreTest, AddAfterFinishFails) {
  PartitionedCollector store(StoreOptions());
  ASSERT_TRUE(store.Add("a", "1").ok());
  ASSERT_TRUE(store.FinishIterators().ok());
  EXPECT_FALSE(store.Add("b", "2").ok());
}

TEST(AStoreTest, UnsortedModeNeverSpillsEvenUnderPressure) {
  // A 16-byte budget would spill every Add if the store were sorted.
  PartitionedCollector store(StoreOptions(16, /*sort_by_key=*/false));
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(
        store.Add(NumberedKey("k", 499 - i), std::to_string(i)).ok());
  }
  EXPECT_EQ(store.spill_count(), 0);
  EXPECT_EQ(store.spilled_bytes(), 0);
  auto groups = store.FinishIterators();
  ASSERT_TRUE(groups.ok());
  std::string key;
  std::vector<std::string> values;
  int i = 0;
  while ((*groups)[0]->NextGroup(&key, &values)) {
    EXPECT_EQ(key, NumberedKey("k", 499 - i)) << "arrival order";
    EXPECT_EQ(values, std::vector<std::string>{std::to_string(i)});
    ++i;
  }
  EXPECT_EQ(i, 500);
}

TEST(AStoreTest, AddBatchOnCorruptBatchKeepsPrefixAndReportsError) {
  ByteBuffer wire;
  EncodeKV(&wire, "good", "record");
  std::string batch(wire.view());
  batch += '\xff';  // dangling varint continuation: truncated length

  PartitionedCollector store(StoreOptions());
  const Status st = store.AddBatch(batch);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(store.records_added(), 1) << "records before the corruption "
                                         "must be retained";
  auto groups = store.FinishIterators();
  ASSERT_TRUE(groups.ok());
  std::string key;
  std::vector<std::string> values;
  ASSERT_TRUE((*groups)[0]->NextGroup(&key, &values));
  EXPECT_EQ(key, "good");
  EXPECT_FALSE((*groups)[0]->NextGroup(&key, &values));
}

TEST(AStoreTest, AddBatchOnTruncatedValueReportsError) {
  ByteBuffer wire;
  EncodeKV(&wire, "key", "a-value-that-gets-cut");
  const std::string_view full = wire.view();
  PartitionedCollector store(StoreOptions());
  EXPECT_FALSE(store.AddBatch(full.substr(0, full.size() - 5)).ok());
  EXPECT_EQ(store.records_added(), 0);
}

TEST(AStoreTest, ZeroByteKeysAndValuesSurviveSpillRoundTrip) {
  PartitionedCollector store(StoreOptions(1));  // spill after every record
  ASSERT_TRUE(store.Add("", "1").ok());
  ASSERT_TRUE(store.Add("k", "").ok());
  ASSERT_TRUE(store.Add("", "2").ok());
  ASSERT_TRUE(store.Add("", "").ok());
  EXPECT_GT(store.spill_count(), 0);
  auto groups = store.FinishIterators();
  ASSERT_TRUE(groups.ok());
  std::string key;
  std::vector<std::string> values;
  ASSERT_TRUE((*groups)[0]->NextGroup(&key, &values));
  EXPECT_EQ(key, "");
  EXPECT_EQ(values, (std::vector<std::string>{"", "1", "2"}));
  ASSERT_TRUE((*groups)[0]->NextGroup(&key, &values));
  EXPECT_EQ(key, "k");
  EXPECT_EQ(values, (std::vector<std::string>{""}));
  EXPECT_FALSE((*groups)[0]->NextGroup(&key, &values));
  EXPECT_TRUE((*groups)[0]->status().ok());
}

// ---- The job engine ----

TEST(DataMPIJobTest, WordCountEndToEnd) {
  JobConfig config;
  config.num_o_ranks = 3;
  config.num_a_ranks = 2;
  DataMPIJob job(config);
  const std::vector<std::string> docs = {"a b a", "b c", "a"};
  auto result = job.Run(
      [&](OContext* ctx) -> Status {
        for (const char* word :
             {docs[ctx->task_id()].c_str()}) {
          std::string_view line(word);
          size_t pos = 0;
          while (pos < line.size()) {
            size_t space = line.find(' ', pos);
            if (space == std::string_view::npos) space = line.size();
            DMB_RETURN_NOT_OK(ctx->Emit(line.substr(pos, space - pos), "1"));
            pos = space + 1;
          }
        }
        return Status::OK();
      },
      [](std::string_view key, const std::vector<std::string>& values,
         AEmitter* out) -> Status {
        out->Emit(key, std::to_string(values.size()));
        return Status::OK();
      });
  ASSERT_TRUE(result.ok()) << result.status();
  std::map<std::string, std::string> counts;
  for (const auto& kv : result->Merged()) counts[kv.key] = kv.value;
  EXPECT_EQ(counts["a"], "3");
  EXPECT_EQ(counts["b"], "2");
  EXPECT_EQ(counts["c"], "1");
  EXPECT_EQ(result->stats.o_records_emitted, 6);
  EXPECT_EQ(result->stats.output_records, 3);
}

TEST(DataMPIJobTest, DynamicTaskSchedulingCoversAllTasks) {
  JobConfig config;
  config.num_o_ranks = 2;
  config.num_a_ranks = 1;
  config.num_o_tasks = 9;  // more logical tasks than ranks -> waves
  DataMPIJob job(config);
  auto result = job.Run(
      [](OContext* ctx) -> Status {
        return ctx->Emit("task" + std::to_string(ctx->task_id()), "x");
      },
      [](std::string_view key, const std::vector<std::string>& values,
         AEmitter* out) -> Status {
        out->Emit(key, std::to_string(values.size()));
        return Status::OK();
      });
  ASSERT_TRUE(result.ok()) << result.status();
  std::set<std::string> keys;
  for (const auto& kv : result->Merged()) keys.insert(kv.key);
  EXPECT_EQ(keys.size(), 9u) << "every logical task must run exactly once";
}

TEST(DataMPIJobTest, CombinerReducesShuffleVolume) {
  auto run = [](bool use_combiner) {
    JobConfig config;
    config.num_o_ranks = 2;
    config.num_a_ranks = 2;
    if (use_combiner) {
      config.combiner = [](std::string_view,
                           const std::vector<std::string>& values) {
        int64_t total = 0;
        for (const auto& v : values) total += std::stoll(v);
        return std::to_string(total);
      };
    }
    DataMPIJob job(config);
    auto result = job.Run(
        [](OContext* ctx) -> Status {
          for (int i = 0; i < 1000; ++i) {
            DMB_RETURN_NOT_OK(ctx->Emit("same-key", "1"));
          }
          return Status::OK();
        },
        [](std::string_view key, const std::vector<std::string>& values,
           AEmitter* out) -> Status {
          int64_t total = 0;
          for (const auto& v : values) total += std::stoll(v);
          out->Emit(key, std::to_string(total));
          return Status::OK();
        });
    return result;
  };
  auto with = run(true);
  auto without = run(false);
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(without.ok());
  EXPECT_EQ(with->Merged()[0].value, "2000");
  EXPECT_EQ(without->Merged()[0].value, "2000");
  EXPECT_LT(with->stats.shuffle_bytes, without->stats.shuffle_bytes / 10)
      << "combiner must collapse duplicate keys before the wire";
}

TEST(DataMPIJobTest, RangePartitionedSortIsGloballyOrdered) {
  Rng rng(23);
  std::vector<std::string> keys;
  for (int i = 0; i < 2000; ++i) {
    keys.push_back(
        NumberedKey("k", static_cast<int64_t>(rng.Uniform(100000))));
  }
  JobConfig config;
  config.num_o_ranks = 4;
  config.num_a_ranks = 4;
  config.partitioner = std::make_shared<RangePartitioner>(
      RangePartitioner::FromSample(keys, 4));
  DataMPIJob job(config);
  auto result = job.Run(
      [&](OContext* ctx) -> Status {
        const size_t begin = keys.size() * ctx->task_id() / 4;
        const size_t end = keys.size() * (ctx->task_id() + 1) / 4;
        for (size_t i = begin; i < end; ++i) {
          DMB_RETURN_NOT_OK(ctx->Emit(keys[i], ""));
        }
        return Status::OK();
      },
      [](std::string_view key, const std::vector<std::string>& values,
         AEmitter* out) -> Status {
        for (size_t i = 0; i < values.size(); ++i) out->Emit(key, "");
        return Status::OK();
      });
  ASSERT_TRUE(result.ok()) << result.status();
  const auto merged = result->Merged();
  ASSERT_EQ(merged.size(), keys.size());
  for (size_t i = 1; i < merged.size(); ++i) {
    EXPECT_LE(merged[i - 1].key, merged[i].key) << "at " << i;
  }
}

/// A function that shows the group it was handed: "<values>:<sum>", so
/// a run that folds differently from another yields different output.
Status CountAndSum(std::string_view key,
                   const std::vector<std::string>& values, AEmitter* out) {
  DMB_ASSIGN_OR_RETURN(const int64_t total,
                       workloads::SumInt64(key, values));
  std::string shown = std::to_string(values.size());
  shown.append(":").append(std::to_string(total));
  out->Emit(key, shown);
  return Status::OK();
}

/// The int64 sum as a DataMPI A function.
Status SumValues(std::string_view key, const std::vector<std::string>& values,
                 AEmitter* out) {
  DMB_ASSIGN_OR_RETURN(const int64_t total,
                       workloads::SumInt64(key, values));
  out->Emit(key, shuffle::FormatInt64(total));
  return Status::OK();
}

// The restart must rebuild the A side exactly as the first run did,
// folding the checkpointed partials when the job declares a fold.
TEST(DataMPIJobTest, CheckpointRestartReproducesAOutput) {
  for (const bool folded : {false, true}) {
    SCOPED_TRACE(folded ? "int64 sum fold" : "no combiner");
    TempDir dir("dmb-ckpt");
    JobConfig config;
    config.num_o_ranks = 2;
    config.num_a_ranks = 3;
    config.checkpoint_dir = dir.path().string();
    if (folded) {
      config.combiner = workloads::Int64SumCombiner;
      config.fold = shuffle::Fold::Int64Sum();
    }
    DataMPIJob job(config);
    auto first = job.Run(
        [](OContext* ctx) -> Status {
          for (int i = 0; i < 50; ++i) {
            DMB_RETURN_NOT_OK(ctx->Emit(NumberedKey("k", i % 7), "1"));
          }
          return Status::OK();
        },
        CountAndSum);
    ASSERT_TRUE(first.ok()) << first.status();
    std::map<std::string, std::string> shown;
    for (const auto& kv : first->Merged()) shown[kv.key] = kv.value;
    // Two O tasks emit k0 8 times each and every other key 7 times.
    EXPECT_EQ(shown["k0"], folded ? "1:16" : "16:16");
    EXPECT_EQ(shown["k1"], folded ? "1:14" : "14:14");

    // Restart the A phase only, from the persisted shuffle data.
    auto second = job.RunFromCheckpoint(CountAndSum);
    ASSERT_TRUE(second.ok()) << second.status();
    auto sort_pairs = [](std::vector<KVPair> v) {
      std::sort(v.begin(), v.end(), KVPairLess{});
      return v;
    };
    EXPECT_EQ(sort_pairs(first->Merged()), sort_pairs(second->Merged()));
  }
}

TEST(DataMPIJobTest, CorruptCheckpointFailsRestartWithChecksumError) {
  TempDir dir("dmb-ckpt-corrupt");
  JobConfig config;
  config.num_o_ranks = 2;
  config.num_a_ranks = 2;
  config.checkpoint_dir = dir.path().string();
  DataMPIJob job(config);
  auto a_fn = [](std::string_view key, const std::vector<std::string>& values,
                 AEmitter* out) -> Status {
    out->Emit(key, std::to_string(values.size()));
    return Status::OK();
  };
  auto first = job.Run(
      [](OContext* ctx) -> Status {
        for (int i = 0; i < 200; ++i) {
          DMB_RETURN_NOT_OK(
              ctx->Emit(NumberedKey("key-", i % 13), "payload"));
        }
        return Status::OK();
      },
      a_fn);
  ASSERT_TRUE(first.ok()) << first.status();

  // Flip one byte in the middle of one A task's checkpoint file. The
  // checkpoints are io block files, so the restart must detect the
  // damage (block CRC / footer validation) instead of replaying it.
  const std::string path = dir.File("a-0.ckpt");
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  ASSERT_GT(bytes->size(), 0u);
  (*bytes)[bytes->size() / 2] ^= 0x40;
  ASSERT_TRUE(WriteFileBytes(path, *bytes).ok());

  auto restarted = job.RunFromCheckpoint(a_fn);
  ASSERT_FALSE(restarted.ok()) << "corrupt checkpoint must not restart";
  EXPECT_TRUE(restarted.status().code() == StatusCode::kCorruption ||
              restarted.status().IsIOError())
      << restarted.status();
}

TEST(DataMPIJobTest, SpillingJobStillProducesCorrectOutput) {
  JobConfig config;
  config.num_o_ranks = 2;
  config.num_a_ranks = 2;
  config.a_memory_budget_bytes = 2048;  // tiny -> spills
  DataMPIJob job(config);
  auto result = job.Run(
      [](OContext* ctx) -> Status {
        for (int i = 0; i < 2000; ++i) {
          DMB_RETURN_NOT_OK(ctx->Emit(
              NumberedKey("key-", (ctx->task_id() * 2000 + i) % 97),
              "1"));
        }
        return Status::OK();
      },
      [](std::string_view key, const std::vector<std::string>& values,
         AEmitter* out) -> Status {
        out->Emit(key, std::to_string(values.size()));
        return Status::OK();
      });
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->stats.a_spill_count, 0);
  int64_t total = 0;
  for (const auto& kv : result->Merged()) total += std::stoll(kv.value);
  EXPECT_EQ(total, 4000);
}

// Small send buffers ship many folded batches, and a small A budget
// drains the A-side fold table many times; neither may change a byte
// of the combiner-only job's output.
TEST(DataMPIJobTest, FoldedSmallBatchesMatchTheCombinerByteForByte) {
  auto run = [](bool folded, int64_t a_budget) {
    JobConfig config;
    config.num_o_ranks = 2;
    config.num_a_ranks = 3;
    config.send_buffer_bytes = 1024;
    config.a_memory_budget_bytes = a_budget;
    config.combiner = workloads::Int64SumCombiner;
    if (folded) config.fold = shuffle::Fold::Int64Sum();
    DataMPIJob job(config);
    return job.Run(
        [](OContext* ctx) -> Status {
          Rng rng(static_cast<uint64_t>(31 + ctx->task_id()));
          for (int i = 0; i < 6000; ++i) {
            const int64_t weight = rng.Uniform(2) == 0
                                       ? 1
                                       : static_cast<int64_t>(rng.Uniform(
                                             1000000000000ULL));
            DMB_RETURN_NOT_OK(ctx->Emit(
                NumberedKey("key-", static_cast<int64_t>(rng.Uniform(500))),
                std::to_string(weight)));
          }
          return Status::OK();
        },
        SumValues);
  };
  for (const int64_t a_budget : {int64_t{64} << 20, int64_t{2048}}) {
    SCOPED_TRACE("A budget " + std::to_string(a_budget));
    auto want = run(/*folded=*/false, a_budget);
    ASSERT_TRUE(want.ok()) << want.status();
    auto got = run(/*folded=*/true, a_budget);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_GT(got->stats.shuffle_batches, 20) << "must ship many batches";
    if (a_budget < 4096) {
      EXPECT_GT(got->stats.a_spill_count, 3) << "must drain many times";
    }
    EXPECT_EQ(got->a_outputs, want->a_outputs);
  }
}

TEST(DataMPIJobTest, OTaskErrorPropagates) {
  JobConfig config;
  config.num_o_ranks = 2;
  config.num_a_ranks = 2;
  DataMPIJob job(config);
  auto result = job.Run(
      [](OContext* ctx) -> Status {
        if (ctx->task_id() == 1) return Status::Internal("boom");
        return ctx->Emit("k", "v");
      },
      [](std::string_view key, const std::vector<std::string>& values,
         AEmitter* out) -> Status {
        out->Emit(key, std::to_string(values.size()));
        return Status::OK();
      });
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace dmb::datampi
