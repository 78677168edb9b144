// Tests for the unified Engine abstraction (src/engine): the registry,
// spec validation, direct Engine::Run jobs, spill policies, unified
// EngineStats, and cross-engine agreement of the engine-generic
// workloads (WordCount, Grep, Sort) over randomized inputs — the
// like-for-like property the paper's comparison rests on.

#include <algorithm>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "common/random.h"
#include "engine/registry.h"
#include "workloads/micro.h"

namespace dmb::engine {
namespace {

using datampi::KVPair;

// Random lines over a small alphabet with many duplicate words, so that
// grouping, combining and duplicate keys are all exercised.
std::vector<std::string> RandomLines(uint64_t seed, int n) {
  Rng rng(seed);
  std::vector<std::string> lines;
  lines.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    std::string line;
    const int words = 1 + static_cast<int>(rng.Uniform(8));
    for (int w = 0; w < words; ++w) {
      if (w > 0) line.push_back(' ');
      const int len = 1 + static_cast<int>(rng.Uniform(4));
      for (int c = 0; c < len; ++c) {
        line.push_back(static_cast<char>('a' + rng.Uniform(5)));
      }
    }
    lines.push_back(std::move(line));
  }
  return lines;
}

JobSpec CountingSpec(const std::vector<std::string>& lines) {
  JobSpec spec;
  spec.input = LinesAsInput(lines);
  spec.combiner = [](std::string_view, const std::vector<std::string>& vs) {
    int64_t total = 0;
    for (const auto& v : vs) total += std::stoll(v);
    return std::to_string(total);
  };
  spec.map_fn = [](std::string_view, std::string_view line,
                   MapContext* ctx) -> Status {
    Status st;
    workloads::ForEachToken(line, [&](std::string_view tok) {
      if (st.ok()) st = ctx->Emit(tok, "1");
    });
    return st;
  };
  spec.reduce_fn = [](std::string_view key,
                      const std::vector<std::string>& values,
                      ReduceEmitter* out) -> Status {
    int64_t total = 0;
    for (const auto& v : values) total += std::stoll(v);
    out->Emit(key, std::to_string(total));
    return Status::OK();
  };
  return spec;
}

// ---- Registry ----

TEST(EngineRegistryTest, ThreeEnginesWithDistinctNames) {
  const auto& engines = Engines();
  ASSERT_EQ(engines.size(), 3u);
  std::set<std::string> names;
  for (const auto& info : engines) {
    names.insert(info.name);
    auto eng = info.make();
    ASSERT_NE(eng, nullptr);
    EXPECT_EQ(eng->name(), info.name);
  }
  EXPECT_EQ(names, (std::set<std::string>{"datampi", "mapreduce",
                                          "rddlite"}));
}

TEST(EngineRegistryTest, LookupByNameAndSystemAlias) {
  for (const char* name : {"datampi", "mapreduce", "rddlite", "hadoop",
                           "spark"}) {
    auto eng = MakeEngine(name);
    ASSERT_TRUE(eng.ok()) << name;
  }
  EXPECT_EQ(MakeEngine("mapreduce").value()->name(),
            MakeEngine("hadoop").value()->name());
  EXPECT_EQ(MakeEngine("rddlite").value()->name(),
            MakeEngine("spark").value()->name());
  auto missing = MakeEngine("flink");
  ASSERT_FALSE(missing.ok());
  EXPECT_TRUE(missing.status().IsNotFound());
}

// ---- Spec validation ----

TEST(EngineSpecTest, InvalidSpecsAreRejectedByEveryEngine) {
  for (const auto& info : Engines()) {
    auto eng = info.make();
    JobSpec empty;
    auto r = eng->Run(empty);
    ASSERT_FALSE(r.ok()) << info.name;
    EXPECT_TRUE(r.status().IsInvalidArgument()) << info.name;

    JobSpec bad_parallelism = CountingSpec({"a b"});
    bad_parallelism.parallelism = 0;
    r = eng->Run(bad_parallelism);
    ASSERT_FALSE(r.ok()) << info.name;
    EXPECT_TRUE(r.status().IsInvalidArgument()) << info.name;
  }
}

// ---- Direct Engine::Run: agreement + stats ----

TEST(EngineRunTest, IdenticalGroupedOutputAndPopulatedStats) {
  const auto lines = RandomLines(/*seed=*/42, /*n=*/400);
  std::map<std::string, std::vector<KVPair>> merged_by_engine;
  for (const auto& info : Engines()) {
    auto eng = info.make();
    JobSpec spec = CountingSpec(lines);
    auto out = eng->Run(spec);
    ASSERT_TRUE(out.ok()) << info.name << ": " << out.status();
    EXPECT_EQ(out->partitions.size(),
              static_cast<size_t>(spec.parallelism))
        << info.name;
    // Unified stats must be populated on every engine.
    EXPECT_GT(out->stats.map_output_records, 0) << info.name;
    EXPECT_GT(out->stats.shuffle_bytes, 0) << info.name;
    EXPECT_GT(out->stats.reduce_input_records, 0) << info.name;
    EXPECT_GT(out->stats.output_records, 0) << info.name;
    // With a combiner, the reduce side sees at most the map output.
    EXPECT_LE(out->stats.reduce_input_records,
              out->stats.map_output_records)
        << info.name;
    merged_by_engine[info.name] = out->Merged();
  }
  // Sorted grouped outputs must be byte-identical across engines (the
  // partition layout may differ: DataMPI/MapReduce hash-partition with
  // the same function, rddlite too — but we only require the merged
  // sorted stream to agree).
  auto canonical = [](std::vector<KVPair> kvs) {
    std::sort(kvs.begin(), kvs.end(), datampi::KVPairLess{});
    return kvs;
  };
  const auto reference = canonical(merged_by_engine.begin()->second);
  EXPECT_FALSE(reference.empty());
  for (auto& [name, merged] : merged_by_engine) {
    EXPECT_EQ(canonical(merged), reference) << name;
  }
}

// A declared fold is a faster way to the combiner's result, never a
// different one: with unit counts and with multi-digit weights, every
// engine's partitions must be the same bytes as with the combiner alone
// (rddlite hash-aggregates on the map side; DataMPI folds its O-side
// send buffers and its A-side store; MapReduce combines in its sorted
// spills either way). Spilling on every record and a small budget make
// DataMPI's A-side fold table drain many times.
TEST(EngineRunTest, DeclaredFoldMatchesThePlainCombinerByteForByte) {
  const auto lines = RandomLines(/*seed=*/77, /*n=*/600);
  enum class Memory { kDefault, kAlwaysSpill, kSmallBudget };
  for (const auto& info : Engines()) {
    for (const int parallelism : {1, 3}) {
      for (const Memory memory :
           {Memory::kDefault, Memory::kAlwaysSpill, Memory::kSmallBudget}) {
        for (const bool weighted : {false, true}) {
          JobSpec plain = CountingSpec(lines);
          plain.parallelism = parallelism;
          if (memory == Memory::kAlwaysSpill) {
            plain.spill = SpillPolicy::kAlwaysSpill;
          } else if (memory == Memory::kSmallBudget) {
            plain.memory_budget_bytes = 2048;
            plain.rdd_shuffle_spill = true;  // rddlite spills, not OOMs
          }
          if (weighted) {
            // Each word counts with its line's length.
            plain.map_fn = [](std::string_view, std::string_view line,
                              MapContext* ctx) -> Status {
              const std::string weight = std::to_string(line.size());
              Status st;
              workloads::ForEachToken(line, [&](std::string_view tok) {
                if (st.ok()) st = ctx->Emit(tok, weight);
              });
              return st;
            };
          }
          JobSpec folded = plain;
          folded.fold = shuffle::Fold::Int64Sum();
          auto want = info.make()->Run(plain);
          ASSERT_TRUE(want.ok()) << info.name << ": " << want.status();
          auto got = info.make()->Run(folded);
          ASSERT_TRUE(got.ok()) << info.name << ": " << got.status();
          EXPECT_EQ(got->partitions, want->partitions)
              << info.name << " parallelism " << parallelism << " weighted "
              << weighted << " memory " << static_cast<int>(memory);
          EXPECT_EQ(got->stats.map_output_records,
                    want->stats.map_output_records)
              << info.name;
          if (std::string_view(info.name) == "datampi" &&
              memory == Memory::kSmallBudget) {
            // At least five drains per A task.
            EXPECT_GE(got->stats.spill_count, 5 * parallelism) << info.name;
          }
        }
      }
    }
  }
}

TEST(EngineSpecTest, FoldWithoutCombinerIsRejected) {
  for (const auto& info : Engines()) {
    JobSpec spec = CountingSpec({"a b"});
    spec.combiner = nullptr;
    spec.fold = shuffle::Fold::Int64Sum();
    auto r = info.make()->Run(spec);
    ASSERT_FALSE(r.ok()) << info.name;
    EXPECT_TRUE(r.status().IsInvalidArgument()) << info.name;
  }
}

TEST(EngineRunTest, SpillPoliciesPreserveResults) {
  const auto lines = RandomLines(/*seed=*/7, /*n=*/300);
  for (const auto& info : Engines()) {
    std::vector<KVPair> reference;
    for (SpillPolicy policy :
         {SpillPolicy::kEngineDefault, SpillPolicy::kMemoryOnly,
          SpillPolicy::kAlwaysSpill}) {
      auto eng = info.make();
      JobSpec spec = CountingSpec(lines);
      spec.spill = policy;
      auto out = eng->Run(spec);
      ASSERT_TRUE(out.ok()) << info.name << ": " << out.status();
      auto merged = out->Merged();
      std::sort(merged.begin(), merged.end(), datampi::KVPairLess{});
      if (reference.empty()) {
        reference = merged;
      } else {
        EXPECT_EQ(merged, reference)
            << info.name << " policy " << static_cast<int>(policy);
      }
      if (policy == SpillPolicy::kAlwaysSpill &&
          info.framework != simfw::Framework::kSpark) {
        // DataMPI and MapReduce both have a disk path and must use it.
        EXPECT_GT(out->stats.spill_count, 0) << info.name;
      }
    }
  }
}

TEST(EngineRunTest, MapErrorsPropagateFromEveryEngine) {
  for (const auto& info : Engines()) {
    auto eng = info.make();
    JobSpec spec = CountingSpec({"a", "b", "c", "d"});
    spec.map_fn = [](std::string_view, std::string_view,
                     MapContext*) -> Status {
      return Status::Internal("map boom");
    };
    auto r = eng->Run(spec);
    ASSERT_FALSE(r.ok()) << info.name;
    EXPECT_EQ(r.status().message(), "map boom") << info.name;

    auto eng2 = info.make();
    JobSpec spec2 = CountingSpec({"a", "b", "c", "d"});
    spec2.reduce_fn = [](std::string_view, const std::vector<std::string>&,
                         ReduceEmitter*) -> Status {
      return Status::Internal("reduce boom");
    };
    r = eng2->Run(spec2);
    ASSERT_FALSE(r.ok()) << info.name;
    EXPECT_EQ(r.status().message(), "reduce boom") << info.name;
  }
}

TEST(EngineRunTest, ShuffleThreadsDoNotChangeResults) {
  const auto lines = RandomLines(/*seed=*/321, /*n=*/400);
  for (const auto& info : Engines()) {
    // Serial baseline: the default spec must never touch the pool.
    auto serial_eng = info.make();
    JobSpec serial_spec = CountingSpec(lines);
    serial_spec.spill = SpillPolicy::kAlwaysSpill;
    auto serial = serial_eng->Run(serial_spec);
    ASSERT_TRUE(serial.ok()) << info.name << ": " << serial.status();
    EXPECT_EQ(serial->stats.parallel_shuffle_tasks, 0) << info.name;
    auto reference = serial->Merged();
    std::sort(reference.begin(), reference.end(), datampi::KVPairLess{});
    ASSERT_FALSE(reference.empty()) << info.name;

    for (int threads : {0, 4}) {
      auto eng = info.make();
      JobSpec spec = CountingSpec(lines);
      spec.spill = SpillPolicy::kAlwaysSpill;
      spec.shuffle_threads = threads;
      // Tiny threshold so even these small task-local sorts fan out.
      spec.parallel_sort_threshold = 1;
      auto out = eng->Run(spec);
      ASSERT_TRUE(out.ok())
          << info.name << " threads=" << threads << ": " << out.status();
      auto merged = out->Merged();
      std::sort(merged.begin(), merged.end(), datampi::KVPairLess{});
      EXPECT_EQ(merged, reference) << info.name << " threads=" << threads;
      // threads=0 resolves to hardware_concurrency, which may be 1 on a
      // constrained host; only an explicit multi-thread run must report
      // pool work.
      if (threads >= 2) {
        EXPECT_GT(out->stats.parallel_shuffle_tasks, 0) << info.name;
      }
    }
  }
}

// ---- Workloads through the unified API, randomized ----

class EngineAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(EngineAgreementTest, WordCountGrepSortAgreeOnRandomInputs) {
  const uint64_t seed = static_cast<uint64_t>(GetParam()) * 1299709 + 3;
  const auto lines = RandomLines(seed, 250);
  workloads::EngineConfig config;
  config.parallelism = 3;

  std::map<std::string, int64_t> wordcount_ref;
  workloads::GrepResult grep_ref;
  std::vector<std::string> sort_ref;
  bool first = true;
  for (const auto& info : Engines()) {
    auto eng = info.make();
    EngineStats wc_stats;
    auto wc = workloads::WordCount(*eng, lines, config, &wc_stats);
    auto grep = workloads::Grep(*eng, lines, "ab", config);
    auto sorted = workloads::TextSort(*eng, lines, config);
    ASSERT_TRUE(wc.ok()) << info.name << ": " << wc.status();
    ASSERT_TRUE(grep.ok()) << info.name << ": " << grep.status();
    ASSERT_TRUE(sorted.ok()) << info.name << ": " << sorted.status();
    // WordCount moves data: its stats must show a real shuffle.
    EXPECT_GT(wc_stats.shuffle_bytes, 0) << info.name;
    EXPECT_GT(wc_stats.map_output_records, 0) << info.name;
    if (first) {
      wordcount_ref = *wc;
      grep_ref = *grep;
      sort_ref = *sorted;
      first = false;
      // Cross-check the first engine against scalar oracles.
      std::vector<std::string> expected = lines;
      std::sort(expected.begin(), expected.end());
      EXPECT_EQ(sort_ref, expected);
      EXPECT_EQ(wordcount_ref, workloads::ReferenceWordCount(lines));
    } else {
      EXPECT_EQ(*wc, wordcount_ref) << info.name;
      EXPECT_EQ(grep->matched_lines, grep_ref.matched_lines) << info.name;
      EXPECT_EQ(grep->total_matches, grep_ref.total_matches) << info.name;
      EXPECT_EQ(*sorted, sort_ref) << info.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineAgreementTest,
                         ::testing::Range(0, 5));

}  // namespace
}  // namespace dmb::engine
