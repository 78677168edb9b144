// Cross-engine agreement tests: every workload is implemented once
// against the unified Engine interface and must produce identical
// results on every registered engine and on the single-threaded
// reference oracle.

#include <algorithm>

#include <gtest/gtest.h>

#include "datagen/seqfile.h"
#include "datagen/text_generator.h"
#include "datagen/vectors.h"
#include "engine/registry.h"
#include "workloads/int64_sum.h"
#include "workloads/kmeans.h"
#include "workloads/micro.h"
#include "workloads/naive_bayes.h"
#include "workloads/text_utils.h"

namespace dmb::workloads {
namespace {

std::vector<std::string> TestCorpus(int64_t bytes, uint64_t seed = 2014) {
  datagen::TextGenOptions options;
  options.seed = seed;
  datagen::TextGenerator gen(options);
  return gen.GenerateLines(bytes);
}

// ---- Tokenizer / Grep pattern kernels ----

TEST(TextUtilsTest, TokenizeSkipsRuns) {
  auto tokens = Tokenize("  hello   world \t x ");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0], "hello");
  EXPECT_EQ(tokens[2], "x");
  EXPECT_TRUE(Tokenize("").empty());
  EXPECT_TRUE(Tokenize("   ").empty());
}

TEST(GrepPatternTest, LiteralSubstring) {
  GrepPattern p("abc");
  EXPECT_TRUE(p.Matches("xxabcyy"));
  EXPECT_TRUE(p.Matches("abc"));
  EXPECT_FALSE(p.Matches("ab c"));
  EXPECT_EQ(p.CountMatches("abcabc"), 2);
}

TEST(GrepPatternTest, DotAndStar) {
  GrepPattern p("a.c");
  EXPECT_TRUE(p.Matches("axc"));
  EXPECT_FALSE(p.Matches("ac"));
  GrepPattern star("ab*c");
  EXPECT_TRUE(star.Matches("ac"));
  EXPECT_TRUE(star.Matches("abbbbc"));
  EXPECT_FALSE(star.Matches("adc"));
}

TEST(GrepPatternTest, CharClassAndAnchors) {
  GrepPattern cls("x[a-m]z");
  EXPECT_TRUE(cls.Matches("xez"));
  EXPECT_FALSE(cls.Matches("xqz"));
  GrepPattern begin("^abc");
  EXPECT_TRUE(begin.Matches("abcdef"));
  EXPECT_FALSE(begin.Matches("zabc"));
  GrepPattern end("xyz$");
  EXPECT_TRUE(end.Matches("wxyz"));
  EXPECT_FALSE(end.Matches("xyzw"));
}

// ---- WordCount ----

// ---- Int64 sum (the shared counting aggregation) ----

TEST(Int64SumTest, FormsAgreeAndRejectBadValuesNamingTheKey) {
  EXPECT_EQ(SumInt64("k", {"1", "-4", "10"}).value(), 7);
  EXPECT_EQ(Int64SumCombiner("k", {"1", "-4", "10"}), "7");
  EXPECT_EQ(Int64SumCombiner("k", {"007"}), "7");

  auto bad = SumInt64("word", {"1", "x"});
  ASSERT_TRUE(bad.status().IsInvalidArgument()) << bad.status();
  EXPECT_NE(bad.status().message().find("'word'"), std::string::npos);
  for (const char* v : {"", "+1", " 1", "1 ", "1.5", "0x10"}) {
    EXPECT_TRUE(SumInt64("k", {v}).status().IsInvalidArgument()) << v;
  }
  const std::string max = "9223372036854775807";
  auto overflow = SumInt64("big", {max, "1"});
  ASSERT_TRUE(overflow.status().IsInvalidArgument());
  EXPECT_NE(overflow.status().message().find("overflows"), std::string::npos);
  EXPECT_TRUE(SumInt64("big", {"-9223372036854775808", "-1"})
                  .status()
                  .IsInvalidArgument());
  EXPECT_EQ(SumInt64("big", {max, "-1", "1"}).value(), INT64_MAX);

  // The combiner cannot fail: it hands the fault on for the reduce.
  EXPECT_EQ(Int64SumCombiner("k", {"1", "x", "y"}), "x");
  EXPECT_EQ(Int64SumCombiner("big", {max, max}), "18446744073709551614");
  EXPECT_EQ(Int64SumCombiner("big", {"-9223372036854775808", "-1"}),
            "-9223372036854775809");
  EXPECT_TRUE(SumInt64("big", {Int64SumCombiner("big", {max, max})})
                  .status()
                  .IsInvalidArgument());
}

// A count that is not a number used to throw out of std::stoll on a
// worker thread (std::terminate); every engine must fail the job
// cleanly instead. rddlite and DataMPI fail through their folds (DataMPI
// on the O side for a bad value or a task's own overflow, on the A side
// when only the total of two tasks' partials overflows), MapReduce
// through the reduce.
TEST(Int64SumTest, NonDecimalOrOverflowingCountsFailTheJobCleanly) {
  const std::string max = "9223372036854775807";
  // With parallelism 2 the first input gives the second task two 'a's;
  // the second gives each task one, so only the total overflows.
  const std::vector<std::string> one_task_overflows = {"a b", "b c", "c a",
                                                       "a"};
  const std::vector<std::string> only_the_total_overflows = {"a b", "b c",
                                                             "c a", "d"};
  const std::vector<std::pair<std::string, std::vector<std::string>>> cases =
      {{"x", one_task_overflows},
       {max, one_task_overflows},
       {max, only_the_total_overflows}};
  for (const auto& [bad_value, lines] : cases) {
    for (const auto& info : engine::Engines()) {
      engine::JobSpec spec;
      spec.parallelism = 2;
      spec.input = engine::LinesAsInput(lines);
      UseInt64Sum(&spec);
      spec.map_fn = [bad_value = bad_value](std::string_view,
                                            std::string_view line,
                                            engine::MapContext* ctx) -> Status {
        Status st;
        ForEachToken(line, [&](std::string_view tok) {
          if (st.ok()) st = ctx->Emit(tok, tok == "a" ? bad_value : "1");
        });
        return st;
      };
      auto out = info.make()->Run(spec);
      ASSERT_FALSE(out.ok()) << info.name << " " << bad_value;
      EXPECT_TRUE(out.status().IsInvalidArgument())
          << info.name << ": " << out.status();
      EXPECT_NE(out.status().message().find("'a'"), std::string::npos)
          << info.name << ": " << out.status();
    }
  }
}

TEST(WordCountTest, AllEnginesAgreeWithOracle) {
  const auto lines = TestCorpus(64 * 1024);
  const auto oracle = ReferenceWordCount(lines);
  EngineConfig config;
  for (const auto& info : engine::Engines()) {
    auto eng = info.make();
    auto result = WordCount(*eng, lines, config);
    ASSERT_TRUE(result.ok()) << info.name << ": " << result.status();
    EXPECT_EQ(*result, oracle) << info.name;
  }
}

TEST(WordCountTest, EmptyInput) {
  EngineConfig config;
  for (const auto& info : engine::Engines()) {
    auto eng = info.make();
    auto result = WordCount(*eng, {}, config);
    ASSERT_TRUE(result.ok()) << info.name;
    EXPECT_TRUE(result->empty()) << info.name;
  }
}

class WordCountParallelismTest : public ::testing::TestWithParam<int> {};

TEST_P(WordCountParallelismTest, ResultIndependentOfParallelism) {
  const auto lines = TestCorpus(16 * 1024, /*seed=*/5);
  const auto oracle = ReferenceWordCount(lines);
  EngineConfig config;
  config.parallelism = GetParam();
  for (const auto& info : engine::Engines()) {
    auto eng = info.make();
    auto result = WordCount(*eng, lines, config);
    ASSERT_TRUE(result.ok()) << info.name << ": " << result.status();
    EXPECT_EQ(*result, oracle) << info.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Parallelism, WordCountParallelismTest,
                         ::testing::Values(1, 2, 3, 8));

// ---- Grep ----

TEST(GrepTest, AllEnginesAgreeWithOracle) {
  const auto lines = TestCorpus(64 * 1024);
  const std::string pattern = "ab";
  GrepPattern compiled(pattern);
  auto oracle_lines = ReferenceGrep(lines, compiled);
  std::sort(oracle_lines.begin(), oracle_lines.end());
  EngineConfig config;
  int64_t reference_matches = -1;
  for (const auto& info : engine::Engines()) {
    auto eng = info.make();
    auto result = Grep(*eng, lines, pattern, config);
    ASSERT_TRUE(result.ok()) << info.name << ": " << result.status();
    EXPECT_EQ(result->matched_lines, oracle_lines) << info.name;
    EXPECT_GT(result->total_matches, 0) << info.name;
    if (reference_matches < 0) {
      reference_matches = result->total_matches;
    } else {
      EXPECT_EQ(result->total_matches, reference_matches) << info.name;
    }
  }
}

TEST(GrepTest, NoMatches) {
  EngineConfig config;
  for (const auto& info : engine::Engines()) {
    auto eng = info.make();
    auto result = Grep(*eng, {"aaa", "bbb"}, "zzz", config);
    ASSERT_TRUE(result.ok()) << info.name;
    EXPECT_TRUE(result->matched_lines.empty()) << info.name;
    EXPECT_EQ(result->total_matches, 0) << info.name;
  }
}

// ---- Text Sort ----

TEST(TextSortTest, AllEnginesProduceSortedPermutation) {
  auto lines = TestCorpus(48 * 1024);
  std::vector<std::string> expected = lines;
  std::sort(expected.begin(), expected.end());
  EngineConfig config;
  for (const auto& info : engine::Engines()) {
    auto eng = info.make();
    auto result = TextSort(*eng, lines, config);
    ASSERT_TRUE(result.ok()) << info.name << ": " << result.status();
    EXPECT_EQ(*result, expected) << info.name;
  }
}

TEST(TextSortTest, AlreadySortedAndReversedInputs) {
  std::vector<std::string> sorted;
  for (int i = 0; i < 100; ++i) {
    sorted.push_back("line" + std::to_string(1000 + i));
  }
  std::vector<std::string> reversed(sorted.rbegin(), sorted.rend());
  EngineConfig config;
  for (const auto& info : engine::Engines()) {
    auto eng = info.make();
    auto a = TextSort(*eng, sorted, config);
    auto b = TextSort(*eng, reversed, config);
    ASSERT_TRUE(a.ok()) << info.name;
    ASSERT_TRUE(b.ok()) << info.name;
    EXPECT_EQ(*a, sorted) << info.name;
    EXPECT_EQ(*b, sorted) << info.name;
  }
}

TEST(TextSortTest, DuplicateKeysPreserved) {
  std::vector<std::string> lines = {"dup", "dup", "aaa", "dup"};
  EngineConfig config;
  for (const auto& info : engine::Engines()) {
    auto eng = info.make();
    auto result = TextSort(*eng, lines, config);
    ASSERT_TRUE(result.ok()) << info.name;
    EXPECT_EQ(*result, (std::vector<std::string>{"aaa", "dup", "dup", "dup"}))
        << info.name;
  }
}

// ---- Normal Sort ----

TEST(NormalSortTest, SeqFileInOutSortedAndComplete) {
  const auto lines = TestCorpus(32 * 1024);
  const std::string input = datagen::ToSeqFile(lines);
  EngineConfig config;
  for (const auto& info : engine::Engines()) {
    auto eng = info.make();
    auto result = NormalSort(*eng, input, config);
    ASSERT_TRUE(result.ok()) << info.name << ": " << result.status();
    auto records = datagen::SeqFileReader::ReadAll(*result);
    ASSERT_TRUE(records.ok()) << info.name;
    ASSERT_EQ(records->size(), lines.size()) << info.name;
    for (size_t i = 1; i < records->size(); ++i) {
      EXPECT_LE((*records)[i - 1].first, (*records)[i].first) << info.name;
    }
    // Every record still has key == value (ToSeqFile invariant).
    for (const auto& [k, v] : *records) EXPECT_EQ(k, v);
  }
}

TEST(NormalSortTest, RddEngineMirrorsThePaperOomBehaviour) {
  const auto lines = TestCorpus(24 * 1024);
  const std::string input = datagen::ToSeqFile(lines);
  auto rdd = engine::MakeEngine("rddlite");
  auto datampi = engine::MakeEngine("datampi");
  ASSERT_TRUE(rdd.ok() && datampi.ok());
  // Generous executor budget: succeeds and matches the DataMPI output.
  EngineConfig big_config;
  big_config.memory_budget_bytes = int64_t{64} << 20;
  auto big = NormalSort(**rdd, input, big_config);
  ASSERT_TRUE(big.ok()) << big.status();
  auto reference = NormalSort(**datampi, input, EngineConfig{});
  ASSERT_TRUE(reference.ok());
  auto a = datagen::SeqFileReader::ReadAll(*big);
  auto b = datagen::SeqFileReader::ReadAll(*reference);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);
  // Tiny executor budget: the shuffle materialization OOMs, exactly
  // like the paper's Spark Normal Sort runs.
  EngineConfig small_config;
  small_config.memory_budget_bytes = 16 << 10;
  auto small = NormalSort(**rdd, input, small_config);
  ASSERT_FALSE(small.ok());
  EXPECT_TRUE(small.status().IsOutOfMemory()) << small.status();
}

// ---- Grep matcher property fuzz ----

class GrepFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(GrepFuzzTest, LiteralPatternsMatchFindSemantics) {
  // Property: for pure literal patterns, Matches(line) must equal
  // line.find(pattern) != npos, for random lines over a tiny alphabet
  // (which maximizes accidental matches).
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 1);
  for (int trial = 0; trial < 300; ++trial) {
    std::string pattern;
    const int plen = 1 + static_cast<int>(rng.Uniform(4));
    for (int i = 0; i < plen; ++i) {
      pattern.push_back(static_cast<char>('a' + rng.Uniform(3)));
    }
    std::string line;
    const int llen = static_cast<int>(rng.Uniform(20));
    for (int i = 0; i < llen; ++i) {
      line.push_back(static_cast<char>('a' + rng.Uniform(3)));
    }
    GrepPattern compiled(pattern);
    const bool expect = line.find(pattern) != std::string::npos;
    EXPECT_EQ(compiled.Matches(line), expect)
        << "pattern='" << pattern << "' line='" << line << "'";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GrepFuzzTest, ::testing::Range(0, 4));

TEST(GrepFuzzTest, StarPatternsAgainstHandOracle) {
  // a*b over {a,b}: matches iff line contains 'b' (zero or more a's
  // before a b always exists at the first 'b').
  GrepPattern star("a*b");
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    std::string line;
    const int llen = static_cast<int>(rng.Uniform(12));
    for (int i = 0; i < llen; ++i) {
      line.push_back(rng.Bernoulli(0.5) ? 'a' : 'b');
    }
    const bool expect = line.find('b') != std::string::npos;
    EXPECT_EQ(star.Matches(line), expect) << "line='" << line << "'";
  }
}

// ---- K-means ----

TEST(KmeansTest, OneIterationAgreesAcrossEngines) {
  datagen::KmeansDataOptions data_options;
  auto vectors = datagen::GenerateKmeansVectors(300, data_options);
  const uint32_t dim = datagen::KmeansDimension(data_options);
  KmeansModel model = InitialCentroids(vectors, 5, dim);
  const KmeansModel oracle = KmeansIterationReference(vectors, model);
  EngineConfig config;
  for (const auto& info : engine::Engines()) {
    auto eng = info.make();
    auto result = KmeansIteration(*eng, vectors, model, config);
    ASSERT_TRUE(result.ok()) << info.name << ": " << result.status();
    EXPECT_EQ(oracle.counts, result->counts) << info.name;
    EXPECT_LT(MaxCentroidShift(oracle, *result), 1e-9) << info.name;
  }
}

TEST(KmeansTest, TrainingConvergesOnSeparableData) {
  datagen::KmeansDataOptions data_options;
  auto vectors = datagen::GenerateKmeansVectors(250, data_options);
  const uint32_t dim = datagen::KmeansDimension(data_options);
  EngineConfig config;
  auto eng = engine::MakeEngine("datampi");
  ASSERT_TRUE(eng.ok());
  auto trained = KmeansTrain(**eng, vectors, 5, dim, /*threshold=*/0.5,
                             /*max_iterations=*/20, config);
  ASSERT_TRUE(trained.ok()) << trained.status();
  EXPECT_LE(trained->second, 20);
  // All points assigned; cluster sizes sum to n.
  int64_t total = 0;
  for (int64_t c : trained->first.counts) total += c;
  EXPECT_EQ(total, 250);
}

TEST(KmeansTest, EmptyClusterKeepsPreviousCentroid) {
  // Two identical far-away points and k=2 with centroid 1 unreachable.
  std::vector<SparseVector> vectors(3);
  vectors[0].entries = {{0, 1.0f}};
  vectors[1].entries = {{0, 1.0f}};
  vectors[2].entries = {{0, 1.0f}};
  KmeansModel model;
  model.centroids = {{1.0, 0.0}, {100.0, 0.0}};
  model.counts = {0, 0};
  const KmeansModel next = KmeansIterationReference(vectors, model);
  EXPECT_EQ(next.counts[0], 3);
  EXPECT_EQ(next.counts[1], 0);
  EXPECT_EQ(next.centroids[1][0], 100.0) << "empty cluster unchanged";
}

TEST(KmeansTest, DistanceKernelMatchesSlowPath) {
  datagen::KmeansDataOptions data_options;
  auto vectors = datagen::GenerateKmeansVectors(10, data_options);
  std::vector<double> centroid(1000, 0.0);
  centroid[3] = 2.0;
  centroid[999] = 1.0;
  double norm2 = 0;
  for (double v : centroid) norm2 += v * v;
  for (const auto& x : vectors) {
    EXPECT_NEAR(SparseDenseDistance2(x, centroid, norm2),
                x.SquaredDistance(centroid), 1e-6);
  }
}

// ---- Naive Bayes ----

TEST(NaiveBayesTest, TrainersAgreeWithOracleOnEveryEngine) {
  auto docs = datagen::GenerateBayesDocs(48 * 1024);
  const auto oracle = TrainNaiveBayesReference(docs, 5);
  EngineConfig config;
  for (const auto& info : engine::Engines()) {
    auto eng = info.make();
    auto model = TrainNaiveBayes(*eng, docs, 5, config);
    ASSERT_TRUE(model.ok()) << info.name << ": " << model.status();
    EXPECT_TRUE(*model == oracle) << info.name;
  }
}

TEST(NaiveBayesTest, ClassifierSeparatesTheSeedModels) {
  auto train = datagen::GenerateBayesDocs(128 * 1024);
  datagen::KmeansDataOptions holdout_options;
  holdout_options.seed = 777;  // unseen docs
  auto test = datagen::GenerateBayesDocs(16 * 1024, holdout_options);
  EngineConfig config;
  auto eng = engine::MakeEngine("datampi");
  ASSERT_TRUE(eng.ok());
  auto model = TrainNaiveBayes(**eng, train, 5, config);
  ASSERT_TRUE(model.ok()) << model.status();
  const double accuracy = EvaluateAccuracy(*model, test);
  EXPECT_GT(accuracy, 0.9) << "disjoint vocabularies must be separable";
}

TEST(NaiveBayesTest, ModelCountsAreConsistent) {
  auto docs = datagen::GenerateBayesDocs(16 * 1024);
  const auto model = TrainNaiveBayesReference(docs, 5);
  EXPECT_EQ(model.total_docs(), static_cast<int64_t>(docs.size()));
  int64_t doc_sum = 0;
  for (int64_t c : model.doc_counts()) doc_sum += c;
  EXPECT_EQ(doc_sum, model.total_docs());
  int64_t term_sum = 0;
  for (int64_t t : model.term_totals()) term_sum += t;
  int64_t expected_terms = 0;
  for (const auto& d : docs) {
    expected_terms += static_cast<int64_t>(Tokenize(d.text).size());
  }
  EXPECT_EQ(term_sum, expected_terms);
}

}  // namespace
}  // namespace dmb::workloads
