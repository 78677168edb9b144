// Tests for the data generation suite: seed models, text generator,
// DmbLz codec (incl. randomized property fuzzing), sequence files, and
// the K-means / Naive Bayes generators.

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "common/random.h"
#include "datagen/codec.h"
#include "datagen/seed_model.h"
#include "datagen/seqfile.h"
#include "datagen/text_generator.h"
#include "datagen/vectors.h"
#include "io/crc32.h"

namespace dmb::datagen {
namespace {

// ---- Seed models ----

TEST(SeedModelTest, DeterministicWordText) {
  const SeedModel& wiki = SeedModel::Wiki1W();
  EXPECT_EQ(wiki.WordText(42), wiki.WordText(42));
  EXPECT_NE(wiki.WordText(42), wiki.WordText(43));
  for (uint64_t id : {0ull, 1ull, 99999ull}) {
    const std::string w = wiki.WordText(id);
    EXPECT_GE(w.size(), 3u);
    EXPECT_LE(w.size(), 12u);
    for (char c : w) {
      EXPECT_GE(c, 'a');
      EXPECT_LE(c, 'z');
    }
  }
}

TEST(SeedModelTest, ModelsHaveDistinctVocabularies) {
  // amazon1..5 must produce (almost entirely) disjoint words — the basis
  // of Naive Bayes separability.
  std::set<std::string> vocab1, vocab2;
  for (uint64_t id = 0; id < 2000; ++id) {
    vocab1.insert(SeedModel::Amazon(1).WordText(id));
    vocab2.insert(SeedModel::Amazon(2).WordText(id));
  }
  std::vector<std::string> overlap;
  std::set_intersection(vocab1.begin(), vocab1.end(), vocab2.begin(),
                        vocab2.end(), std::back_inserter(overlap));
  EXPECT_LT(overlap.size(), 40u) << "vocabularies should be nearly disjoint";
}

TEST(SeedModelTest, ByNameLookup) {
  ASSERT_TRUE(SeedModel::ByName("lda_wiki1w").ok());
  ASSERT_TRUE(SeedModel::ByName("amazon3").ok());
  EXPECT_EQ((*SeedModel::ByName("amazon3"))->name(), "amazon3");
  EXPECT_FALSE(SeedModel::ByName("enron").ok());
}

// ---- Text generator ----

TEST(TextGeneratorTest, GeneratesRequestedVolume) {
  TextGenerator gen;
  const std::string text = gen.GenerateText(100000);
  EXPECT_GE(text.size(), 100000u);
  EXPECT_LT(text.size(), 100200u);  // overshoot bounded by one line
  EXPECT_EQ(text.back(), '\n');
}

TEST(TextGeneratorTest, DeterministicPerSeedAndPartition) {
  TextGenOptions options;
  options.seed = 7;
  TextGenerator a(options), b(options);
  EXPECT_EQ(a.NextLine(), b.NextLine());
  TextGenerator p1 = a.ForPartition(1);
  TextGenerator p1_again = b.ForPartition(1);
  TextGenerator p2 = a.ForPartition(2);
  EXPECT_EQ(p1.NextLine(), p1_again.NextLine());
  EXPECT_NE(p1.NextLine(), p2.NextLine());
}

TEST(TextGeneratorTest, WordFrequenciesAreZipfSkewed) {
  TextGenerator gen;
  std::map<std::string, int> counts;
  for (int i = 0; i < 4000; ++i) {
    const std::string line = gen.NextLine();
    size_t pos = 0;
    while (pos < line.size()) {
      size_t space = line.find(' ', pos);
      if (space == std::string::npos) space = line.size();
      ++counts[line.substr(pos, space - pos)];
      pos = space + 1;
    }
  }
  std::vector<int> freqs;
  for (const auto& [w, c] : counts) freqs.push_back(c);
  std::sort(freqs.rbegin(), freqs.rend());
  // Zipf head: the most common word is far more frequent than median.
  ASSERT_GT(freqs.size(), 100u);
  EXPECT_GT(freqs[0], 20 * freqs[freqs.size() / 2]);
}

TEST(TextGeneratorTest, LineWordCountsRespectBounds) {
  TextGenOptions options;
  options.min_words_per_line = 3;
  options.max_words_per_line = 5;
  TextGenerator gen(options);
  for (int i = 0; i < 200; ++i) {
    const std::string line = gen.NextLine();
    const int words =
        1 + static_cast<int>(std::count(line.begin(), line.end(), ' '));
    EXPECT_GE(words, 3);
    EXPECT_LE(words, 5);
  }
}

// ---- Codec ----

TEST(CodecTest, RoundTripSimple) {
  const std::string input = "hello hello hello hello hello world";
  const std::string compressed = LzCompress(input);
  auto out = LzDecompress(compressed, input.size());
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(*out, input);
  EXPECT_LT(compressed.size(), input.size());
}

TEST(CodecTest, EmptyAndTinyInputs) {
  for (const std::string& input : {std::string(), std::string("a"),
                                   std::string("abc"), std::string("abcd")}) {
    const std::string compressed = LzCompress(input);
    auto out = LzDecompress(compressed, input.size());
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(*out, input);
  }
}

TEST(CodecTest, IncompressibleDataSurvives) {
  Rng rng(3);
  std::string input;
  for (int i = 0; i < 10000; ++i) {
    input.push_back(static_cast<char>(rng.Next64() & 0xFF));
  }
  const std::string compressed = LzCompress(input);
  auto out = LzDecompress(compressed, input.size());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, input);
}

TEST(CodecTest, HighlyRepetitiveDataCompressesHard) {
  const std::string input(100000, 'x');
  const std::string compressed = LzCompress(input);
  EXPECT_LT(compressed.size(), input.size() / 50);
  auto out = LzDecompress(compressed, input.size());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, input);
}

TEST(CodecTest, ZipfTextReachesPaperLikeRatio) {
  TextGenerator gen;
  const std::string text = gen.GenerateText(512 * 1024);
  const std::string compressed = LzCompress(text);
  const double ratio =
      static_cast<double>(text.size()) / compressed.size();
  // DmbLz has no entropy stage, so it lands below gzip's ~2.2x on this
  // corpus; ~1.5x still exercises the same code path and I/O effect.
  EXPECT_GT(ratio, 1.45) << "Zipfian text should compress substantially";
  auto out = LzDecompress(compressed, text.size());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, text);
}

TEST(CodecTest, WrongSizeIsCorruption) {
  const std::string compressed = LzCompress("some data here");
  EXPECT_FALSE(LzDecompress(compressed, 5).ok());
}

TEST(CodecTest, CorruptStreamsDoNotCrash) {
  const std::string input = "abcabcabcabc repeated payload payload";
  std::string compressed = LzCompress(input);
  Rng rng(11);
  for (int trial = 0; trial < 300; ++trial) {
    std::string corrupt = compressed;
    const size_t pos = rng.Uniform(corrupt.size());
    corrupt[pos] = static_cast<char>(rng.Next64() & 0xFF);
    // Must either round-trip by luck or fail cleanly; never crash.
    auto out = LzDecompress(corrupt, input.size());
    if (out.ok()) {
      EXPECT_EQ(out->size(), input.size());
    }
  }
}

class CodecFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(CodecFuzzTest, RandomStructuredInputsRoundTrip) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  // Structured random data: random alternation of literals and repeats.
  std::string input;
  const int target = 1 + static_cast<int>(rng.Uniform(50000));
  while (static_cast<int>(input.size()) < target) {
    if (rng.Bernoulli(0.5) && !input.empty()) {
      const size_t offset = 1 + rng.Uniform(input.size());
      const size_t len = 1 + rng.Uniform(300);
      const size_t from = input.size() - offset;
      for (size_t i = 0; i < len; ++i) {
        input.push_back(input[from + i]);
      }
    } else {
      const size_t len = 1 + rng.Uniform(40);
      for (size_t i = 0; i < len; ++i) {
        input.push_back(static_cast<char>('a' + rng.Uniform(26)));
      }
    }
  }
  const std::string compressed = LzCompress(input);
  auto out = LzDecompress(compressed, input.size());
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(*out, input);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzzTest, ::testing::Range(0, 16));

TEST(CodecTest, CompressorReuseAcrossBlocksMatchesOneShot) {
  // One LzCompressor compressing a stream of blocks (the block-writer
  // usage) must produce exactly what a fresh compressor produces per
  // block: no match-finder state may leak between blocks.
  Rng rng(99);
  LzCompressor shared;
  std::string reused;
  for (int block = 0; block < 12; ++block) {
    std::string input;
    const size_t target = 1 + rng.Uniform(40000);
    while (input.size() < target) {
      if (rng.Bernoulli(0.4) && !input.empty()) {
        const size_t offset = 1 + rng.Uniform(input.size());
        const size_t len = 1 + rng.Uniform(200);
        const size_t from = input.size() - offset;
        for (size_t i = 0; i < len; ++i) input.push_back(input[from + i]);
      } else {
        const size_t len = 1 + rng.Uniform(30);
        for (size_t i = 0; i < len; ++i) {
          input.push_back(static_cast<char>(rng.Uniform(256)));
        }
      }
    }
    shared.Compress(input, &reused);
    EXPECT_EQ(reused, LzCompress(input)) << "block " << block;
    auto out = LzDecompress(reused, input.size());
    ASSERT_TRUE(out.ok()) << out.status();
    EXPECT_EQ(*out, input) << "block " << block;
  }
}

TEST(CodecTest, StepSkipRegionsRoundTrip) {
  // Long incompressible stretches engage the widening scan step; the
  // compressible tail after them must still round-trip (the skip may
  // cost ratio, never correctness).
  Rng rng(7);
  std::string input;
  for (int seg = 0; seg < 6; ++seg) {
    for (int i = 0; i < 20000; ++i) {
      input.push_back(static_cast<char>(rng.Next64() & 0xFF));
    }
    for (int i = 0; i < 5000; ++i) {
      input.push_back(static_cast<char>('a' + (i % 7)));
    }
  }
  const std::string compressed = LzCompress(input);
  auto out = LzDecompress(compressed, input.size());
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(*out, input);
  // The repetitive segments still found their matches.
  EXPECT_LT(compressed.size(), input.size());
}

// Compresses `input` in 64 KiB blocks through one LzCompressor (the
// block writer's usage) and returns the total compressed size and a
// CRC-32 of the concatenated output.
std::pair<size_t, uint32_t> CompressInBlocks(const std::string& input) {
  constexpr size_t kBlock = 64 << 10;
  LzCompressor compressor;
  std::string out;
  size_t total = 0;
  uint32_t crc = 0;
  for (size_t at = 0; at < input.size(); at += kBlock) {
    const std::string_view block =
        std::string_view(input).substr(at, kBlock);
    compressor.Compress(block, &out);
    EXPECT_LE(out.size(), LzCompressBound(block.size()));
    total += out.size();
    crc = io::Crc32(out, crc);
  }
  return {total, crc};
}

TEST(CodecTest, EncoderOutputIsPinned) {
  // The spill files' bytes on disk are the encoder's output, so any
  // change to the match finder (candidate order, tie-break, skip
  // stride, hash) must show here rather than as a silent shift in
  // io.spill_bytes_on_disk. The constants were recorded from the
  // byte-at-a-time encoder this one replaced.
  TextGenOptions options;
  options.seed = 1;
  TextGenerator gen(options);
  const std::string text = gen.GenerateText(256 << 10);

  std::mt19937_64 rng(42);
  std::string random_bytes(256 << 10, '\0');
  for (char& c : random_bytes) c = static_cast<char>(rng() & 0xFF);

  // Runs of one byte, 1 to 300 long, with a literal burst every so often.
  std::string runs;
  while (runs.size() < (256u << 10)) {
    const uint64_t r = rng();
    if (r % 8 == 0) {
      for (int i = 0; i < 12; ++i) runs.push_back(static_cast<char>(rng()));
    } else {
      runs.append(1 + (r >> 8) % 300, static_cast<char>('a' + (r >> 20) % 4));
    }
  }

  const auto [text_size, text_crc] = CompressInBlocks(text);
  EXPECT_EQ(text.size(), 262218u);
  EXPECT_EQ(text_size, 175269u);
  EXPECT_EQ(text_crc, 0x18C8AF61u);
  const auto [random_size, random_crc] = CompressInBlocks(random_bytes);
  EXPECT_EQ(random_size, 263176u);
  EXPECT_EQ(random_crc, 0x5DA478DBu);
  const auto [runs_size, runs_crc] = CompressInBlocks(runs);
  EXPECT_EQ(runs.size(), 262270u);
  EXPECT_EQ(runs_size, 9483u);
  EXPECT_EQ(runs_crc, 0xF82B8AC2u);
}

TEST(CodecTest, WorstCaseOutputStaysWithinTheBound) {
  // Incompressible input is all literals: one token and one length byte
  // per 255 bytes past the first 15, the largest output there is.
  std::mt19937_64 rng(5);
  for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{14},
                   size_t{15}, size_t{269}, size_t{270}, size_t{4096},
                   size_t{65536}}) {
    std::string input(n, '\0');
    for (char& c : input) c = static_cast<char>(rng() & 0xFF);
    const std::string compressed = LzCompress(input);
    EXPECT_LE(compressed.size(), LzCompressBound(n)) << n;
    auto out = LzDecompress(compressed, n);
    ASSERT_TRUE(out.ok()) << out.status();
    EXPECT_EQ(*out, input);
  }
}

// Decodes a hand-made stream into a fresh string and checks that the
// decoder wrote nothing past `declared`: the terminating NUL std::string
// keeps at data()[size()] is the first byte an overrun would hit.
Status DecodeChecked(const std::string& stream, size_t declared,
                     std::string* out) {
  Status st = LzDecompressInto(stream, declared, out);
  EXPECT_EQ(out->size(), declared);
  EXPECT_EQ(out->data()[declared], '\0');
  return st;
}

TEST(CodecTest, LiteralRunPastDeclaredSizeIsCorruption) {
  // Token: 5 literals, no match.
  const std::string stream = std::string("\x50", 1) + "abcde";
  std::string out;
  const Status st = DecodeChecked(stream, 3, &out);
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st;
  EXPECT_NE(st.ToString().find("literal run past decompressed size"),
            std::string::npos)
      << st;
  // A 40-literal run (length byte 25) against a heap-sized buffer.
  const std::string long_run =
      std::string("\xF0\x19", 2) + std::string(40, 'x');
  EXPECT_TRUE(DecodeChecked(long_run, 40, &out).ok());
  EXPECT_EQ(DecodeChecked(long_run, 39, &out).code(),
            StatusCode::kCorruption);
}

TEST(CodecTest, MatchPastDeclaredSizeIsCorruption) {
  // "abcd", then a 4-byte match at offset 4.
  const std::string stream = std::string("\x40", 1) + "abcd" +
                             std::string("\x04\x00", 2);
  std::string out;
  ASSERT_TRUE(DecodeChecked(stream, 8, &out).ok());
  EXPECT_EQ(out, "abcdabcd");
  const Status st = DecodeChecked(stream, 6, &out);
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st;
  EXPECT_NE(st.ToString().find("match past decompressed size"),
            std::string::npos)
      << st;
  // A match whose length bytes claim 4 + 15 + 255 + 255 + 16 = 545 bytes.
  const std::string long_match = std::string("\x4F", 1) + "abcd" +
                                 std::string("\x01\x00\xFF\xFF\x10", 5);
  EXPECT_TRUE(DecodeChecked(long_match, 549, &out).ok());
  EXPECT_EQ(DecodeChecked(long_match, 100, &out).code(),
            StatusCode::kCorruption);
}

TEST(CodecTest, OverlappingOffsetOneMatchDecodesAsARun) {
  // "a", then a match at offset 1 of 4 + 15 + 81 = 100 bytes (each byte
  // copies the one just written), then the terminal literals "bc".
  const std::string stream = std::string("\x1F", 1) + "a" +
                             std::string("\x01\x00\x51", 3) +
                             std::string("\x20", 1) + "bc";
  std::string out;
  ASSERT_TRUE(DecodeChecked(stream, 103, &out).ok());
  EXPECT_EQ(out, std::string(101, 'a') + "bc");
  // Offset 3 over a 10-byte match: a repeating three-byte pattern.
  const std::string pattern = std::string("\x36", 1) + "xyz" +
                              std::string("\x03\x00", 2);
  ASSERT_TRUE(DecodeChecked(pattern, 13, &out).ok());
  EXPECT_EQ(out, "xyzxyzxyzxyzx");
}

TEST(CodecTest, FrameFormatRoundTrip) {
  const std::string input = "framed payload framed payload";
  const std::string frame = FrameCompress(input);
  auto out = FrameDecompress(frame);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, input);
  EXPECT_GT(FrameRatio(input, frame), 0.5);
}

// ---- Sequence files ----

TEST(SeqFileTest, WriteReadRoundTrip) {
  SeqFileWriter writer;
  for (int i = 0; i < 1000; ++i) {
    writer.Append("key" + std::to_string(i), "value" + std::to_string(i));
  }
  const std::string file = writer.Finish();
  auto records = SeqFileReader::ReadAll(file);
  ASSERT_TRUE(records.ok()) << records.status();
  ASSERT_EQ(records->size(), 1000u);
  EXPECT_EQ((*records)[0].first, "key0");
  EXPECT_EQ((*records)[999].second, "value999");
}

TEST(SeqFileTest, UncompressedMode) {
  SeqFileWriter::Options options;
  options.compress = false;
  SeqFileWriter writer(options);
  writer.Append("k", "v");
  const std::string file = writer.Finish();
  auto records = SeqFileReader::ReadAll(file);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 1u);
}

TEST(SeqFileTest, EmptyFileHasNoRecords) {
  SeqFileWriter writer;
  auto records = SeqFileReader::ReadAll(writer.Finish());
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(records->empty());
}

TEST(SeqFileTest, BadMagicRejected) {
  auto records = SeqFileReader::ReadAll("not a seqfile at all");
  EXPECT_FALSE(records.ok());
}

TEST(SeqFileTest, TruncationDetected) {
  SeqFileWriter writer;
  for (int i = 0; i < 100; ++i) writer.Append("key", "value");
  std::string file = writer.Finish();
  file.resize(file.size() - 3);
  auto records = SeqFileReader::ReadAll(file);
  EXPECT_FALSE(records.ok());
}

TEST(SeqFileTest, ToSeqFileDuplicatesLineIntoKeyAndValue) {
  const std::vector<std::string> lines = {"first line", "second line"};
  const std::string file = ToSeqFile(lines);
  auto records = SeqFileReader::ReadAll(file);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0].first, "first line");
  EXPECT_EQ((*records)[0].second, "first line");
}

TEST(SeqFileTest, CompressedToSeqFileIsSmallerThanRaw) {
  TextGenerator gen;
  const auto lines = gen.GenerateLines(256 * 1024);
  int64_t raw = 0;
  for (const auto& l : lines) raw += static_cast<int64_t>(l.size()) * 2;
  const std::string file = ToSeqFile(lines, /*compress=*/true);
  EXPECT_LT(static_cast<int64_t>(file.size()), raw * 3 / 4);
}

// ---- Sparse vectors / app data ----

TEST(VectorsTest, EncodeDecodeRoundTrip) {
  SparseVector v;
  v.entries = {{3, 1.5f}, {100, 2.0f}, {131072, 0.5f}};
  auto decoded = SparseVector::Decode(v.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->entries, v.entries);
}

TEST(VectorsTest, DotAndNorm) {
  SparseVector a, b;
  a.entries = {{0, 1.0f}, {2, 2.0f}};
  b.entries = {{1, 5.0f}, {2, 3.0f}};
  EXPECT_DOUBLE_EQ(a.Dot(b), 6.0);
  EXPECT_DOUBLE_EQ(a.SquaredNorm(), 5.0);
}

TEST(VectorsTest, KmeansVectorsClusterByModel) {
  KmeansDataOptions options;
  auto vectors = GenerateKmeansVectors(100, options);
  ASSERT_EQ(vectors.size(), 100u);
  // Vector j belongs to model j%5: all indices within that model's band.
  for (size_t j = 0; j < vectors.size(); ++j) {
    const uint32_t band = static_cast<uint32_t>(j % 5) * kModelDimStride;
    for (const auto& [idx, w] : vectors[j].entries) {
      EXPECT_GE(idx, band);
      EXPECT_LT(idx, band + kModelDimStride);
      EXPECT_GE(w, 1.0f);
    }
  }
}

TEST(VectorsTest, BayesDocsBalancedAcrossLabels) {
  auto docs = GenerateBayesDocs(200000);
  ASSERT_GT(docs.size(), 50u);
  std::map<int, int> per_label;
  for (const auto& d : docs) ++per_label[d.label];
  ASSERT_EQ(per_label.size(), 5u);
  for (const auto& [label, count] : per_label) {
    EXPECT_GT(count, static_cast<int>(docs.size()) / 10);
  }
}

TEST(VectorsTest, DimensionCoversAllModels) {
  KmeansDataOptions options;
  const uint32_t dim = KmeansDimension(options);
  EXPECT_GT(dim, 4u * kModelDimStride);
}

}  // namespace
}  // namespace dmb::datagen
