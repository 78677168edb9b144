// Component micro-benchmarks (google-benchmark): the building blocks of
// the DataMPI library and data generators. Not a paper figure; used to
// watch for regressions in the hot paths.
//
// Accepts `--json <path>` (same flag as every other bench harness) in
// addition to the native --benchmark_* flags: per-benchmark seconds per
// iteration are collected through a reporter and written as BenchJson.

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/hash.h"
#include "common/random.h"
#include "core/partitioner.h"
#include "datagen/codec.h"
#include "datagen/text_generator.h"
#include "engine/registry.h"
#include "io/crc32.h"
#include "mpilite/mpilite.h"
#include "shuffle/collector.h"
#include "shuffle/kv_arena.h"
#include "workloads/micro.h"

namespace {

using namespace dmb;  // NOLINT

std::string MakeCorpus(int64_t bytes) {
  datagen::TextGenerator gen;
  return gen.GenerateText(bytes);
}

void BM_Hash64(benchmark::State& state) {
  const std::string data = MakeCorpus(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Hash64(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Hash64)->Arg(64)->Arg(4096)->Arg(1 << 20);

/// Short shuffle-key-shaped strings for the scalar-vs-batch hash pair:
/// the batch path must win here, where per-call overhead dominates.
std::vector<std::string> MakeHashKeys(size_t n) {
  Rng rng(9);
  std::vector<std::string> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    keys.push_back("word" + std::to_string(rng.Uniform(50000)));
  }
  return keys;
}

void BM_HashScalar(benchmark::State& state) {
  const auto keys = MakeHashKeys(static_cast<size_t>(state.range(0)));
  std::vector<uint64_t> out(keys.size());
  for (auto _ : state) {
    for (size_t i = 0; i < keys.size(); ++i) out[i] = Hash64(keys[i]);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HashScalar)->Arg(1024)->Arg(65536);

/// Same keys, same hashes (bit-identical to Hash64), 4-wide interleaved.
void BM_HashBatch(benchmark::State& state) {
  const auto keys = MakeHashKeys(static_cast<size_t>(state.range(0)));
  std::vector<std::string_view> views(keys.begin(), keys.end());
  std::vector<uint64_t> out(keys.size());
  for (auto _ : state) {
    Hash64Batch(views.data(), views.size(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HashBatch)->Arg(1024)->Arg(65536);

void BM_ZipfSample(benchmark::State& state) {
  ZipfSampler zipf(100000, 1.0);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(&rng));
  }
}
BENCHMARK(BM_ZipfSample);

void BM_TextGenerator(benchmark::State& state) {
  datagen::TextGenerator gen;
  int64_t produced = 0;
  for (auto _ : state) {
    const std::string line = gen.NextLine();
    produced += static_cast<int64_t>(line.size());
    benchmark::DoNotOptimize(line.data());
  }
  state.SetBytesProcessed(produced);
}
BENCHMARK(BM_TextGenerator);

void BM_LzCompress(benchmark::State& state) {
  const std::string corpus = MakeCorpus(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(datagen::LzCompress(corpus));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_LzCompress)->Arg(64 << 10)->Arg(1 << 20);

/// Random bytes never match: exercises the match finder's step-skip
/// path and the incompressible-block cost a spill writer pays before
/// falling back to storing raw.
void BM_LzCompressIncompressible(benchmark::State& state) {
  Rng rng(6);
  std::string data(static_cast<size_t>(state.range(0)), '\0');
  for (size_t i = 0; i + 8 <= data.size(); i += 8) {
    const uint64_t v = rng.Next64();
    std::memcpy(&data[i], &v, 8);
  }
  datagen::LzCompressor compressor;
  std::string out;
  for (auto _ : state) {
    compressor.Compress(data, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_LzCompressIncompressible)->Arg(64 << 10)->Arg(1 << 20);

void BM_LzDecompress(benchmark::State& state) {
  const std::string corpus = MakeCorpus(state.range(0));
  const std::string compressed = datagen::LzCompress(corpus);
  for (auto _ : state) {
    auto out = datagen::LzDecompress(compressed, corpus.size());
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_LzDecompress)->Arg(64 << 10)->Arg(1 << 20);

/// The checksum every spill block and run-file footer carries.
void BM_Crc32(benchmark::State& state) {
  const std::string corpus = MakeCorpus(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(io::Crc32(corpus));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64 << 10);

void BM_MakeKeyPrefix(benchmark::State& state) {
  Rng rng(7);
  std::vector<std::string> keys;
  for (int i = 0; i < 1024; ++i) {
    keys.push_back("key-" + std::to_string(rng.Uniform(1 << 20)));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(shuffle::MakeKeyPrefix(keys[i++ & 1023]));
  }
}
BENCHMARK(BM_MakeKeyPrefix);

/// The slice sort in both flavours: MSB radix on the cached prefixes
/// (what KVArena::Sort runs) vs the comparator-only baseline.
void BM_ArenaSort(benchmark::State& state) {
  const bool radix = state.range(1) != 0;
  const auto records = static_cast<size_t>(state.range(0));
  Rng rng(8);
  shuffle::KVArena arena;
  std::vector<shuffle::KVSlice> base;
  base.reserve(records);
  for (size_t i = 0; i < records; ++i) {
    base.push_back(
        arena.Add("key-" + std::to_string(rng.Uniform(1 << 20)), "1"));
  }
  for (auto _ : state) {
    std::vector<shuffle::KVSlice> slices = base;
    if (radix) {
      arena.Sort(&slices);
    } else {
      arena.SortComparator(&slices);
    }
    benchmark::DoNotOptimize(slices.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(records));
  state.SetLabel(radix ? "radix" : "std::sort");
}
BENCHMARK(BM_ArenaSort)
    ->Args({100000, 0})
    ->Args({100000, 1})
    ->Args({1000000, 0})
    ->Args({1000000, 1});

void BM_HashPartitioner(benchmark::State& state) {
  datampi::HashPartitioner partitioner;
  Rng rng(2);
  std::vector<std::string> keys;
  for (int i = 0; i < 1024; ++i) {
    keys.push_back("key-" + std::to_string(rng.Uniform(1 << 20)));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        partitioner.Partition(keys[i++ & 1023], 32));
  }
}
BENCHMARK(BM_HashPartitioner);

void BM_RangePartitioner(benchmark::State& state) {
  Rng rng(3);
  std::vector<std::string> sample;
  for (int i = 0; i < 4096; ++i) {
    sample.push_back(std::to_string(rng.Uniform(1 << 20)));
  }
  auto partitioner =
      datampi::RangePartitioner::FromSample(sample, 32);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        partitioner.Partition(sample[i++ & 4095], 32));
  }
}
BENCHMARK(BM_RangePartitioner);

// The DataMPI A-side store: a one-partition collector, drained through
// its grouped iterator.
void BM_KVBufferAddFinish(benchmark::State& state) {
  const int64_t records = state.range(0);
  Rng rng(4);
  std::vector<std::string> keys;
  for (int i = 0; i < 256; ++i) {
    keys.push_back("k" + std::to_string(rng.Uniform(10000)));
  }
  for (auto _ : state) {
    shuffle::PartitionedCollector store(shuffle::CollectorOptions{});
    for (int64_t i = 0; i < records; ++i) {
      benchmark::DoNotOptimize(
          store.Add(keys[static_cast<size_t>(i) & 255], "1"));
    }
    auto it = store.FinishIterators();
    std::string key;
    std::vector<std::string> values;
    int64_t groups = 0;
    while ((*it)[0]->NextGroup(&key, &values)) ++groups;
    benchmark::DoNotOptimize(groups);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * records);
}
BENCHMARK(BM_KVBufferAddFinish)->Arg(10000)->Arg(100000);

void BM_KVBufferWithSpill(benchmark::State& state) {
  Rng rng(5);
  for (auto _ : state) {
    shuffle::CollectorOptions options;
    options.memory_budget_bytes = 64 << 10;  // force spills
    shuffle::PartitionedCollector store(options);
    for (int64_t i = 0; i < 20000; ++i) {
      benchmark::DoNotOptimize(
          store.Add("key-" + std::to_string(rng.Uniform(977)), "v"));
    }
    auto it = store.FinishIterators();
    std::string key;
    std::vector<std::string> values;
    int64_t total = 0;
    while ((*it)[0]->NextGroup(&key, &values)) {
      total += static_cast<int64_t>(values.size());
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_KVBufferWithSpill);

void BM_MpiAllToAll(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const std::string payload(4096, 'x');
  for (auto _ : state) {
    mpi::World world(ranks);
    Status st = world.Run([&](mpi::Comm& comm) -> Status {
      std::vector<std::string> send(static_cast<size_t>(comm.size()),
                                    payload);
      for (int round = 0; round < 4; ++round) {
        auto recv = comm.AllToAll(send);
        benchmark::DoNotOptimize(recv);
      }
      return Status::OK();
    });
    benchmark::DoNotOptimize(st);
  }
}
BENCHMARK(BM_MpiAllToAll)->Arg(4)->Arg(8);

void BM_WordCountEngines(benchmark::State& state) {
  datagen::TextGenerator gen;
  const auto lines = gen.GenerateLines(256 << 10);
  workloads::EngineConfig config;
  // One generic WordCount, timed per registry entry.
  const auto& info =
      engine::Engines()[static_cast<size_t>(state.range(0))];
  auto eng = info.make();
  for (auto _ : state) {
    Result<std::map<std::string, int64_t>> result =
        workloads::WordCount(*eng, lines, config);
    benchmark::DoNotOptimize(result);
  }
  state.SetLabel(info.name);
}
BENCHMARK(BM_WordCountEngines)
    ->DenseRange(0, static_cast<int>(dmb::engine::Engines().size()) - 1)
    ->Unit(benchmark::kMillisecond);

/// Console output as usual, plus every run mirrored into BenchJson.
class JsonCollectingReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonCollectingReporter(dmb::bench::BenchJson* json)
      : json_(json) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    benchmark::ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.error_occurred || run.iterations == 0) continue;
      json_->Add("micro_components/" + run.benchmark_name(),
                 run.real_accumulated_time /
                     static_cast<double>(run.iterations),
                 "s/iter");
    }
  }

 private:
  dmb::bench::BenchJson* json_;
};

}  // namespace

int main(int argc, char** argv) {
  // Split off --json before benchmark::Initialize, which rejects flags
  // it does not know.
  dmb::bench::BenchJson json = dmb::bench::BenchJson::FromArgs(argc, argv);
  std::vector<char*> bench_args;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      ++i;  // skip the path operand too
      continue;
    }
    if (arg.rfind("--json=", 0) == 0) continue;
    bench_args.push_back(argv[i]);
  }
  int bench_argc = static_cast<int>(bench_args.size());
  benchmark::Initialize(&bench_argc, bench_args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                             bench_args.data())) {
    return 1;
  }
  JsonCollectingReporter reporter(&json);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json.Write()) return 1;
  return 0;
}
