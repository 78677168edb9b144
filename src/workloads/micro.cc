#include "workloads/micro.h"

#include <algorithm>

#include "common/logging.h"
#include "datagen/seqfile.h"
#include "workloads/int64_sum.h"

namespace dmb::workloads {

namespace {

using datampi::KVPair;
using engine::JobOutput;
using engine::JobSpec;

std::map<std::string, int64_t> CountsFromPairs(
    const std::vector<KVPair>& pairs) {
  std::map<std::string, int64_t> out;
  for (const auto& kv : pairs) out[kv.key] += std::stoll(kv.value);
  return out;
}

/// Range partitioner built from a deterministic sample of the input, as
/// Hadoop's TotalOrderPartitioner / DataMPI sort jobs do.
std::shared_ptr<const datampi::Partitioner> BuildRangePartitioner(
    const std::vector<std::string>& lines, int partitions) {
  std::vector<std::string> sample;
  const size_t step = std::max<size_t>(1, lines.size() / 1024);
  for (size_t i = 0; i < lines.size(); i += step) sample.push_back(lines[i]);
  return std::make_shared<datampi::RangePartitioner>(
      datampi::RangePartitioner::FromSample(std::move(sample), partitions));
}

Result<JobOutput> RunSpec(engine::Engine& eng, const JobSpec& spec,
                          engine::EngineStats* stats) {
  DMB_ASSIGN_OR_RETURN(JobOutput out, eng.Run(spec));
  if (stats != nullptr) *stats = out.stats;
  return out;
}

/// Identity reduce: one output record per input record of the group.
Status EmitAllReduce(std::string_view key,
                     const std::vector<std::string>& values,
                     engine::ReduceEmitter* out) {
  for (const auto& v : values) out->Emit(key, v);
  return Status::OK();
}

}  // namespace

engine::JobSpec BaseSpec(const EngineConfig& config) {
  engine::JobSpec spec;
  spec.parallelism = config.parallelism;
  spec.memory_budget_bytes = config.memory_budget_bytes;
  spec.rdd_shuffle_spill = config.rdd_shuffle_spill;
  spec.shuffle_threads = config.shuffle_threads;
  return spec;
}

// ---- WordCount ------------------------------------------------------

Result<std::map<std::string, int64_t>> WordCount(
    engine::Engine& eng, const std::vector<std::string>& lines,
    const EngineConfig& config, engine::EngineStats* stats) {
  JobSpec spec = BaseSpec(config);
  spec.input = engine::LinesAsInput(lines);
  UseInt64Sum(&spec);
  spec.map_fn = [](std::string_view, std::string_view line,
                   engine::MapContext* ctx) -> Status {
    Status st;
    ForEachToken(line, [&](std::string_view tok) {
      if (st.ok()) st = ctx->Emit(tok, "1");
    });
    return st;
  };
  DMB_ASSIGN_OR_RETURN(JobOutput out, RunSpec(eng, spec, stats));
  return CountsFromPairs(out.Merged());
}

// ---- Grep -----------------------------------------------------------

Result<GrepResult> Grep(engine::Engine& eng,
                        const std::vector<std::string>& lines,
                        const std::string& pattern,
                        const EngineConfig& config,
                        engine::EngineStats* stats) {
  auto compiled = std::make_shared<GrepPattern>(pattern);
  JobSpec spec = BaseSpec(config);
  spec.input = engine::LinesAsInput(lines);
  spec.map_fn = [compiled](std::string_view, std::string_view line,
                           engine::MapContext* ctx) -> Status {
    const int matches = compiled->CountMatches(line);
    if (matches > 0) {
      return ctx->Emit(line, std::to_string(matches));
    }
    return Status::OK();
  };
  spec.reduce_fn = EmitAllReduce;
  DMB_ASSIGN_OR_RETURN(JobOutput out, RunSpec(eng, spec, stats));
  GrepResult result;
  for (const auto& kv : out.Merged()) {
    result.matched_lines.push_back(kv.key);
    result.total_matches += std::stoll(kv.value);
  }
  std::sort(result.matched_lines.begin(), result.matched_lines.end());
  return result;
}

// ---- Text Sort ------------------------------------------------------

Result<std::vector<std::string>> TextSort(
    engine::Engine& eng, const std::vector<std::string>& lines,
    const EngineConfig& config, engine::EngineStats* stats) {
  JobSpec spec = BaseSpec(config);
  spec.input = engine::LinesAsInput(lines);
  spec.partitioner = BuildRangePartitioner(lines, config.parallelism);
  spec.map_fn = [](std::string_view, std::string_view line,
                   engine::MapContext* ctx) -> Status {
    return ctx->Emit(line, "");
  };
  spec.reduce_fn = EmitAllReduce;
  DMB_ASSIGN_OR_RETURN(JobOutput out, RunSpec(eng, spec, stats));
  std::vector<std::string> sorted;
  for (auto& kv : out.Merged()) sorted.push_back(std::move(kv.key));
  return sorted;
}

// ---- Normal Sort ----------------------------------------------------

Result<std::string> NormalSort(engine::Engine& eng,
                               const std::string& seqfile,
                               const EngineConfig& config,
                               engine::EngineStats* stats) {
  DMB_ASSIGN_OR_RETURN(auto records, datagen::SeqFileReader::ReadAll(seqfile));
  std::vector<std::string> keys;
  keys.reserve(records.size());
  for (const auto& [k, v] : records) keys.push_back(k);
  std::vector<KVPair> input;
  input.reserve(records.size());
  for (auto& [k, v] : records) {
    input.push_back(KVPair{std::move(k), std::move(v)});
  }
  JobSpec spec = BaseSpec(config);
  spec.input = engine::PairsAsInput(std::move(input));
  spec.partitioner = BuildRangePartitioner(keys, config.parallelism);
  spec.map_fn = [](std::string_view key, std::string_view value,
                   engine::MapContext* ctx) -> Status {
    return ctx->Emit(key, value);
  };
  spec.reduce_fn = EmitAllReduce;
  DMB_ASSIGN_OR_RETURN(JobOutput out, RunSpec(eng, spec, stats));
  datagen::SeqFileWriter writer;
  for (const auto& kv : out.Merged()) writer.Append(kv.key, kv.value);
  return writer.Finish();
}

}  // namespace dmb::workloads
