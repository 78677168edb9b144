#include "service/small_jobs.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <utility>

#include "workloads/int64_sum.h"
#include "workloads/text_utils.h"

namespace dmb::service {

namespace {

using engine::JobSpec;
using engine::MapContext;
using engine::ReduceEmitter;
using runtime::KVPair;

JobSpec BaseSpec(int parallelism, int64_t memory_budget_bytes) {
  JobSpec spec;
  spec.parallelism = parallelism;
  spec.memory_budget_bytes = memory_budget_bytes;
  return spec;
}

/// Adds the job's entry stage: directly over `input`, or — with a
/// cache_key — as the narrow consumer of a cached root-input stage, so
/// repeated jobs against the same engine share one partition-aligned
/// split of the dataset instead of re-slicing it per request.
int AddEntryStage(runtime::Plan* plan, std::string name, JobSpec spec,
                  std::shared_ptr<const std::vector<KVPair>> input,
                  const std::string& cache_key) {
  runtime::StageSpec stage;
  stage.name = std::move(name);
  if (cache_key.empty()) {
    spec.input = std::move(input);
    stage.job = std::move(spec);
    return plan->AddStage(std::move(stage));
  }
  const int root = plan->AddCachedInput(
      cache_key,
      [input = std::move(input)]()
          -> Result<std::shared_ptr<const std::vector<KVPair>>> {
        return input;
      },
      spec.parallelism);
  stage.job = std::move(spec);
  return plan->AddStage(std::move(stage),
                        {{root, runtime::EdgeKind::kNarrow}});
}

}  // namespace

std::shared_ptr<const std::vector<KVPair>> MakeLineRecords(
    const std::vector<std::string>& lines) {
  auto records = std::make_shared<std::vector<KVPair>>();
  records->reserve(lines.size());
  for (const std::string& line : lines) records->push_back({line, ""});
  return records;
}

runtime::Plan SmallGrepPlan(
    std::shared_ptr<const std::vector<KVPair>> input,
    const std::string& pattern, int parallelism,
    int64_t memory_budget_bytes, const std::string& cache_key) {
  auto matcher = std::make_shared<workloads::GrepPattern>(pattern);
  JobSpec spec = BaseSpec(parallelism, memory_budget_bytes);
  spec.map_fn = [matcher](std::string_view key, std::string_view,
                          MapContext* ctx) -> Status {
    const int matches = matcher->CountMatches(key);
    if (matches == 0) return Status::OK();
    return ctx->Emit(key, std::to_string(matches));
  };
  spec.reduce_fn = workloads::Int64SumReduce;
  runtime::Plan plan;
  AddEntryStage(&plan, "grep", std::move(spec), std::move(input), cache_key);
  return plan;
}

namespace {

JobSpec WordCountSpec(int parallelism, int64_t memory_budget_bytes) {
  JobSpec spec = BaseSpec(parallelism, memory_budget_bytes);
  spec.map_fn = [](std::string_view key, std::string_view,
                   MapContext* ctx) -> Status {
    Status st = Status::OK();
    workloads::ForEachToken(key, [&](std::string_view word) {
      if (st.ok()) st = ctx->Emit(word, "1");
    });
    return st;
  };
  workloads::UseInt64Sum(&spec);
  return spec;
}

}  // namespace

runtime::Plan SmallWordCountPlan(
    std::shared_ptr<const std::vector<KVPair>> input, int parallelism,
    int64_t memory_budget_bytes, const std::string& cache_key) {
  runtime::Plan plan;
  AddEntryStage(&plan, "wordcount",
                WordCountSpec(parallelism, memory_budget_bytes),
                std::move(input), cache_key);
  return plan;
}

runtime::Plan SmallTopKPlan(
    std::shared_ptr<const std::vector<KVPair>> input, int k, int parallelism,
    int64_t memory_budget_bytes, const std::string& cache_key) {
  runtime::Plan plan;
  const int counts = AddEntryStage(
      &plan, "wordcount", WordCountSpec(parallelism, memory_budget_bytes),
      std::move(input), cache_key);

  // Wide single-partition selection: every (word, count) record funnels
  // to one reduce group, which keeps the top k.
  JobSpec select;
  select.parallelism = 1;
  select.memory_budget_bytes = memory_budget_bytes;
  select.map_fn = [](std::string_view word, std::string_view count,
                     MapContext* ctx) -> Status {
    return ctx->Emit("k", std::string(word) + "\t" + std::string(count));
  };
  select.reduce_fn = [k](std::string_view,
                         const std::vector<std::string>& values,
                         ReduceEmitter* out) -> Status {
    std::vector<std::pair<int64_t, std::string>> ranked;
    ranked.reserve(values.size());
    for (const std::string& v : values) {
      const size_t tab = v.find('\t');
      if (tab == std::string::npos) {
        return Status::Internal("top-k stage: malformed record '" + v + "'");
      }
      ranked.emplace_back(std::atoll(v.c_str() + tab + 1), v.substr(0, tab));
    }
    const size_t keep = std::min<size_t>(static_cast<size_t>(k),
                                         ranked.size());
    std::partial_sort(ranked.begin(), ranked.begin() + keep, ranked.end(),
                      [](const auto& a, const auto& b) {
                        if (a.first != b.first) return a.first > b.first;
                        return a.second < b.second;
                      });
    for (size_t i = 0; i < keep; ++i) {
      out->Emit(ranked[i].second, std::to_string(ranked[i].first));
    }
    return Status::OK();
  };
  runtime::StageSpec topk;
  topk.name = "topk";
  topk.job = std::move(select);
  plan.AddStage(std::move(topk), {{counts, runtime::EdgeKind::kWide}});
  return plan;
}

}  // namespace dmb::service
