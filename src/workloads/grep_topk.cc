#include "workloads/grep_topk.h"

#include <algorithm>
#include <memory>

#include "runtime/plan.h"
#include "workloads/int64_sum.h"

namespace dmb::workloads {

namespace {

/// Key prefix ordering the top-k stage: ascending sort of
/// (kCountCeiling - count) zero-padded is descending count order.
constexpr int64_t kCountCeiling = int64_t{1} << 60;

std::string InvertedCountKey(int64_t count, std::string_view line) {
  std::string key = std::to_string(kCountCeiling - count);
  key.insert(0, 19 - key.size(), '0');
  key.push_back('\x01');
  key.append(line);
  return key;
}

/// The total-matches record sorts after every inverted-count key
/// ('~' > any digit), so the reduce task sees it once the top list is
/// already emitted.
constexpr std::string_view kTotalKey = "~total";

/// Routes every key to partition 0: the top-k funnel. Keeping the top-k
/// stage at the grep stage's parallelism with this partitioner (instead
/// of a wide gather into a parallelism-1 stage) makes the grep->topk
/// edge narrow and partition-aligned — and therefore pipelineable: the
/// top-k map tasks start re-keying matches while the grep stage is
/// still producing them.
class FunnelPartitioner final : public datampi::Partitioner {
 public:
  int Partition(std::string_view, int) const override { return 0; }
  std::string name() const override { return "funnel"; }
};

/// Adaptive mode: re-keying width of the top-k stage, picked from the
/// grep stage's observed output. Small match sets don't deserve P map
/// tasks; and when one source partition holds nearly every match
/// (single-source skew) the fan-out buys nothing over funnelling the
/// one heavy partition straight down.
constexpr int64_t kAdaptiveRecordsPerTask = 4096;

int AdaptiveFunnelWidth(int64_t total_records,
                        const std::vector<int64_t>& partition_records,
                        int max_width) {
  if (total_records <= 0) return 1;
  int64_t max_part = 0;
  for (int64_t r : partition_records) max_part = std::max(max_part, r);
  if (max_part * 10 >= total_records * 9) return 1;  // >= 90% from one part
  const int64_t width =
      (total_records + kAdaptiveRecordsPerTask - 1) / kAdaptiveRecordsPerTask;
  return static_cast<int>(
      std::clamp<int64_t>(width, 1, static_cast<int64_t>(max_width)));
}

}  // namespace

Result<GrepTopKResult> GrepTopK(engine::Engine& eng,
                                const std::vector<std::string>& lines,
                                const std::string& pattern, int k,
                                const EngineConfig& config,
                                engine::EngineStats* stats) {
  if (k < 1) {
    return Status::InvalidArgument("GrepTopK: k must be >= 1");
  }
  auto compiled = std::make_shared<GrepPattern>(pattern);
  runtime::Plan plan;

  // Stage 1: matched lines with summed occurrence counts.
  runtime::StageSpec grep;
  grep.name = "grep";
  grep.job = BaseSpec(config);
  grep.job.input = engine::LinesAsInput(lines);
  UseInt64Sum(&grep.job);
  grep.job.map_fn = [compiled](std::string_view, std::string_view line,
                               engine::MapContext* ctx) -> Status {
    const int matches = compiled->CountMatches(line);
    if (matches > 0) {
      return ctx->Emit(line, std::to_string(matches));
    }
    return Status::OK();
  };

  // Adaptive mode: pick the top-k stage's re-keying width AFTER the
  // grep stage ran, from its observed output size and skew, instead of
  // committing to the static parallelism up front. The hook needs the
  // top-k stage's id, which doesn't exist yet — filled in below.
  auto topk_stage_id = std::make_shared<int>(-1);
  if (config.adaptive) {
    const int max_width = config.parallelism;
    grep.adapt = [topk_stage_id, max_width](
                     const runtime::StageObservation& obs,
                     runtime::Replanner* replanner) -> Status {
      const int width = AdaptiveFunnelWidth(obs.output_records,
                                            obs.partition_records, max_width);
      engine::JobSpec* topk_job = replanner->MutableJob(*topk_stage_id);
      if (topk_job == nullptr) {
        return Status::Internal("grep-topk: top-k stage not rewritable");
      }
      if (topk_job->parallelism != width) topk_job->parallelism = width;
      return Status::OK();
    };
  }
  const int grep_id = plan.AddStage(std::move(grep));

  // Stage 2: funnel everything into one sorted partition in
  // descending-count order; reduce task 0 emits the first k groups plus
  // the fold of the total record. The edge is narrow (same parallelism,
  // partition-aligned) so the plan can pipeline it: with
  // config.pipeline_narrow_edges the top-k map tasks pull the grep
  // stage's matches batch by batch while it is still reducing.
  runtime::StageSpec topk;
  topk.name = "topk";
  topk.job = BaseSpec(config);
  topk.job.partitioner = std::make_shared<FunnelPartitioner>();
  topk.job.map_fn = [](std::string_view line, std::string_view count,
                       engine::MapContext* ctx) -> Status {
    DMB_RETURN_NOT_OK(ctx->Emit(InvertedCountKey(std::stoll(
                                    std::string(count)), line),
                                count));
    return ctx->Emit(kTotalKey, count);
  };
  topk.job.combiner = [](std::string_view key,
                         const std::vector<std::string>& values) {
    if (key == kTotalKey) return Int64SumCombiner(key, values);
    return values.front();
  };
  auto emitted = std::make_shared<int64_t>(0);
  topk.job.reduce_fn = [k, emitted](std::string_view key,
                                    const std::vector<std::string>& values,
                                    engine::ReduceEmitter* out) -> Status {
    if (key == kTotalKey) return Int64SumReduce(key, values, out);
    if (*emitted < k) {
      ++*emitted;
      out->Emit(key, values.front());
    }
    return Status::OK();
  };
  // Static plan: narrow, partition-aligned edge (pipelineable). With
  // config.adaptive the edge is wide instead — the gather barrier lets
  // the adapt hook shrink (or keep) the top-k parallelism before the
  // stage splits the gathered matches across its re-keying tasks. The
  // funnel partitioner gives one totally ordered reduce partition either
  // way, so results are identical at any width.
  *topk_stage_id = plan.AddStage(
      std::move(topk), {{grep_id, config.adaptive
                                      ? runtime::EdgeKind::kWide
                                      : runtime::EdgeKind::kNarrow}});
  plan.options().pipeline_narrow_edges = config.pipeline_narrow_edges;
  // Grep emits small records at a high rate: larger batches keep the
  // channel's synchronization cost well below the overlap it buys.
  plan.options().pipeline_batch_records = 4096;

  DMB_ASSIGN_OR_RETURN(runtime::PlanOutput out, eng.RunPlan(plan));
  if (stats != nullptr) *stats = out.stats;

  GrepTopKResult result;
  for (const auto& kv : out.Merged()) {
    if (kv.key == kTotalKey) {
      result.total_matches = std::stoll(kv.value);
      continue;
    }
    const size_t sep = kv.key.find('\x01');
    if (sep == std::string::npos) {
      return Status::Corruption("GrepTopK: malformed top-k key");
    }
    result.top.emplace_back(kv.key.substr(sep + 1), std::stoll(kv.value));
  }
  return result;
}

}  // namespace dmb::workloads
