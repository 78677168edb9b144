#include "engine/engine.h"

#include <utility>

#include "common/parallel.h"
#include "runtime/scheduler.h"

namespace dmb::engine {

std::vector<KVPair> MergedPartitions(
    const std::vector<std::vector<KVPair>>& partitions) {
  std::vector<KVPair> all;
  size_t total = 0;
  for (const auto& part : partitions) total += part.size();
  all.reserve(total);
  for (const auto& part : partitions) {
    all.insert(all.end(), part.begin(), part.end());
  }
  return all;
}

std::vector<KVPair> JobOutput::Merged() const {
  return MergedPartitions(partitions);
}

Result<JobOutput> Engine::Run(const JobSpec& spec) {
  runtime::Plan plan;
  runtime::StageSpec stage;
  stage.name = "job";
  stage.job = spec;
  plan.AddStage(std::move(stage));
  DMB_ASSIGN_OR_RETURN(runtime::PlanOutput out, RunPlan(plan));
  JobOutput job;
  job.partitions = std::move(out.partitions);
  job.stats = std::move(out.stats);
  return job;
}

Result<runtime::PlanOutput> Engine::RunPlan(const runtime::Plan& plan) {
  return RunPlan(plan, runtime::SchedulerOptions{});
}

Result<runtime::PlanOutput> Engine::RunPlan(
    const runtime::Plan& plan, const runtime::SchedulerOptions& options) {
  runtime::SchedulerOptions opts = options;
  if (opts.cache == nullptr && PlanUsesCache(plan)) {
    // Attach the engine-owned cache so cache-keyed stages persist (and
    // hit) across RunPlan calls. An explicitly provided cache wins.
    opts.cache = cache();
  }
  return runtime::StageScheduler(this, plan, opts).Execute();
}

runtime::StageCache* Engine::cache() {
  MutexLock lock(stage_cache_mu_);
  if (stage_cache_ == nullptr) {
    stage_cache_ = std::make_unique<runtime::StageCache>(stage_cache_options_);
  }
  return stage_cache_.get();
}

void Engine::ConfigureCache(runtime::StageCacheOptions options) {
  MutexLock lock(stage_cache_mu_);
  stage_cache_options_ = options;
  stage_cache_ = std::make_unique<runtime::StageCache>(stage_cache_options_);
}

bool PlanUsesCache(const runtime::Plan& plan) {
  for (const auto& stage : plan.stages()) {
    if (!stage.spec.cache_output.empty()) return true;
  }
  return false;
}

std::shared_ptr<ParallelContext> Engine::ShuffleParallel(const JobSpec& spec) {
  if (spec.shuffle_threads == 1) return nullptr;
  MutexLock lock(parallel_mu_);
  if (parallel_cache_ == nullptr || parallel_threads_ != spec.shuffle_threads ||
      parallel_sort_threshold_ != spec.parallel_sort_threshold ||
      parallel_inflight_ != spec.max_inflight_spill_blocks) {
    ParallelContext::Options options;
    options.threads = spec.shuffle_threads;
    options.max_inflight_blocks = spec.max_inflight_spill_blocks;
    options.parallel_sort_threshold = spec.parallel_sort_threshold;
    parallel_cache_ = std::make_shared<ParallelContext>(options);
    parallel_threads_ = spec.shuffle_threads;
    parallel_sort_threshold_ = spec.parallel_sort_threshold;
    parallel_inflight_ = spec.max_inflight_spill_blocks;
  }
  return parallel_cache_;
}

Status ValidateSpec(const JobSpec& spec) {
  const int sources = (spec.input ? 1 : 0) + (spec.input_splits ? 1 : 0) +
                      (spec.stream_input ? 1 : 0);
  if (sources == 0) {
    return Status::InvalidArgument("JobSpec.input is not set");
  }
  if (sources > 1) {
    return Status::InvalidArgument(
        "JobSpec: exactly one of input / input_splits / stream_input may "
        "be set");
  }
  if (spec.stream_input &&
      spec.stream_input->partitions() != spec.parallelism) {
    return Status::InvalidArgument(
        "JobSpec.stream_input must hold exactly one channel partition per "
        "task");
  }
  if (spec.stream_output &&
      spec.stream_output->partitions() != spec.parallelism) {
    return Status::InvalidArgument(
        "JobSpec.stream_output must hold exactly one channel partition per "
        "task");
  }
  if (spec.stream_output_only && !spec.stream_output) {
    return Status::InvalidArgument(
        "JobSpec.stream_output_only requires stream_output");
  }
  if (!spec.map_fn) {
    return Status::InvalidArgument("JobSpec.map_fn is not set");
  }
  if (!spec.reduce_fn) {
    return Status::InvalidArgument("JobSpec.reduce_fn is not set");
  }
  if (spec.fold && !spec.combiner) {
    return Status::InvalidArgument(
        "JobSpec.fold requires the combiner it stands in for");
  }
  if (spec.parallelism < 1) {
    return Status::InvalidArgument("JobSpec.parallelism must be >= 1");
  }
  if (spec.input_splits &&
      static_cast<int>(spec.input_splits->size()) != spec.parallelism) {
    return Status::InvalidArgument(
        "JobSpec.input_splits must hold exactly one split per task");
  }
  if (spec.memory_budget_bytes < 0) {
    return Status::InvalidArgument("JobSpec.memory_budget_bytes < 0");
  }
  if (spec.spill_block_bytes < 0) {
    return Status::InvalidArgument("JobSpec.spill_block_bytes < 0");
  }
  if (spec.shuffle_threads < 0) {
    return Status::InvalidArgument("JobSpec.shuffle_threads < 0");
  }
  if (spec.parallel_sort_threshold < 0) {
    return Status::InvalidArgument("JobSpec.parallel_sort_threshold < 0");
  }
  if (spec.max_inflight_spill_blocks < 0) {
    return Status::InvalidArgument("JobSpec.max_inflight_spill_blocks < 0");
  }
  return Status::OK();
}

io::BlockFileOptions SpillIoOptions(const JobSpec& spec) {
  io::BlockFileOptions options;
  if (spec.spill_block_bytes > 0) options.block_bytes = spec.spill_block_bytes;
  options.codec = spec.spill_codec;
  return options;
}

MapFn CancellableMap(MapFn fn, std::shared_ptr<CancelToken> cancel) {
  if (cancel == nullptr) return fn;
  return [fn = std::move(fn), cancel = std::move(cancel)](
             std::string_view key, std::string_view value,
             MapContext* ctx) -> Status {
    if (cancel->cancelled()) return cancel->status();
    return fn(key, value, ctx);
  };
}

ReduceFn CancellableReduce(ReduceFn fn, std::shared_ptr<CancelToken> cancel) {
  if (cancel == nullptr) return fn;
  return [fn = std::move(fn), cancel = std::move(cancel)](
             std::string_view key, const std::vector<std::string>& values,
             ReduceEmitter* out) -> Status {
    if (cancel->cancelled()) return cancel->status();
    return fn(key, values, out);
  };
}

ReduceFn CombinerAsReduce(CombinerFn combiner) {
  return [combiner = std::move(combiner)](
             std::string_view key, const std::vector<std::string>& values,
             ReduceEmitter* out) -> Status {
    out->Emit(key, combiner(key, values));
    return Status::OK();
  };
}

std::shared_ptr<const std::vector<KVPair>> LinesAsInput(
    const std::vector<std::string>& lines) {
  auto input = std::make_shared<std::vector<KVPair>>();
  input->reserve(lines.size());
  for (size_t i = 0; i < lines.size(); ++i) {
    input->push_back(KVPair{std::to_string(i), lines[i]});
  }
  return input;
}

std::shared_ptr<const std::vector<KVPair>> PairsAsInput(
    std::vector<KVPair> records) {
  return std::make_shared<const std::vector<KVPair>>(std::move(records));
}

std::shared_ptr<const std::vector<KVPair>> IndexInput(size_t n) {
  auto input = std::make_shared<std::vector<KVPair>>();
  input->reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::string idx = std::to_string(i);
    input->push_back(KVPair{idx, idx});
  }
  return input;
}

}  // namespace dmb::engine
