#include "engine/datampi_engine.h"

#include <cstdint>
#include <utility>

#include "core/job.h"

namespace dmb::engine {

namespace {

/// Forwards engine::MapContext emissions into a DataMPI OContext.
class OMapContext final : public MapContext {
 public:
  explicit OMapContext(datampi::OContext* ctx) : ctx_(ctx) {}

  Status Emit(std::string_view key, std::string_view value) override {
    return ctx_->Emit(key, value);
  }
  int task_id() const override { return ctx_->task_id(); }

 private:
  datampi::OContext* ctx_;
};

class AReduceEmitter final : public ReduceEmitter {
 public:
  explicit AReduceEmitter(datampi::AEmitter* out) : out_(out) {}

  void Emit(std::string_view key, std::string_view value) override {
    out_->Emit(key, value);
  }

 private:
  datampi::AEmitter* out_;
};

std::pair<size_t, size_t> SplitRange(size_t n, int part, int parts) {
  return {n * static_cast<size_t>(part) / static_cast<size_t>(parts),
          n * static_cast<size_t>(part + 1) / static_cast<size_t>(parts)};
}

}  // namespace

Result<JobOutput> DataMPIEngine::RunStage(const JobSpec& spec) {
  DMB_RETURN_NOT_OK(ValidateSpec(spec));
  if (spec.cancel && spec.cancel->cancelled()) return spec.cancel->status();
  // Cooperative cancellation: checked per map record / reduce group.
  const MapFn user_map = CancellableMap(spec.map_fn, spec.cancel);
  const ReduceFn user_reduce = CancellableReduce(spec.reduce_fn, spec.cancel);
  // Held for the stage's duration: a concurrent stage with different
  // knobs may swap the engine's cache, and the shared_ptr keeps this
  // stage's pool alive until its tasks finish.
  std::shared_ptr<ParallelContext> parallel = ShuffleParallel(spec);
  datampi::JobConfig config;
  config.parallel = parallel.get();
  config.num_o_ranks = spec.parallelism;
  config.num_a_ranks = spec.parallelism;
  config.partitioner = spec.partitioner;
  config.combiner = spec.combiner;
  config.fold = spec.fold;
  config.sort_by_key = spec.sort_by_key;
  config.spill_io = SpillIoOptions(spec);
  config.output_stream = spec.stream_output;
  config.stream_output_only = spec.stream_output_only;
  if (spec.memory_budget_bytes > 0) {
    config.a_memory_budget_bytes = spec.memory_budget_bytes;
  }
  if (spec.spill == SpillPolicy::kAlwaysSpill) {
    // Spilling is pressure-driven; a one-byte budget forces it per batch.
    config.a_memory_budget_bytes = 1;
  } else if (spec.spill == SpillPolicy::kMemoryOnly &&
             spec.memory_budget_bytes == 0) {
    config.a_memory_budget_bytes = INT64_MAX;
  }

  datampi::DataMPIJob job(config);
  DMB_ASSIGN_OR_RETURN(
      datampi::JobResult result,
      job.Run(
          [&](datampi::OContext* ctx) -> Status {
            OMapContext map_ctx(ctx);
            if (spec.stream_input) {
              // Pipelined narrow edge: O task i pulls partition i's
              // batches while the upstream stage is still producing
              // them, emitting into this job's own O->A pipeline as it
              // goes — cross-stage overlap on top of DataMPI's
              // intra-stage overlap.
              return shuffle::DrainChannel(
                  spec.stream_input.get(), ctx->task_id(),
                  [&](std::string_view key, std::string_view value) {
                    return user_map(key, value, &map_ctx);
                  });
            }
            // Pre-split inputs (narrow plan edges) pin split i to O task
            // i; a flat input is sliced evenly across the O tasks.
            const std::vector<KVPair>& input =
                spec.input_splits
                    ? (*spec.input_splits)[static_cast<size_t>(
                          ctx->task_id())]
                    : *spec.input;
            auto [begin, end] =
                spec.input_splits
                    ? std::pair<size_t, size_t>{0, input.size()}
                    : SplitRange(input.size(), ctx->task_id(),
                                 spec.parallelism);
            for (size_t i = begin; i < end; ++i) {
              DMB_RETURN_NOT_OK(
                  user_map(input[i].key, input[i].value, &map_ctx));
            }
            return Status::OK();
          },
          [&](std::string_view key, const std::vector<std::string>& values,
              datampi::AEmitter* out) -> Status {
            AReduceEmitter emitter(out);
            return user_reduce(key, values, &emitter);
          }));

  JobOutput output;
  output.partitions = std::move(result.a_outputs);
  output.stats.map_output_records = result.stats.o_records_emitted;
  output.stats.shuffle_bytes = result.stats.shuffle_bytes;
  output.stats.spill_count = result.stats.a_spill_count;
  output.stats.spill_bytes_raw = result.stats.a_spill_bytes_raw;
  output.stats.spill_bytes_on_disk = result.stats.a_spill_bytes_on_disk;
  output.stats.blocks_read = result.stats.a_blocks_read;
  output.stats.reduce_input_records = result.stats.a_records_received;
  output.stats.output_records = result.stats.output_records;
  output.stats.parallel_shuffle_tasks = result.stats.parallel_shuffle_tasks;
  return output;
}

}  // namespace dmb::engine
