// Job-level data types of the unified engine layer: the user-facing
// map/reduce function signatures, the engine-agnostic JobSpec, and the
// unified EngineStats/JobOutput every adapter fills.
//
// Split out of engine.h so the runtime layer (src/runtime: multi-stage
// Plans and the StageScheduler) can describe JobSpec-shaped stages
// without depending on the Engine interface itself — engine.h sits on
// top of both (it declares Engine::RunPlan over runtime::Plan).

#ifndef DATAMPI_BENCH_ENGINE_TYPES_H_
#define DATAMPI_BENCH_ENGINE_TYPES_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "core/kv.h"
#include "core/partitioner.h"
#include "io/block_file.h"
#include "shuffle/batch_channel.h"
#include "shuffle/fold.h"

namespace dmb::engine {

using datampi::KVPair;

/// \brief Map-side emitter handed to the user map function. Emit can fail
/// (DataMPI pipelines batches to the A side while the map task runs).
class MapContext {
 public:
  virtual ~MapContext() = default;
  virtual Status Emit(std::string_view key, std::string_view value) = 0;
  /// \brief The logical map/O task executing this record's split.
  virtual int task_id() const = 0;
};

/// \brief Reduce-side output collector.
class ReduceEmitter {
 public:
  virtual ~ReduceEmitter() = default;
  virtual void Emit(std::string_view key, std::string_view value) = 0;
};

/// \brief Map function: one call per input record.
using MapFn = std::function<Status(std::string_view key,
                                   std::string_view value, MapContext* ctx)>;
/// \brief Reduce function: one call per (key, values) group.
using ReduceFn = std::function<Status(std::string_view key,
                                      const std::vector<std::string>& values,
                                      ReduceEmitter* out)>;
/// \brief Optional combiner: (key, values) -> combined value.
using CombinerFn = std::function<std::string(
    std::string_view key, const std::vector<std::string>& values)>;

/// \brief Where intermediate (shuffled) data may live.
enum class SpillPolicy {
  /// Engine default: MapReduce spills map runs to disk (Hadoop), DataMPI
  /// spills only on A-side memory pressure, rddlite never spills (OOM)
  /// unless rdd_shuffle_spill is set.
  kEngineDefault,
  /// Keep intermediates memory-resident where the engine supports it.
  kMemoryOnly,
  /// Force the disk round trip where the engine supports it (Hadoop
  /// style); rddlite has no forced-spill path and ignores this.
  kAlwaysSpill,
};

/// \brief One engine-agnostic job description.
struct JobSpec {
  /// Input records; every record is passed to `map_fn` exactly once.
  /// Shared so one input can run on several engines without copying.
  std::shared_ptr<const std::vector<KVPair>> input;
  /// Pre-split input: map task i consumes (*input_splits)[i] instead of
  /// an even slice of `input`. Exactly one of input / input_splits must
  /// be set, and input_splits->size() must equal `parallelism`. This is
  /// how the runtime's narrow plan edges hand a parent stage's output
  /// partitions to aligned map tasks without a gather + re-split.
  std::shared_ptr<const std::vector<std::vector<KVPair>>> input_splits;
  /// Streaming input (pipelined narrow plan edges): map task i pulls
  /// record batches from channel partition i while the producing stage
  /// is still running, until the producer closes the partition. Exactly
  /// one of input / input_splits / stream_input must be set, and
  /// stream_input->partitions() must equal `parallelism`.
  std::shared_ptr<shuffle::BatchChannelGroup> stream_input;
  /// Streaming output sink: reduce task p pushes its emitted records
  /// into channel partition p in `stream_output->batch_records()`-sized
  /// batches as it reduces, and closes the partition when done — the
  /// producer half of a pipelined narrow edge. Output partitions are
  /// still materialized in JobOutput unless stream_output_only is set.
  std::shared_ptr<shuffle::BatchChannelGroup> stream_output;
  /// With stream_output set: do not materialize output partitions at
  /// all (the stream is the only reader). Saves the full intermediate
  /// copy on exclusively-pipelined edges; JobOutput.partitions come
  /// back empty.
  bool stream_output_only = false;
  MapFn map_fn;
  ReduceFn reduce_fn;
  /// Map tasks == reduce tasks == output partitions == worker slots.
  int parallelism = 4;
  /// Partitioner for the shuffle; null = stable hash partitioning.
  std::shared_ptr<const datampi::Partitioner> partitioner;
  /// Optional combiner applied to intermediate data before the shuffle.
  CombinerFn combiner;
  /// Optional associative fold standing in for `combiner` where an
  /// engine aggregates in a hash table instead of sorting first: rddlite
  /// on the map side (Spark's combineByKey), DataMPI in its O-side send
  /// buffers and A-side store. It must agree with the combiner
  /// (shuffle/fold.h). MapReduce combines through `combiner` in its
  /// sorted spills, as Hadoop does. Requires `combiner`.
  shuffle::Fold fold;
  /// Group keys in sorted order at the reduce side (all engines honour
  /// sorted grouping; false permits arrival-order grouping where the
  /// engine supports it).
  bool sort_by_key = true;
  SpillPolicy spill = SpillPolicy::kEngineDefault;
  /// Intermediate-data memory budget in bytes; 0 = engine default. All
  /// three engines route intermediates through the shared shuffle
  /// collector, so the budget means one thing: resident intermediate
  /// bytes before the engine's budget action. DataMPI spills its A-side
  /// buffer past it, MapReduce spills map-side sorted runs (io.sort.mb),
  /// rddlite fails the job with OutOfMemory (Spark 0.8 semantics) unless
  /// rdd_shuffle_spill is set.
  int64_t memory_budget_bytes = 0;
  /// rddlite shuffle-store mode. false = Spark 0.8 semantics: the wide
  /// stage is memory-resident and a job over budget fails with
  /// OutOfMemory (the paper's Normal Sort behaviour). true = "Spark
  /// 0.9+" external shuffle: the wide stage routes through the spilling
  /// shuffle collector and writes checksummed run files past the budget
  /// instead of failing. DataMPI and MapReduce always have a spill path
  /// and ignore this.
  bool rdd_shuffle_spill = false;
  /// Spill run-file block size in bytes; 0 = the io-layer default
  /// (64 KiB). Every engine writes spills in the same checksummed block
  /// format, so this also bounds reduce-side resident memory per run.
  int64_t spill_block_bytes = 0;
  /// Block codec for spill run files (io::Codec::kNone disables
  /// compression; default LZ).
  io::Codec spill_codec = io::Codec::kLz;
  /// Intra-task shuffle parallelism: worker threads a single task's
  /// shuffle work may fan out to (parallel radix sort, concurrent
  /// partition spills, overlapped spill-block compression, merge-time
  /// block prefetch). 1 (default) = the classic serial path; 0 = one
  /// per hardware thread; >= 2 = exactly that many workers, shared
  /// engine-wide so concurrent tasks cannot oversubscribe. Run output,
  /// run-file bytes and merge order are identical at every setting.
  int shuffle_threads = 1;
  /// Records above which one sort fans its radix buckets out to the
  /// shuffle pool; 0 = the library default (64K records). Ignored when
  /// shuffle_threads == 1.
  int64_t parallel_sort_threshold = 0;
  /// Cap on spill blocks in flight (sealed but not yet written) per
  /// overlapped spill writer; 0 = 2 x shuffle threads. Bounds the extra
  /// resident memory of overlapped spilling.
  int max_inflight_spill_blocks = 0;
  /// Cooperative cancellation: when the token fires, every engine stops
  /// at its next map record / reduce group and the job fails with the
  /// token's status (Status::Cancelled for client cancels and deadline
  /// expiry) — the first-class kill switch behind the JobServer's
  /// per-job cancellation. Null = never cancelled. On a plan, the
  /// scheduler threads SchedulerOptions::cancel into every stage's spec,
  /// so a single token covers the whole job.
  std::shared_ptr<CancelToken> cancel;
};

/// \brief One stage's slice of a plan run (EngineStats::stages entry).
struct StageStats {
  std::string name;                 // stage name from the plan
  int64_t shuffle_bytes = 0;        // bytes crossing the stage's shuffle
  int64_t spill_count = 0;          // stage's intermediate disk spills
  int64_t spill_bytes_on_disk = 0;  // stage's spill run-file bytes
  int64_t output_records = 0;       // stage's emitted records
  int64_t parallel_shuffle_tasks = 0;  // intra-task pool tasks spawned
  double wall_seconds = 0.0;        // stage wall time (bind + execute)
  /// Pass-through stage: its binder declined to run (e.g. a converged
  /// iteration) and the state parent's output was forwarded unchanged.
  bool skipped = false;
  /// The stage's input arrived over a pipelined narrow edge (batch
  /// channel) instead of a whole-partition barrier handoff.
  bool pipelined = false;
  /// StageCache interplay of a cache-keyed stage: served straight from
  /// the cache (nothing executed) / looked up but absent / registered
  /// after running / the hit streamed back from spill files.
  bool cache_hit = false;
  bool cache_miss = false;
  bool cache_stored = false;
  bool cache_restored = false;
  /// Other entries this stage's store pushed out to spill.
  int64_t cache_evictions = 0;
  /// An upstream adapt hook rewrote this stage's JobSpec before it ran.
  bool adapted = false;
};

/// \brief How a stage executed, for per-stage tables ("cached" wins —
/// such a stage never ran; then "skipped" over "pipelined": a skipped
/// stage never consumed its input at all). One definition so the CLI,
/// examples and benches cannot drift.
inline const char* StageModeLabel(const StageStats& stage) {
  if (stage.cache_hit) return "cached";
  if (stage.skipped) return "skipped";
  if (stage.pipelined) return "pipelined";
  if (stage.adapted) return "adapted";
  return "barrier";
}

/// \brief Unified execution statistics (summed over tasks and stages).
struct EngineStats {
  int64_t map_output_records = 0;   // map/O-side emitted records
  int64_t shuffle_bytes = 0;        // bytes crossing the stage boundary
  int64_t spill_count = 0;          // intermediate spills to disk
  int64_t spill_bytes_raw = 0;      // spilled run bytes pre-compression
  int64_t spill_bytes_on_disk = 0;  // spill run-file bytes on disk
  int64_t blocks_read = 0;          // run-file blocks decoded in merges
  int64_t reduce_input_records = 0; // reduce/A-side received records
  int64_t output_records = 0;       // final emitted records
  /// Intra-task shuffle work units run on the engine's shared pool
  /// (fanned-out radix sub-sorts, concurrent partition spills,
  /// overlapped spill blocks). 0 when JobSpec.shuffle_threads == 1.
  int64_t parallel_shuffle_tasks = 0;
  /// StageCache traffic of this run, summed over stages (a hit served
  /// the stage without executing it; a spilled restore streamed the
  /// entry back from run files byte-identically).
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cache_evictions = 0;
  int64_t cache_spill_restores = 0;
  /// Stages actually executed (1 for a plain Run; skipped pass-through
  /// stages of a plan are not counted).
  int64_t stage_count = 1;
  /// Per-stage breakdown in plan order (one entry per stage, including
  /// skipped ones). A plain Run carries its single stage here too.
  std::vector<StageStats> stages;
};

/// \brief Concatenation of partitions in partition order (the one
/// merge behind JobOutput::Merged and runtime::PlanOutput::Merged).
std::vector<KVPair> MergedPartitions(
    const std::vector<std::vector<KVPair>>& partitions);

/// \brief Result of a run: per-partition outputs + stats. With a range
/// partitioner, concatenating partitions in order is globally sorted.
struct JobOutput {
  std::vector<std::vector<KVPair>> partitions;
  EngineStats stats;

  /// \brief Concatenation of all partitions in partition order.
  std::vector<KVPair> Merged() const;
};

}  // namespace dmb::engine

#endif  // DATAMPI_BENCH_ENGINE_TYPES_H_
