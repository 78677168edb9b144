// The DataMPI job engine: bipartite O/A execution over mpilite.
//
// A DataMPI job (following Lu et al., IPDPS'14) runs two sets of tasks:
//   * O (origin) tasks produce key-value pairs via OContext::Emit();
//   * A (acceptor) tasks receive the pairs, group them, and reduce.
// The four "4D" communication characteristics map as follows:
//   - dichotomic: world ranks are split into an O communicator and an A
//     communicator forming a bipartite graph;
//   - dynamic: O task ids are claimed dynamically by O ranks from a
//     shared queue (multiple waves supported);
//   - data-centric: emitted pairs are partitioned by key and buffered at
//     the A side (memory first, disk spill on pressure);
//   - diversified: hash or range (total-order) partitioning, optional
//     combiner or fold, sorted or arrival-order grouping.
// Data movement is pipelined: Emit() flushes fixed-size batches to A
// tasks *while the O task is still computing*, which is the mechanism
// behind the paper's network-throughput and overlap advantages.
//
// Both buffers are shuffle::PartitionedCollectors. An O task keeps one
// send buffer per A rank and ships its resident run once it holds
// send_buffer_bytes: sorted and combined when the job has a combiner,
// hash-folded as it is emitted when the job also declares a fold, in
// arrival order otherwise. Each A task stores what it receives in one
// collector that spills sorted runs past the memory budget and, with
// sorted grouping and a fold, folds the received partials so that only
// distinct keys are resident and sorted.

#ifndef DATAMPI_BENCH_CORE_JOB_H_
#define DATAMPI_BENCH_CORE_JOB_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/kv.h"
#include "core/partitioner.h"
#include "io/block_file.h"
#include "shuffle/batch_channel.h"
#include "shuffle/fold.h"

namespace dmb {
class ParallelContext;
}

namespace dmb::datampi {

/// \brief Tuning knobs of a job (defaults match the paper's setup of 4
/// concurrent tasks per node at 1 MB pipeline granularity).
struct JobConfig {
  int num_o_ranks = 4;
  int num_a_ranks = 4;
  /// Logical O tasks (>= num_o_ranks; claimed dynamically). 0 means one
  /// task per O rank.
  int num_o_tasks = 0;
  /// Pipeline batch size: an O task ships a send buffer to its A task
  /// once the buffer's collector holds this many bytes in memory.
  int64_t send_buffer_bytes = 1 << 20;
  /// A-side memory budget per A task before spilling to disk.
  int64_t a_memory_budget_bytes = 64 << 20;
  /// Spill run-file block size and codec (src/io block format).
  io::BlockFileOptions spill_io;
  /// Sorted grouping at the A side (false = arrival order, no grouping).
  bool sort_by_key = true;
  /// Partitioner; null = HashPartitioner.
  std::shared_ptr<const Partitioner> partitioner;
  /// Optional combiner applied to each send batch before it is shipped:
  /// (key, values) -> combined value (e.g. partial sums for WordCount).
  /// The batch is sorted and each key's values combined.
  std::function<std::string(std::string_view key,
                            const std::vector<std::string>& values)>
      combiner;
  /// Optional fold agreeing with `combiner` (required with it;
  /// shuffle/fold.h). Send batches are then hash-folded as they are
  /// emitted instead of sorted, and with sort_by_key the A side folds
  /// the received partials, so the A function sees one folded value per
  /// key (one per spill run when the A side spills).
  shuffle::Fold fold;
  /// Optional checkpoint directory: when set, every A task persists its
  /// received (pre-reduce) data, enabling RunFromCheckpoint().
  std::string checkpoint_dir;
  /// Optional streaming output sink: A task p pushes its emitted records
  /// into channel partition p in batches *while it reduces* and closes
  /// the partition when done — the producer half of a pipelined narrow
  /// stage edge (the same overlap Emit() gives the O->A shuffle, one
  /// stage boundary further downstream).
  std::shared_ptr<shuffle::BatchChannelGroup> output_stream;
  /// With output_stream: skip materializing a_outputs entirely (the
  /// stream is the only reader of this job's output).
  bool stream_output_only = false;
  /// Intra-task parallelism context (borrowed, may be null; typically
  /// the engine-owned pool shared by every task of the job). When set,
  /// O-side combiner flushes sort in parallel and A-side stores spill
  /// with concurrent sorts, overlapped block encoding and merge-time
  /// prefetch. Output and run-file bytes are identical either way.
  ParallelContext* parallel = nullptr;
};

/// \brief Emit-side context handed to O task functions.
class OContext {
 public:
  virtual ~OContext() = default;
  /// \brief Emits one intermediate pair (partitioned + pipelined).
  virtual Status Emit(std::string_view key, std::string_view value) = 0;
  /// \brief The logical O task id being executed.
  virtual int task_id() const = 0;
  virtual int num_a_ranks() const = 0;
};

/// \brief Output collector handed to A task functions.
class AEmitter {
 public:
  virtual ~AEmitter() = default;
  virtual void Emit(std::string_view key, std::string_view value) = 0;
};

/// \brief User O-task function: produce pairs for logical task `task_id`.
using OTaskFn = std::function<Status(OContext* ctx)>;
/// \brief User A-side group function: one call per (key, values) group.
using AGroupFn = std::function<Status(std::string_view key,
                                      const std::vector<std::string>& values,
                                      AEmitter* out)>;

/// \brief Execution statistics (summed over tasks).
struct JobStats {
  int64_t o_records_emitted = 0;
  int64_t shuffle_bytes = 0;
  int64_t shuffle_batches = 0;
  int64_t a_records_received = 0;
  int64_t a_spill_count = 0;
  /// Encoded run bytes spilled by A tasks (before block compression).
  int64_t a_spill_bytes_raw = 0;
  /// Run-file bytes on disk (after block compression + framing).
  int64_t a_spill_bytes_on_disk = 0;
  /// Run-file blocks decoded by the A-side streaming merges.
  int64_t a_blocks_read = 0;
  int64_t output_records = 0;
  /// Intra-task pool work units fanned out by O-side combiner sorts and
  /// A-side stores (0 when config.parallel is null).
  int64_t parallel_shuffle_tasks = 0;
  int o_waves = 0;
};

/// \brief Result of a run: outputs per A task (index = A rank) + stats.
struct JobResult {
  std::vector<std::vector<KVPair>> a_outputs;
  JobStats stats;

  /// \brief Concatenation of all A outputs in A-rank order (for a
  /// range-partitioned sort this is globally ordered).
  std::vector<KVPair> Merged() const;
};

/// \brief The job driver.
class DataMPIJob {
 public:
  explicit DataMPIJob(JobConfig config);

  /// \brief Runs the bipartite job to completion.
  Result<JobResult> Run(OTaskFn o_fn, AGroupFn a_fn);

  /// \brief Re-runs only the A phase from a checkpoint previously written
  /// by a Run() with config.checkpoint_dir set (fault-tolerance path:
  /// O work and the shuffle are skipped entirely).
  Result<JobResult> RunFromCheckpoint(AGroupFn a_fn);

  const JobConfig& config() const { return config_; }

 private:
  JobConfig config_;
};

}  // namespace dmb::datampi

#endif  // DATAMPI_BENCH_CORE_JOB_H_
