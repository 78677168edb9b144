// PartitionedCollector: map-side collection for every engine's shuffle.
//
// Records are partitioned on insert (no second routing pass), stored as
// KVSlices over one shared KVArena (no per-record string allocations),
// and — when the memory budget is exceeded — sorted, combined and
// spilled as one run file per partition. Sealing the collector yields
// either per-partition KVGroupIterators (resident data merged with the
// spill runs by RunMerger) or per-partition encoded runs for engines
// that stage map output across a task barrier (Hadoop-style).
//
// With a Fold the collector aggregates instead of collecting (Spark's
// map-side combineByKey): an open-addressing table over arena keys
// folds each value into its key's accumulator on Add, so only distinct
// keys are resident and only they get sorted when a run is produced.
// The runs are the ones the sort + combine path yields for the same
// records; under kSpill an over-budget table drains as one sorted run
// per partition and starts empty.
//
// The budget reaction is pluggable, which is what lets JobSpec's
// memory_budget_bytes mean the same thing on every engine: DataMPI and
// MapReduce spill past it (kSpill); a collector that owns its budget
// can instead fail with OutOfMemory (kFail, Spark 0.8 semantics) —
// the rddlite engine adapter runs its collector kUnbounded and
// reserves the projected growth (key + value + kRecordOverheadBytes
// per record) from the shared executor MemoryManager before inserting,
// which is what fails its jobs with OutOfMemory.

#ifndef DATAMPI_BENCH_SHUFFLE_COLLECTOR_H_
#define DATAMPI_BENCH_SHUFFLE_COLLECTOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/temp_dir.h"
#include "core/partitioner.h"
#include "io/block_file.h"
#include "shuffle/fold.h"
#include "shuffle/kv_arena.h"
#include "shuffle/run_merger.h"

namespace dmb {
class ParallelContext;
}

namespace dmb::shuffle {

/// \brief Combiner: (key, values) -> combined value, applied per
/// partition at spill/seal time (incremental combining).
using CombinerFn = std::function<std::string(
    std::string_view key, const std::vector<std::string>& values)>;

/// \brief What happens when bytes_in_memory() exceeds the budget.
enum class BudgetAction {
  /// Sort/combine resident data and spill one run file per partition.
  kSpill,
  /// Fail the Add() with Status::OutOfMemory (Spark 0.8 semantics).
  kFail,
  /// Budget is advisory only; never spill, never fail.
  kUnbounded,
};

struct CollectorOptions {
  int num_partitions = 1;
  /// Partition router; may be null only when num_partitions == 1.
  std::shared_ptr<const datampi::Partitioner> partitioner;
  /// Optional combiner applied at spill/seal time.
  CombinerFn combiner;
  /// Optional fold: hash-aggregates on Add instead of sorting every
  /// record (the combiner is then unused). Requires sort_by_key.
  Fold fold;
  /// Sorted (key, value) runs and grouped merge output. When false the
  /// collector keeps arrival order, yields singleton groups, and cannot
  /// spill (kSpill degrades to kUnbounded; kFail still applies).
  bool sort_by_key = true;
  /// Approximate in-memory bytes before `on_budget` triggers.
  int64_t memory_budget_bytes = 64 << 20;
  BudgetAction on_budget = BudgetAction::kSpill;
  /// Directory for spill run files; null = private TempDir on demand.
  const TempDir* spill_dir = nullptr;
  /// Prefix for run file names (disambiguates collectors sharing a
  /// spill_dir, e.g. concurrent map tasks).
  std::string file_prefix;
  /// Run-file I/O tuning: block size and codec of the checksummed
  /// block format every spill is written in (src/io).
  io::BlockFileOptions spill_io;
  /// Non-owning intra-task parallelism context (null or serial = the
  /// classic single-threaded path). When enabled, large sorts fan out
  /// across the pool, non-empty partitions spill concurrently (run-file
  /// names and bytes stay identical to the serial path), spill writers
  /// overlap block encoding with appends, and merge-time file runs
  /// prefetch one block of lookahead. Requires the combiner (if any) to
  /// tolerate concurrent calls on different partitions — the same bar
  /// engines already set for concurrent map tasks.
  ParallelContext* parallel = nullptr;
};

/// \brief The collector. Not thread-safe; one instance per task.
class PartitionedCollector {
 public:
  /// Per-record bookkeeping overhead charged against the memory budget
  /// on top of the raw key+value payload (slice + vector slot).
  /// Without a fold bytes_in_memory() grows by exactly
  /// key.size() + value.size() + kRecordOverheadBytes per Add, so
  /// callers owning an external budget can reserve before inserting.
  /// With a fold it grows only on a new key, by key.size() + 8 (the
  /// binary accumulator) + kRecordOverheadBytes, and by the hash
  /// table's slots, which double when the table is half full.
  static constexpr int64_t kRecordOverheadBytes = 32;

  explicit PartitionedCollector(CollectorOptions options);
  ~PartitionedCollector();

  PartitionedCollector(const PartitionedCollector&) = delete;
  PartitionedCollector& operator=(const PartitionedCollector&) = delete;

  /// \brief Routes one record to its partition (may spill or fail per
  /// the budget action). With more than one partition the record's
  /// bytes land in the arena immediately but partition routing is
  /// deferred: staged records are routed kRouteBatchRecords at a time
  /// through Partitioner::PartitionBatch — one virtual dispatch and a
  /// tight hash + route loop per batch instead of per record.
  Status Add(std::string_view key, std::string_view value);

  /// \brief Adds every record of an EncodeKV-framed batch. Records
  /// preceding a corruption are retained; the corruption is returned.
  Status AddBatch(std::string_view batch);

  /// \brief Adds a batch of decoded records (the rdd wide stage hands
  /// whole parent partitions through here; routing is batched).
  Status AddBatch(const std::pair<std::string, std::string>* records,
                  size_t n);
  Status AddBatch(
      const std::vector<std::pair<std::string, std::string>>& records) {
    return AddBatch(records.data(), records.size());
  }

  /// \brief Sorted runs of one partition after sealing: encoded batches
  /// in memory and/or run files on disk.
  struct PartitionRuns {
    std::vector<std::string> encoded_runs;
    std::vector<std::string> run_files;
  };

  /// \brief Seals the collector and returns one grouped iterator per
  /// partition (resident data + spill runs merged). No further Add().
  Result<std::vector<std::unique_ptr<KVGroupIterator>>> FinishIterators();

  /// \brief Seals the collector and returns every partition's runs,
  /// with resident data sorted/combined/encoded (written to disk when
  /// `to_disk`). Used by engines that stage runs across a task barrier.
  Result<std::vector<PartitionRuns>> FinishRuns(bool to_disk);

  /// \brief Takes the resident run of a single-partition collector,
  /// EncodeKV-framed ("" when nothing is resident), and leaves the
  /// collector empty but open for more Add()s. The run is what a spill
  /// would write: sorted and combined (or folded) when combining, in
  /// arrival order when unsorted. DataMPI's O side ships one such run
  /// per send batch.
  std::string TakeEncodedRun();

  int num_partitions() const { return options_.num_partitions; }
  int64_t records_added() const { return records_added_; }
  /// Raw key+value payload bytes added.
  int64_t bytes_added() const { return bytes_added_; }
  /// Arena payload, per-record bookkeeping overhead and hash-mode table
  /// slots (the quantity compared against memory_budget_bytes).
  int64_t bytes_in_memory() const;
  /// Run files written to disk (pressure spills + FinishRuns flushes).
  int spill_count() const { return spill_count_; }
  /// Bytes of run files on disk (after block compression + framing).
  int64_t spilled_bytes() const { return spilled_bytes_; }
  /// Encoded run bytes handed to the spill writer (pre-compression).
  int64_t spilled_raw_bytes() const { return spilled_raw_bytes_; }
  /// EncodeKV wire size of everything Added (pre-combine) — the uniform
  /// shuffle_bytes accounting for engines without their own wire.
  int64_t encoded_input_bytes() const { return encoded_input_bytes_; }
  /// Encoded bytes of all runs produced (post-combine).
  int64_t encoded_output_bytes() const { return encoded_output_bytes_; }
  /// Units of work this collector ran on the parallel context's pool:
  /// fanned-out radix sub-sorts + concurrent partition spills +
  /// overlapped spill blocks. 0 on the serial path.
  int64_t parallel_tasks() const {
    return parallel_tasks_.load(std::memory_order_relaxed);
  }

  /// \brief Records routed per PartitionBatch call on the deferred
  /// routing path (multi-partition collectors only).
  static constexpr size_t kRouteBatchRecords = 256;

 private:
  bool spilling_enabled() const {
    return options_.sort_by_key &&
           options_.on_budget == BudgetAction::kSpill;
  }
  bool hash_mode() const { return static_cast<bool>(options_.fold); }
  /// Runs hold one combined record per key (fold or combiner).
  bool combining() const {
    return options_.sort_by_key && (hash_mode() || options_.combiner);
  }
  /// Hash mode's Add: folds `value` into the key's accumulator, or
  /// inserts the key with `value` as its first accumulator.
  Status FoldAdd(std::string_view key, std::string_view value);
  /// Doubles the table and re-places every occupied slot.
  void GrowTable();
  /// Frees the table (after a drain): the next Add starts it small, so
  /// a drained collector holds no table memory.
  void ClearTable();
  /// Routes every staged slice to its partition in one batched
  /// partitioner call. Must run before anything reads partitions_
  /// (spill, combine, seal).
  void RouteStaged();
  /// Applies the sort/combine policy to partition p's resident slices
  /// and feeds each record of the resulting run to `sink` in run order
  /// (the one definition of what a run contains, shared by the encoded
  /// and on-disk spill paths).
  Status ForEachResident(
      size_t p,
      const std::function<Status(std::string_view key,
                                 std::string_view value)>& sink);
  /// Sorts + combines partition p's resident slices into an encoded run.
  std::string EncodeResident(size_t p);
  /// Sorts `slices` through the parallel-aware arena sort, accumulating
  /// fanned-out sub-sorts into parallel_tasks_. Safe to call from
  /// concurrent per-partition tasks (counter is atomic; the sort itself
  /// help-waits on the shared pool).
  void SortSlices(std::vector<KVSlice>* slices);
  /// Reserves the next run-file path ("<prefix>run-<n>.kv") and bumps
  /// spill_count_ — the one place run names are minted, so concurrent
  /// spills pre-assign names in partition order and match serial naming.
  std::string NextRunPath();
  /// Writes partition p's sorted/combined resident slices to `path`
  /// without touching shared counters (runs on pool workers); the
  /// written/raw/overlapped byte counts come back through the out
  /// params for the caller to fold in partition order.
  Status WriteRunFileTo(size_t p, const std::string& path,
                        int64_t* raw_bytes, int64_t* file_bytes,
                        int64_t* overlapped_blocks);
  /// Writes partition p's sorted/combined resident slices as a run file
  /// (io::SpillFileWriter block format); "" when the partition is empty.
  Result<std::string> WriteRunFile(size_t p);
  /// Writes every non-empty partition's resident run file — concurrently
  /// when the context allows — into (*paths)[p] ("" for empty
  /// partitions). Stats fold in partition order either way.
  Status WriteAllRunFiles(std::vector<std::string>* paths);
  /// Sorts partition p's resident slices and folds each key's values
  /// through the combiner into `out`, returning the combined (sorted)
  /// slices; in hash mode sorts the distinct keys and formats their
  /// accumulators instead. Requires combining().
  std::vector<KVSlice> CombineResident(size_t p, KVArena* out);
  Status SpillAll();
  /// Drops every resident record, the arena bytes and the hash table
  /// (after they were spilled or taken as a run).
  void ClearResident();
  const TempDir* dir();

  CollectorOptions options_;
  std::unique_ptr<TempDir> owned_dir_;
  std::shared_ptr<KVArena> arena_;
  std::vector<std::vector<KVSlice>> partitions_;
  std::vector<std::vector<std::string>> spill_files_;  // per partition
  /// Arrival-order slices not yet routed to a partition, plus the
  /// scratch arrays the batched routing reuses across flushes.
  std::vector<KVSlice> staged_;
  std::vector<std::string_view> staged_keys_;
  std::vector<int> staged_parts_;

  /// Hash mode: one slot per distinct resident key, open addressing
  /// with linear probing over a power-of-two table at most half full.
  /// A slot locates its key in the arena directly; the key's record
  /// carries its binary int64 accumulator as 8 value bytes right after
  /// the key, so a lookup and its fold touch one arena spot. The
  /// record's slice also sits in partitions_, which the drain sorts.
  static constexpr uint32_t kEmptySlot = ~uint32_t{0};
  struct TableSlot {
    uint64_t key_off = 0;
    uint32_t key_len = kEmptySlot;
    /// High half of the key's hash: most mismatches end here. Its low
    /// bits are the slot's home, so the table grows without rehashing
    /// or touching the keys.
    uint32_t tag = 0;
  };

  std::vector<TableSlot> table_;
  size_t table_used_ = 0;

  int64_t records_added_ = 0;
  int64_t bytes_added_ = 0;
  int64_t records_in_memory_ = 0;
  int spill_count_ = 0;
  int64_t spilled_bytes_ = 0;
  int64_t spilled_raw_bytes_ = 0;
  int64_t encoded_input_bytes_ = 0;
  int64_t encoded_output_bytes_ = 0;
  std::atomic<int64_t> parallel_tasks_{0};
  bool finished_ = false;
};

}  // namespace dmb::shuffle

#endif  // DATAMPI_BENCH_SHUFFLE_COLLECTOR_H_
