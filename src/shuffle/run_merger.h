// RunMerger: the single external k-way merge behind every engine's
// reduce-side grouping.
//
// A "run" is a (key, value)-sorted sequence of records. Runs come in
// three forms — arena-resident slices, encoded in-memory batches, and
// spill files on disk — and RunMerger merges any mix of them into one
// KVGroupIterator stream of (key, values) groups in sorted key order.
// This is the one implementation of the external merge sort behind
// the DataMPI A side, the mapreduce reduce side and the rdd groupBy.

#ifndef DATAMPI_BENCH_SHUFFLE_RUN_MERGER_H_
#define DATAMPI_BENCH_SHUFFLE_RUN_MERGER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "io/run_file.h"
#include "shuffle/kv_arena.h"

namespace dmb {
class ParallelContext;
}

namespace dmb::shuffle {

/// \brief Which k-way merge drives a sorted MergingGroupIterator.
enum class MergeAlgorithm {
  /// Tournament (loser) tree: popping the winner replays one
  /// leaf-to-root path of k-1 internal nodes with ONE comparison each —
  /// about half the comparisons of a binary-heap pop+push, and each
  /// record's path touches the same contiguous node array. The default.
  kLoserTree,
  /// Binary-heap merge — the original implementation, kept as the
  /// equivalence oracle for the loser tree. Byte-identical output.
  kHeap,
};

/// \brief Iterates (key, values) groups. Sorted-merge iterators yield
/// groups in ascending key order with values ascending within a group;
/// FIFO iterators yield singleton groups in arrival order.
class KVGroupIterator {
 public:
  virtual ~KVGroupIterator() = default;
  /// \brief Advances to the next group; false at end-of-stream or error
  /// (check status() after the loop).
  virtual bool NextGroup(std::string* key,
                         std::vector<std::string>* values) = 0;
  virtual const Status& status() const = 0;

  /// \brief Run-file blocks decoded while iterating (0 for in-memory
  /// iterators) — the uniform EngineStats::blocks_read source.
  virtual int64_t blocks_read() const { return 0; }
  /// \brief Peak bytes of decoded run-file blocks resident at once
  /// across this merge's streaming file runs. Bounded by
  /// num_file_runs x max block size — the reduce-side memory guarantee.
  virtual int64_t peak_resident_run_bytes() const { return 0; }
};

/// \brief Accumulates sorted runs, then merges them. One-shot: Merge()
/// consumes the accumulated runs.
class RunMerger {
 public:
  RunMerger() = default;
  RunMerger(const RunMerger&) = delete;
  RunMerger& operator=(const RunMerger&) = delete;
  RunMerger(RunMerger&&) = default;
  RunMerger& operator=(RunMerger&&) = default;

  /// \brief Adds an arena-resident run. `slices` must already be sorted
  /// in (key, value) order over `arena`. Zero-copy: the merge reads
  /// straight out of the arena.
  void AddArenaRun(std::shared_ptr<const KVArena> arena,
                   std::vector<KVSlice> slices);

  /// \brief Adds an EncodeKV-framed batch whose records are sorted.
  /// Decoding is streaming and zero-copy into the owned bytes.
  void AddEncodedRun(std::string bytes);

  /// \brief Opens a run file written by the spill I/O subsystem
  /// (io::SpillFileWriter block format) and adds it as a *streaming*
  /// run: the merge holds at most one decoded block of it in memory.
  Status AddFileRun(const std::string& path);

  size_t run_count() const;

  /// \brief Selects the merge implementation (default kLoserTree). The
  /// output stream is identical either way — (key, value, run index)
  /// total order — so this only trades comparison counts.
  void SetAlgorithm(MergeAlgorithm algorithm) { algorithm_ = algorithm; }

  /// \brief Arms one-block read-ahead on every file run at Merge()
  /// time: each run's next block is read + decompressed on the
  /// context's pool while the merge consumes the resident one. No-op
  /// when null or serial. Order, statuses and blocks_read() are
  /// identical to serial merging; peak resident memory grows to at most
  /// 2 x block size per file run.
  void SetParallel(ParallelContext* parallel) { parallel_ = parallel; }

  /// \brief Merges all added runs (k-way merge per SetAlgorithm).
  /// Corruption in a run surfaces through the iterator's status().
  std::unique_ptr<KVGroupIterator> Merge();

  /// \brief Arrival-order singleton-group iterator over arena slices
  /// (the sort_by_key = false path; no merge involved).
  static std::unique_ptr<KVGroupIterator> Fifo(
      std::shared_ptr<const KVArena> arena, std::vector<KVSlice> slices);

 private:
  struct ArenaRun {
    std::shared_ptr<const KVArena> arena;
    std::vector<KVSlice> slices;
  };
  std::vector<ArenaRun> arena_runs_;
  std::vector<std::string> encoded_runs_;
  std::vector<std::unique_ptr<io::StreamingRunReader>> file_runs_;
  MergeAlgorithm algorithm_ = MergeAlgorithm::kLoserTree;
  ParallelContext* parallel_ = nullptr;
};

}  // namespace dmb::shuffle

#endif  // DATAMPI_BENCH_SHUFFLE_RUN_MERGER_H_
