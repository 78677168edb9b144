#include "engine/rdd_engine.h"

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "common/in_order_queue.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "rddlite/rdd.h"
#include "shuffle/collector.h"
#include "shuffle/run_merger.h"

namespace dmb::engine {

namespace {

using StrPair = std::pair<std::string, std::string>;

std::pair<size_t, size_t> SplitRange(size_t n, int part, int parts) {
  return {n * static_cast<size_t>(part) / static_cast<size_t>(parts),
          n * static_cast<size_t>(part + 1) / static_cast<size_t>(parts)};
}

/// Drains a grouped iterator into (key, value) pairs.
Result<std::vector<StrPair>> DrainGroups(shuffle::KVGroupIterator* iterator) {
  std::vector<StrPair> out;
  std::string key;
  std::vector<std::string> values;
  while (iterator->NextGroup(&key, &values)) {
    for (auto& v : values) out.emplace_back(key, std::move(v));
  }
  DMB_RETURN_NOT_OK(iterator->status());
  return out;
}

/// Collects map emissions of one partition. Without a combiner the
/// records go straight into the output in arrival order. With one they
/// go through the shared shuffle collector, combined at Take() — Spark's
/// map-side combineByKey: hash-aggregated on emit when the job declares
/// a fold, sorted, grouped and combined otherwise.
class CollectingMapContext final : public MapContext {
 public:
  CollectingMapContext(int task_id, const CombinerFn& combiner,
                       const shuffle::Fold& fold, ParallelContext* parallel)
      : task_id_(task_id) {
    if (!combiner) return;
    shuffle::CollectorOptions copts;
    copts.num_partitions = 1;
    copts.combiner = combiner;
    copts.fold = fold;
    copts.on_budget = shuffle::BudgetAction::kUnbounded;
    copts.parallel = parallel;
    collector_ =
        std::make_unique<shuffle::PartitionedCollector>(std::move(copts));
  }

  Status Emit(std::string_view key, std::string_view value) override {
    if (collector_ == nullptr) {
      out_.emplace_back(key, value);
      return Status::OK();
    }
    return collector_->Add(key, value);
  }
  int task_id() const override { return task_id_; }

  int64_t records() const {
    return collector_ ? collector_->records_added()
                      : static_cast<int64_t>(out_.size());
  }
  int64_t parallel_tasks() const {
    return collector_ ? collector_->parallel_tasks() : 0;
  }

  Result<std::vector<StrPair>> Take() {
    if (collector_ == nullptr) return std::move(out_);
    DMB_ASSIGN_OR_RETURN(auto iterators, collector_->FinishIterators());
    return DrainGroups(iterators[0].get());
  }

 private:
  int task_id_;
  std::unique_ptr<shuffle::PartitionedCollector> collector_;
  std::vector<StrPair> out_;
};

/// Narrow stage: applies the user map function (plus the map-side
/// combiner, as Spark's combineByKey does) to this partition's slice of
/// the input — or, with pre-assigned splits (narrow plan edges), to the
/// split pinned to this partition.
class MapStageRDD final : public rddlite::RDD<StrPair> {
 public:
  MapStageRDD(rddlite::RddContext* ctx,
              std::shared_ptr<const std::vector<KVPair>> input,
              std::shared_ptr<const std::vector<std::vector<KVPair>>> splits,
              std::shared_ptr<shuffle::BatchChannelGroup> stream,
              int parts, MapFn map_fn, CombinerFn combiner, shuffle::Fold fold,
              ParallelContext* parallel, std::atomic<int64_t>* map_records,
              std::atomic<int64_t>* parallel_tasks)
      : RDD<StrPair>(ctx, parts),
        input_(std::move(input)),
        splits_(std::move(splits)),
        stream_(std::move(stream)),
        map_fn_(std::move(map_fn)),
        combiner_(std::move(combiner)),
        fold_(std::move(fold)),
        parallel_(parallel),
        map_records_(map_records),
        parallel_tasks_(parallel_tasks) {}

 protected:
  Result<std::vector<StrPair>> DoCompute(int p) override {
    CollectingMapContext ctx(p, combiner_, fold_, parallel_);
    if (stream_) {
      // Pipelined narrow edge: pull partition p's batches while the
      // upstream stage is still producing them.
      DMB_RETURN_NOT_OK(shuffle::DrainChannel(
          stream_.get(), p,
          [&](std::string_view key, std::string_view value) {
            return map_fn_(key, value, &ctx);
          }));
      return Finish(&ctx);
    }
    const std::vector<KVPair>& records =
        splits_ ? (*splits_)[static_cast<size_t>(p)] : *input_;
    const auto [begin, end] =
        splits_ ? std::pair<size_t, size_t>{0, records.size()}
                : SplitRange(records.size(), p, this->num_partitions());
    for (size_t i = begin; i < end; ++i) {
      DMB_RETURN_NOT_OK(
          map_fn_(records[i].key, records[i].value, &ctx));
    }
    return Finish(&ctx);
  }

 private:
  Result<std::vector<StrPair>> Finish(CollectingMapContext* ctx) {
    map_records_->fetch_add(ctx->records(), std::memory_order_relaxed);
    auto out = ctx->Take();
    parallel_tasks_->fetch_add(ctx->parallel_tasks(),
                               std::memory_order_relaxed);
    return out;
  }

  std::shared_ptr<const std::vector<KVPair>> input_;
  std::shared_ptr<const std::vector<std::vector<KVPair>>> splits_;
  std::shared_ptr<shuffle::BatchChannelGroup> stream_;
  MapFn map_fn_;
  CombinerFn combiner_;
  shuffle::Fold fold_;
  ParallelContext* parallel_;
  std::atomic<int64_t>* map_records_;
  std::atomic<int64_t>* parallel_tasks_;
};

/// Spill-mode counters surfaced into EngineStats.
struct ShuffleSpillStats {
  std::atomic<int64_t> spill_count{0};
  std::atomic<int64_t> spill_bytes_raw{0};
  std::atomic<int64_t> spill_bytes_on_disk{0};
  std::atomic<int64_t> blocks_read{0};
  std::atomic<int64_t> parallel_tasks{0};
};

/// Wide stage: runs the parent map stage once — every parent partition
/// computed concurrently, as Spark's ShuffleMapStage — and writes its
/// outputs into the shared shuffle collector in parent-partition order,
/// so run-file names, stats and output match a serial map stage. Each
/// output is written and freed as soon as every output before it is in,
/// so only the outputs that finished ahead of an earlier one wait
/// resident. The collector partitions on insert and sorts per
/// partition. Two modes:
///   * Spark 0.8 (default): the resident bytes are reserved from the
///     executor MemoryManager — shuffle data is memory-resident, so
///     exceeding the budget fails the job with OutOfMemory.
///   * Spark 0.9+ (spill_past_budget): the collector owns the budget
///     and spills sorted, checksummed run files past it.
/// Either way each partition is drained from its merge iterator by its
/// one consumer, outside the lock, so only the consumer ever holds the
/// decoded records; in spill mode the resident footprint stays bounded
/// by runs x block size.
class ShuffleStageRDD final : public rddlite::RDD<StrPair> {
 public:
  struct Options {
    std::shared_ptr<const datampi::Partitioner> partitioner;
    bool sort_by_key = true;
    bool spill_past_budget = false;
    int64_t memory_budget_bytes = 64 << 20;
    io::BlockFileOptions spill_io;
    /// Borrowed intra-task parallelism context (may be null).
    ParallelContext* parallel = nullptr;
  };

  ShuffleStageRDD(rddlite::RDD<StrPair>::Ptr parent, int parts,
                  Options options, std::atomic<int64_t>* shuffle_bytes,
                  ShuffleSpillStats* spill_stats)
      : RDD<StrPair>(parent->context(), parts),
        parent_(std::move(parent)),
        options_(std::move(options)),
        shuffle_bytes_(shuffle_bytes),
        spill_stats_(spill_stats) {}

  ~ShuffleStageRDD() override {
    MutexLock lock(mu_);
    if (store_bytes_ > 0) this->ctx_->memory()->Release(store_bytes_);
  }

  /// \brief Runs the map stage on `pool` and shuffles its output. Must
  /// return before any partition of this RDD is computed. `on_map_failure`
  /// runs on the failing task as soon as a map task fails (the engine
  /// aborts a streaming input there, so siblings and the producer stop).
  /// Returns the first failure in parent-partition order.
  Status Materialize(ThreadPool* pool,
                     const std::function<void(const Status&)>& on_map_failure) {
    const size_t parents = static_cast<size_t>(parent_->num_partitions());
    InOrderQueue<std::vector<StrPair>> outputs(parents);
    std::vector<Status> statuses(parents);
    for (size_t pp = 0; pp < parents; ++pp) {
      pool->Submit([&, pp] {
        auto out = parent_->ComputePartition(static_cast<int>(pp));
        if (!out.ok()) {
          statuses[pp] = out.status();
          outputs.Stop();  // the stage fails: shuffle nothing more
          on_map_failure(statuses[pp]);
          return;
        }
        outputs.Put(pp, std::move(out).value());
      });
    }
    // The map tasks only compute; this thread writes their outputs in
    // order while later tasks still run. Writing from the task threads
    // instead spreads the collector's allocations over every task
    // thread's malloc arena, which raises peak RSS.
    Status inserted;
    {
      MutexLock lock(mu_);
      collector_ = MakeCollector();
    }
    while (std::optional<std::vector<StrPair>> out = outputs.Next()) {
      MutexLock lock(mu_);
      inserted = Insert(*out);
      if (!inserted.ok()) {
        outputs.Stop();
        break;
      }
    }
    pool->Wait();
    MutexLock lock(mu_);
    materialized_ = true;
    for (const Status& st : statuses) {
      if (!st.ok()) {
        store_status_ = st;
        return st;
      }
    }
    store_status_ = inserted.ok() ? Seal() : inserted;
    return store_status_;
  }

 protected:
  Result<std::vector<StrPair>> DoCompute(int p) override {
    std::unique_ptr<shuffle::KVGroupIterator> iterator;
    {
      MutexLock lock(mu_);
      if (!materialized_) {
        return Status::FailedPrecondition(
            "rdd shuffle partition read before its map stage ran");
      }
      DMB_RETURN_NOT_OK(store_status_);
      iterator = std::move(iterators_[static_cast<size_t>(p)]);
    }
    if (!iterator) {
      return Status::Internal("rdd shuffle partition drained twice");
    }
    auto out = DrainGroups(iterator.get());
    spill_stats_->blocks_read.fetch_add(iterator->blocks_read(),
                                        std::memory_order_relaxed);
    return out;
  }

 private:
  std::unique_ptr<shuffle::PartitionedCollector> MakeCollector() const {
    shuffle::CollectorOptions copts;
    copts.num_partitions = this->num_partitions();
    copts.partitioner = options_.partitioner;
    copts.sort_by_key = options_.sort_by_key;
    copts.parallel = options_.parallel;
    if (options_.spill_past_budget) {
      // Spark 0.9+ mode: the collector enforces the budget itself and
      // spills run files (io block format) under pressure.
      copts.on_budget = shuffle::BudgetAction::kSpill;
      copts.memory_budget_bytes = options_.memory_budget_bytes;
      copts.spill_io = options_.spill_io;
      copts.file_prefix = "rdd-shuffle-";
    } else {
      // Spark 0.8: the executor MemoryManager owns the budget decision
      // (it is shared with cached RDDs), so the collector itself never
      // spills or fails.
      copts.on_budget = shuffle::BudgetAction::kUnbounded;
    }
    return std::make_unique<shuffle::PartitionedCollector>(std::move(copts));
  }

  /// Writes one map output into the collector.
  Status Insert(const std::vector<StrPair>& in) DMB_REQUIRES(mu_) {
    if (!options_.spill_past_budget) {
      // Reserve before inserting, so an over-budget job fails without
      // first making the whole partition resident. The reservation is
      // held until the stage ends.
      int64_t delta = 0;
      for (const auto& kv : in) {
        delta += static_cast<int64_t>(kv.first.size() + kv.second.size()) +
                 shuffle::PartitionedCollector::kRecordOverheadBytes;
      }
      DMB_RETURN_NOT_OK(this->ctx_->memory()->Reserve(delta));
      store_bytes_ += delta;
    }
    return collector_->AddBatch(in);
  }

  /// Seals the collector once every map output is in.
  Status Seal() DMB_REQUIRES(mu_) {
    shuffle_bytes_->fetch_add(collector_->encoded_input_bytes(),
                              std::memory_order_relaxed);
    DMB_ASSIGN_OR_RETURN(iterators_, collector_->FinishIterators());
    spill_stats_->spill_count.fetch_add(collector_->spill_count(),
                                        std::memory_order_relaxed);
    spill_stats_->spill_bytes_raw.fetch_add(collector_->spilled_raw_bytes(),
                                            std::memory_order_relaxed);
    spill_stats_->spill_bytes_on_disk.fetch_add(collector_->spilled_bytes(),
                                                std::memory_order_relaxed);
    spill_stats_->parallel_tasks.fetch_add(collector_->parallel_tasks(),
                                           std::memory_order_relaxed);
    return Status::OK();
  }

  rddlite::RDD<StrPair>::Ptr parent_;
  Options options_;
  std::atomic<int64_t>* shuffle_bytes_;
  ShuffleSpillStats* spill_stats_;
  mutable Mutex mu_;
  bool materialized_ DMB_GUARDED_BY(mu_) = false;
  Status store_status_ DMB_GUARDED_BY(mu_);
  /// The collector owning the runs (arena and spill files) the merge
  /// iterators stream out of.
  std::unique_ptr<shuffle::PartitionedCollector> collector_
      DMB_GUARDED_BY(mu_);
  /// One per partition, moved out by its consumer.
  std::vector<std::unique_ptr<shuffle::KVGroupIterator>> iterators_
      DMB_GUARDED_BY(mu_);
  int64_t store_bytes_ DMB_GUARDED_BY(mu_) = 0;
};

/// Reduce-side collector: the shared stream-aware tee behind a
/// ReduceEmitter face (retains the partition and/or streams into the
/// job's output channel; a push failure is sticky in status()).
class CollectingReduceEmitter final : public ReduceEmitter {
 public:
  CollectingReduceEmitter(shuffle::BatchStreamWriter* stream, bool retain)
      : tee_(stream, retain) {}

  void Emit(std::string_view key, std::string_view value) override {
    tee_.Collect(key, value);
  }
  std::vector<KVPair> Take() { return tee_.Take(); }
  int64_t records() const { return tee_.records(); }
  const Status& status() const { return tee_.status(); }

 private:
  shuffle::StreamTeeCollector tee_;
};

}  // namespace

Result<JobOutput> RddEngine::RunStage(const JobSpec& spec) {
  DMB_RETURN_NOT_OK(ValidateSpec(spec));
  if (spec.cancel && spec.cancel->cancelled()) return spec.cancel->status();
  // Cooperative cancellation: checked per map record / reduce group.
  const MapFn user_map = CancellableMap(spec.map_fn, spec.cancel);
  const ReduceFn user_reduce = CancellableReduce(spec.reduce_fn, spec.cancel);
  // Held for the stage's duration: a concurrent stage with different
  // knobs may swap the engine's cache, and the shared_ptr keeps this
  // stage's pool alive until its tasks finish.
  std::shared_ptr<ParallelContext> parallel = ShuffleParallel(spec);
  rddlite::RddContext::Options options;
  options.slots = spec.parallelism;
  if (spec.memory_budget_bytes > 0) {
    options.memory_budget_bytes = spec.memory_budget_bytes;
  }
  rddlite::RddContext ctx(options);

  ShuffleStageRDD::Options shuffle_options;
  shuffle_options.partitioner = spec.partitioner;
  if (!shuffle_options.partitioner) {
    shuffle_options.partitioner = std::make_shared<datampi::HashPartitioner>();
  }
  shuffle_options.sort_by_key = spec.sort_by_key;
  shuffle_options.spill_past_budget = spec.rdd_shuffle_spill;
  if (spec.memory_budget_bytes > 0) {
    shuffle_options.memory_budget_bytes = spec.memory_budget_bytes;
  }
  shuffle_options.spill_io = SpillIoOptions(spec);
  shuffle_options.parallel = parallel.get();

  std::atomic<int64_t> map_records{0};
  std::atomic<int64_t> shuffle_bytes{0};
  ShuffleSpillStats spill_stats;
  auto mapped = std::make_shared<MapStageRDD>(
      &ctx, spec.input, spec.input_splits, spec.stream_input,
      spec.parallelism, user_map, spec.combiner, spec.fold, parallel.get(),
      &map_records, &spill_stats.parallel_tasks);
  auto shuffled = std::make_shared<ShuffleStageRDD>(
      mapped, spec.parallelism, std::move(shuffle_options), &shuffle_bytes,
      &spill_stats);

  JobOutput output;
  output.partitions.resize(static_cast<size_t>(spec.parallelism));
  std::atomic<int64_t> reduce_in{0}, reduce_out{0};
  std::vector<Status> statuses(static_cast<size_t>(spec.parallelism));
  {
    // One pool of spec.parallelism task slots runs the map tasks, then
    // the reduce tasks.
    ThreadPool pool(spec.parallelism);
    const Status map_status =
        shuffled->Materialize(&pool, [&spec](const Status& st) {
          // A failed map task aborts its streaming input: the producer
          // stops pushing and sibling tasks stop pulling.
          if (spec.stream_input) spec.stream_input->Cancel(st);
        });
    if (!map_status.ok()) {
      if (spec.stream_output) spec.stream_output->Cancel(map_status);
      return map_status;
    }
    for (int p = 0; p < spec.parallelism; ++p) {
      pool.Submit([&, p] {
        auto part = shuffled->ComputePartition(p);
        if (!part.ok()) {
          // Unblock sibling tasks parked on the output stream's
          // backpressure window (and the downstream consumer).
          if (spec.stream_output) spec.stream_output->Cancel(part.status());
          statuses[static_cast<size_t>(p)] = part.status();
          return;
        }
        reduce_in.fetch_add(static_cast<int64_t>(part->size()),
                            std::memory_order_relaxed);
        std::unique_ptr<shuffle::BatchStreamWriter> out_stream;
        if (spec.stream_output) {
          out_stream = std::make_unique<shuffle::BatchStreamWriter>(
              spec.stream_output.get(), p);
        }
        CollectingReduceEmitter emitter(out_stream.get(),
                                        !spec.stream_output_only);
        Status st;
        std::vector<std::string> values;
        size_t i = 0;
        while (i < part->size() && st.ok()) {
          const std::string key = std::move((*part)[i].first);
          values.clear();
          if (spec.sort_by_key) {
            values.push_back(std::move((*part)[i].second));
            ++i;
            while (i < part->size() && (*part)[i].first == key) {
              values.push_back(std::move((*part)[i].second));
              ++i;
            }
          } else {
            // Arrival-order singleton groups, as DataMPI's unsorted mode.
            values.push_back(std::move((*part)[i].second));
            ++i;
          }
          st = user_reduce(key, values, &emitter);
          if (st.ok()) st = emitter.status();
        }
        if (st.ok() && out_stream != nullptr) st = out_stream->Finish();
        if (!st.ok()) {
          if (spec.stream_output) spec.stream_output->Cancel(st);
          statuses[static_cast<size_t>(p)] = st;
          return;
        }
        auto out = emitter.Take();
        reduce_out.fetch_add(emitter.records(), std::memory_order_relaxed);
        output.partitions[static_cast<size_t>(p)] = std::move(out);
      });
    }
    pool.Wait();
  }
  for (const auto& st : statuses) {
    DMB_RETURN_NOT_OK(st);
  }

  output.stats.map_output_records = map_records.load();
  output.stats.shuffle_bytes = shuffle_bytes.load();
  // Without rdd_shuffle_spill rddlite has no spill path (it OOMs), so
  // these stay 0; in Spark 0.9+ mode they report the wide stage's
  // pressure spills and the streaming merge's block reads.
  output.stats.spill_count = spill_stats.spill_count.load();
  output.stats.spill_bytes_raw = spill_stats.spill_bytes_raw.load();
  output.stats.spill_bytes_on_disk = spill_stats.spill_bytes_on_disk.load();
  output.stats.blocks_read = spill_stats.blocks_read.load();
  output.stats.reduce_input_records = reduce_in.load();
  output.stats.output_records = reduce_out.load();
  output.stats.parallel_shuffle_tasks = spill_stats.parallel_tasks.load();
  return output;
}

}  // namespace dmb::engine
