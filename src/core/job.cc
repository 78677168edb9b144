#include "core/job.h"

#include <utility>

#include "common/logging.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "io/run_file.h"
#include "mpilite/mpilite.h"
#include "shuffle/collector.h"
#include "shuffle/kv_arena.h"

namespace dmb::datampi {

namespace {

constexpr int64_t kDataTag = 1;
constexpr int64_t kEosTag = 2;

struct SharedState {
  std::atomic<int> next_o_task{0};
  std::atomic<int64_t> o_records{0};
  std::atomic<int64_t> shuffle_bytes{0};
  std::atomic<int64_t> shuffle_batches{0};
  std::atomic<int64_t> a_records{0};
  std::atomic<int64_t> a_spills{0};
  std::atomic<int64_t> a_spill_bytes_raw{0};
  std::atomic<int64_t> a_spill_bytes_on_disk{0};
  std::atomic<int64_t> a_blocks_read{0};
  std::atomic<int64_t> output_records{0};
  std::atomic<int64_t> parallel_tasks{0};
  std::atomic<int> max_wave{0};
  Mutex output_mu;
  std::vector<std::vector<KVPair>> a_outputs DMB_GUARDED_BY(output_mu);
};

/// O-side send buffer for one A rank: a single-partition collector that
/// never spills (it ships at send_buffer_bytes instead). When the job
/// combines, each batch is sorted and combined, or hash-folded as it is
/// emitted when the job declares a fold; otherwise it keeps arrival
/// order.
shuffle::CollectorOptions SendBufferOptions(const JobConfig& config) {
  shuffle::CollectorOptions options;
  options.on_budget = shuffle::BudgetAction::kUnbounded;
  options.sort_by_key = static_cast<bool>(config.combiner);
  options.combiner = config.combiner;
  options.fold = config.fold;
  options.parallel = config.parallel;
  return options;
}

/// A-side store: everything one A rank receives, memory first, spilling
/// sorted runs past the budget. With sorted grouping it folds each
/// received partial into its key's accumulator when the job declares a
/// fold, so only the distinct keys are resident and sorted.
shuffle::CollectorOptions AStoreOptions(const JobConfig& config) {
  shuffle::CollectorOptions options;
  options.memory_budget_bytes = config.a_memory_budget_bytes;
  options.on_budget = shuffle::BudgetAction::kSpill;
  options.sort_by_key = config.sort_by_key;
  if (config.sort_by_key) options.fold = config.fold;
  options.spill_io = config.spill_io;
  options.parallel = config.parallel;
  return options;
}

class OContextImpl : public OContext {
 public:
  OContextImpl(const JobConfig& config, mpi::Comm* world, SharedState* shared)
      : config_(config), world_(world), shared_(shared) {
    for (int p = 0; p < config.num_a_ranks; ++p) {
      send_buffers_.push_back(std::make_unique<shuffle::PartitionedCollector>(
          SendBufferOptions(config)));
    }
  }

  Status Emit(std::string_view key, std::string_view value) override {
    ++records_emitted_;
    if (config_.num_a_ranks == 1) {
      // Single A rank: no routing decision to batch.
      DMB_RETURN_NOT_OK(send_buffers_[0]->Add(key, value));
      return MaybeFlush(0);
    }
    // Stage and route kEmitBatchRecords at a time: one virtual
    // PartitionBatch call (tight hash + route loops) replaces a virtual
    // Partition per record, at the cost of one extra arena copy.
    staged_slices_.push_back(staging_.Add(key, value));
    if (staged_slices_.size() >= kEmitBatchRecords) return RouteStaged();
    return Status::OK();
  }

  int task_id() const override { return task_id_; }
  int num_a_ranks() const override { return config_.num_a_ranks; }

  void set_task_id(int id) { task_id_ = id; }
  void set_partitioner(const Partitioner* p) { partitioner_ = p; }

  Status FlushAll() {
    DMB_RETURN_NOT_OK(RouteStaged());
    for (int p = 0; p < config_.num_a_ranks; ++p) {
      DMB_RETURN_NOT_OK(FlushPartition(p));
    }
    return Status::OK();
  }

  /// Records emitted by every task this context ran (counted here, not
  /// in SharedState, so concurrent O ranks share no cache line per
  /// record).
  int64_t records_emitted() const { return records_emitted_; }
  /// Pool work units the send buffers' combining sorts fanned out.
  int64_t parallel_tasks() const {
    int64_t total = 0;
    for (const auto& buffer : send_buffers_) {
      total += buffer->parallel_tasks();
    }
    return total;
  }

 private:
  /// Emits staged before one batched routing pass (matches
  /// shuffle::PartitionedCollector::kRouteBatchRecords).
  static constexpr size_t kEmitBatchRecords = 256;

  /// Routes every staged record to its send buffer in one batched
  /// partitioner call, then runs the flush checks once per batch (a
  /// buffer may overshoot send_buffer_bytes by at most one staged
  /// batch, which the wire format does not care about).
  Status RouteStaged() {
    const size_t n = staged_slices_.size();
    if (n == 0) return Status::OK();
    staged_keys_.resize(n);
    staged_parts_.resize(n);
    for (size_t i = 0; i < n; ++i) {
      staged_keys_[i] = staging_.KeyOf(staged_slices_[i]);
    }
    partitioner_->PartitionBatch(staged_keys_.data(), n, config_.num_a_ranks,
                                 staged_parts_.data());
    for (size_t i = 0; i < n; ++i) {
      const shuffle::KVSlice& s = staged_slices_[i];
      auto& buffer = *send_buffers_[static_cast<size_t>(staged_parts_[i])];
      DMB_RETURN_NOT_OK(buffer.Add(staging_.KeyOf(s), staging_.ValueOf(s)));
    }
    staged_slices_.clear();
    staging_.Clear();
    for (int p = 0; p < config_.num_a_ranks; ++p) {
      DMB_RETURN_NOT_OK(MaybeFlush(p));
    }
    return Status::OK();
  }

  Status MaybeFlush(int p) {
    if (send_buffers_[static_cast<size_t>(p)]->bytes_in_memory() >=
        config_.send_buffer_bytes) {
      return FlushPartition(p);
    }
    return Status::OK();
  }

  /// Ships partition p's resident run (combined when the job combines)
  /// to its A rank.
  Status FlushPartition(int p) {
    std::string wire = send_buffers_[static_cast<size_t>(p)]->TakeEncodedRun();
    if (wire.empty()) return Status::OK();
    shared_->shuffle_bytes.fetch_add(static_cast<int64_t>(wire.size()),
                                     std::memory_order_relaxed);
    shared_->shuffle_batches.fetch_add(1, std::memory_order_relaxed);
    const int a_world_rank = config_.num_o_ranks + p;
    return world_->Send(a_world_rank, kDataTag, std::move(wire));
  }

  const JobConfig& config_;
  mpi::Comm* world_;
  SharedState* shared_;
  /// One send buffer per A rank.
  std::vector<std::unique_ptr<shuffle::PartitionedCollector>> send_buffers_;
  /// Arrival-order records awaiting one batched routing pass, plus the
  /// scratch arrays the pass reuses.
  shuffle::KVArena staging_;
  std::vector<shuffle::KVSlice> staged_slices_;
  std::vector<std::string_view> staged_keys_;
  std::vector<int> staged_parts_;
  const Partitioner* partitioner_ = nullptr;
  int task_id_ = -1;
  int64_t records_emitted_ = 0;
};

/// A-side output collector: the shared stream-aware tee behind an
/// AEmitter face (retains a_outputs and/or streams into the job's
/// output channel; a push failure is sticky in status()).
class VectorEmitter : public AEmitter {
 public:
  VectorEmitter(shuffle::BatchStreamWriter* stream, bool retain)
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

Status RunOTasks(const JobConfig& config, mpi::Comm& world,
                 SharedState* shared, const OTaskFn& o_fn,
                 const Partitioner* partitioner) {
  OContextImpl ctx(config, &world, shared);
  ctx.set_partitioner(partitioner);
  const int total_tasks =
      config.num_o_tasks > 0 ? config.num_o_tasks : config.num_o_ranks;
  int wave = 0;
  Status status;
  for (;;) {
    // Dynamic scheduling: O ranks claim logical tasks from a shared
    // counter (in-process stand-in for DataMPI's task scheduler).
    const int task = shared->next_o_task.fetch_add(1);
    if (task >= total_tasks) break;
    ctx.set_task_id(task);
    status = o_fn(&ctx);
    if (!status.ok()) break;
    ++wave;
  }
  int prev = shared->max_wave.load();
  while (wave > prev &&
         !shared->max_wave.compare_exchange_weak(prev, wave)) {
  }
  if (status.ok()) status = ctx.FlushAll();
  shared->o_records.fetch_add(ctx.records_emitted(),
                              std::memory_order_relaxed);
  shared->parallel_tasks.fetch_add(ctx.parallel_tasks(),
                                   std::memory_order_relaxed);
  // End-of-stream markers are sent even on failure so A ranks never hang
  // waiting for a dead producer.
  for (int a = 0; a < config.num_a_ranks; ++a) {
    Status send_st = world.Send(config.num_o_ranks + a, kEosTag, "");
    if (status.ok()) status = send_st;
  }
  return status;
}

Status ReduceStore(const JobConfig& config, int a_rank,
                   shuffle::PartitionedCollector* store, SharedState* shared,
                   const AGroupFn& a_fn) {
  shared->a_records.fetch_add(store->records_added(),
                              std::memory_order_relaxed);
  shared->a_spills.fetch_add(store->spill_count(), std::memory_order_relaxed);
  shared->a_spill_bytes_raw.fetch_add(store->spilled_raw_bytes(),
                                      std::memory_order_relaxed);
  shared->a_spill_bytes_on_disk.fetch_add(store->spilled_bytes(),
                                          std::memory_order_relaxed);
  DMB_ASSIGN_OR_RETURN(auto iterators, store->FinishIterators());
  shuffle::KVGroupIterator* groups = iterators[0].get();
  std::unique_ptr<shuffle::BatchStreamWriter> stream;
  if (config.output_stream != nullptr) {
    stream = std::make_unique<shuffle::BatchStreamWriter>(
        config.output_stream.get(), a_rank);
  }
  VectorEmitter emitter(stream.get(), !config.stream_output_only);
  std::string key;
  std::vector<std::string> values;
  while (groups->NextGroup(&key, &values)) {
    DMB_RETURN_NOT_OK(a_fn(key, values, &emitter));
    DMB_RETURN_NOT_OK(emitter.status());
  }
  DMB_RETURN_NOT_OK(groups->status());
  if (stream != nullptr) {
    DMB_RETURN_NOT_OK(stream->Finish());
  }
  shared->a_blocks_read.fetch_add(groups->blocks_read(),
                                  std::memory_order_relaxed);
  // After the group sweep: Finish()-time parallel sorts are counted too.
  shared->parallel_tasks.fetch_add(store->parallel_tasks(),
                                   std::memory_order_relaxed);
  shared->output_records.fetch_add(emitter.records(),
                                   std::memory_order_relaxed);
  MutexLock lock(shared->output_mu);
  shared->a_outputs[static_cast<size_t>(a_rank)] = emitter.Take();
  return Status::OK();
}

std::string CheckpointPath(const JobConfig& config, int a_rank) {
  return config.checkpoint_dir + "/a-" + std::to_string(a_rank) + ".ckpt";
}

Status RunATask(const JobConfig& config, mpi::Comm& world, int a_rank,
                SharedState* shared, const AGroupFn& a_fn) {
  shuffle::PartitionedCollector store(AStoreOptions(config));
  // Checkpoints stream through the io block format (checksummed,
  // optionally compressed blocks of EncodeKV records), so a restart can
  // detect any corruption instead of replaying damaged shuffle data.
  std::unique_ptr<io::SpillFileWriter> ckpt;
  if (!config.checkpoint_dir.empty()) {
    ckpt = std::make_unique<io::SpillFileWriter>(
        CheckpointPath(config, a_rank), config.spill_io);
  }
  int eos_seen = 0;
  while (eos_seen < config.num_o_ranks) {
    DMB_ASSIGN_OR_RETURN(mpi::Message msg, world.Recv());
    if (msg.tag == kEosTag) {
      ++eos_seen;
      continue;
    }
    DMB_CHECK(msg.tag == kDataTag);
    if (ckpt != nullptr) {
      // One decode feeds both sinks (no batch re-parse in the store).
      KVBatchReader reader(msg.payload);
      std::string_view key, value;
      while (reader.Next(&key, &value)) {
        DMB_RETURN_NOT_OK(ckpt->Add(key, value));
        DMB_RETURN_NOT_OK(store.Add(key, value));
      }
      DMB_RETURN_NOT_OK(reader.status());
    } else {
      DMB_RETURN_NOT_OK(store.AddBatch(msg.payload));
    }
  }
  if (ckpt != nullptr) {
    DMB_RETURN_NOT_OK(ckpt->Finish());
  }
  return ReduceStore(config, a_rank, &store, shared, a_fn);
}

}  // namespace

std::vector<KVPair> JobResult::Merged() const {
  std::vector<KVPair> all;
  for (const auto& part : a_outputs) {
    all.insert(all.end(), part.begin(), part.end());
  }
  return all;
}

DataMPIJob::DataMPIJob(JobConfig config) : config_(std::move(config)) {
  DMB_CHECK(config_.num_o_ranks >= 1);
  DMB_CHECK(config_.num_a_ranks >= 1);
  DMB_CHECK(!config_.fold || config_.combiner);
  if (!config_.partitioner) {
    config_.partitioner = std::make_shared<HashPartitioner>();
  }
}

Result<JobResult> DataMPIJob::Run(OTaskFn o_fn, AGroupFn a_fn) {
  SharedState shared;
  {
    MutexLock lock(shared.output_mu);
    shared.a_outputs.resize(static_cast<size_t>(config_.num_a_ranks));
  }
  const int world_size = config_.num_o_ranks + config_.num_a_ranks;
  mpi::World world(world_size);
  const JobConfig& config = config_;
  Status run_status = world.Run([&](mpi::Comm& comm) -> Status {
    // Dichotomic: split the world into the bipartite O / A communicators.
    const bool is_o = comm.rank() < config.num_o_ranks;
    mpi::Comm group = comm.Split(is_o ? 0 : 1, comm.rank());
    Status st;
    if (is_o) {
      st = RunOTasks(config, comm, &shared, o_fn, config.partitioner.get());
    } else {
      st = RunATask(config, comm, comm.rank() - config.num_o_ranks, &shared,
                    a_fn);
    }
    if (!st.ok() && config.output_stream != nullptr) {
      // A failing task must unblock sibling A tasks that may be parked
      // on the output stream's backpressure window, or the job (and its
      // downstream consumer) would never terminate. The error travels
      // verbatim: siblings fail their next Push with it.
      config.output_stream->Cancel(st);
    }
    // Intra-group barrier: all tasks of a communicator finish together
    // (mirrors DataMPI's synchronized phase completion).
    if (group.valid()) group.Barrier();
    return st;
  });
  DMB_RETURN_NOT_OK(run_status);

  JobResult result;
  {
    // The ranks are joined (world.Run returned); the lock only keeps
    // the access discipline checkable.
    MutexLock lock(shared.output_mu);
    result.a_outputs = std::move(shared.a_outputs);
  }
  result.stats.o_records_emitted = shared.o_records.load();
  result.stats.shuffle_bytes = shared.shuffle_bytes.load();
  result.stats.shuffle_batches = shared.shuffle_batches.load();
  result.stats.a_records_received = shared.a_records.load();
  result.stats.a_spill_count = shared.a_spills.load();
  result.stats.a_spill_bytes_raw = shared.a_spill_bytes_raw.load();
  result.stats.a_spill_bytes_on_disk = shared.a_spill_bytes_on_disk.load();
  result.stats.a_blocks_read = shared.a_blocks_read.load();
  result.stats.output_records = shared.output_records.load();
  result.stats.parallel_shuffle_tasks = shared.parallel_tasks.load();
  result.stats.o_waves = shared.max_wave.load();
  return result;
}

Result<JobResult> DataMPIJob::RunFromCheckpoint(AGroupFn a_fn) {
  if (config_.checkpoint_dir.empty()) {
    return Status::FailedPrecondition("no checkpoint_dir configured");
  }
  SharedState shared;
  {
    MutexLock lock(shared.output_mu);
    shared.a_outputs.resize(static_cast<size_t>(config_.num_a_ranks));
  }
  const JobConfig& config = config_;
  mpi::World world(config_.num_a_ranks);
  Status run_status = world.Run([&](mpi::Comm& comm) -> Status {
    const int a_rank = comm.rank();
    // Open validates the container (magic, footer checksum); every block
    // read below is CRC-verified, so a damaged checkpoint surfaces as
    // Corruption instead of silently feeding the restarted A phase.
    DMB_ASSIGN_OR_RETURN(
        std::unique_ptr<io::StreamingRunReader> reader,
        io::StreamingRunReader::Open(CheckpointPath(config, a_rank)));
    shuffle::PartitionedCollector store(AStoreOptions(config));
    std::string_view key, value;
    while (reader->Next(&key, &value)) {
      DMB_RETURN_NOT_OK(store.Add(key, value));
    }
    DMB_RETURN_NOT_OK(reader->status());
    return ReduceStore(config, a_rank, &store, &shared, a_fn);
  });
  DMB_RETURN_NOT_OK(run_status);

  JobResult result;
  {
    // The ranks are joined (world.Run returned); the lock only keeps
    // the access discipline checkable.
    MutexLock lock(shared.output_mu);
    result.a_outputs = std::move(shared.a_outputs);
  }
  result.stats.a_records_received = shared.a_records.load();
  result.stats.a_spill_count = shared.a_spills.load();
  result.stats.a_spill_bytes_raw = shared.a_spill_bytes_raw.load();
  result.stats.a_spill_bytes_on_disk = shared.a_spill_bytes_on_disk.load();
  result.stats.a_blocks_read = shared.a_blocks_read.load();
  result.stats.output_records = shared.output_records.load();
  result.stats.parallel_shuffle_tasks = shared.parallel_tasks.load();
  return result;
}

}  // namespace dmb::datampi
