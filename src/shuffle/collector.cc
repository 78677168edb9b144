#include "shuffle/collector.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/byte_buffer.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/units.h"
#include "core/kv.h"
#include "io/run_file.h"

namespace dmb::shuffle {

PartitionedCollector::PartitionedCollector(CollectorOptions options)
    : options_(std::move(options)),
      arena_(std::make_shared<KVArena>()),
      partitions_(static_cast<size_t>(options_.num_partitions)),
      spill_files_(static_cast<size_t>(options_.num_partitions)) {
  DMB_CHECK(options_.num_partitions >= 1);
  DMB_CHECK(options_.partitioner != nullptr || options_.num_partitions == 1);
  DMB_CHECK(!hash_mode() || options_.sort_by_key);
  // One knob arms the whole intra-task pipeline: spill writers overlap
  // block encoding on the same context unless the caller tuned them
  // separately.
  if (options_.parallel != nullptr && options_.spill_io.parallel == nullptr) {
    options_.spill_io.parallel = options_.parallel;
  }
}

PartitionedCollector::~PartitionedCollector() = default;

const TempDir* PartitionedCollector::dir() {
  if (options_.spill_dir != nullptr) return options_.spill_dir;
  if (!owned_dir_) owned_dir_ = std::make_unique<TempDir>("dmb-shuffle");
  return owned_dir_.get();
}

int64_t PartitionedCollector::bytes_in_memory() const {
  return arena_->bytes() + records_in_memory_ * kRecordOverheadBytes +
         static_cast<int64_t>(table_.capacity() * sizeof(TableSlot));
}

namespace {

/// Table size of a collector's first hash-mode Add (grows by doubling);
/// small, because the table counts against the budget and restarts at
/// this size after every drain.
constexpr size_t kInitialTableSlots = 64;

/// The 8 value bytes of a hash-mode record: its binary int64
/// accumulator.
int64_t LoadWord(const char* p) {
  int64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
void StoreWord(char* p, int64_t v) { std::memcpy(p, &v, sizeof(v)); }

}  // namespace

void PartitionedCollector::GrowTable() {
  std::vector<TableSlot> old = std::move(table_);
  table_.assign(old.size() * 2, TableSlot{});
  const size_t mask = table_.size() - 1;
  for (const TableSlot& slot : old) {
    if (slot.key_len == kEmptySlot) continue;
    size_t i = slot.tag & mask;
    while (table_[i].key_len != kEmptySlot) i = (i + 1) & mask;
    table_[i] = slot;
  }
}

void PartitionedCollector::ClearTable() {
  std::vector<TableSlot>().swap(table_);
  table_used_ = 0;
}

Status PartitionedCollector::FoldAdd(std::string_view key,
                                     std::string_view value) {
  if (table_.empty()) table_.assign(kInitialTableSlots, TableSlot{});
  const uint32_t tag = static_cast<uint32_t>(Hash64(key) >> 32);
  const size_t mask = table_.size() - 1;
  size_t i = tag & mask;
  for (; table_[i].key_len != kEmptySlot; i = (i + 1) & mask) {
    const TableSlot& slot = table_[i];
    if (slot.tag != tag || slot.key_len != key.size() ||
        arena_->Bytes(slot.key_off, key.size()) != key) {
      continue;
    }
    char* word = arena_->MutableBytes(slot.key_off + slot.key_len);
    int64_t acc = LoadWord(word);
    DMB_RETURN_NOT_OK(AddInt64(key, value, &acc));
    StoreWord(word, acc);
    return Status::OK();
  }
  // A new key: its first value is its accumulator.
  int64_t word = 0;
  DMB_RETURN_NOT_OK(ParseInt64(key, value, &word));
  char word_bytes[sizeof(word)];
  StoreWord(word_bytes, word);
  const KVSlice slice =
      arena_->Add(key, std::string_view(word_bytes, sizeof(word_bytes)));
  const int part = options_.num_partitions == 1
                       ? 0
                       : options_.partitioner->Partition(
                             key, options_.num_partitions);
  partitions_[static_cast<size_t>(part)].push_back(slice);
  table_[i] = TableSlot{slice.key_off, slice.key_len, tag};
  ++records_in_memory_;
  if (++table_used_ * 2 > table_.size()) GrowTable();
  return Status::OK();
}

void PartitionedCollector::RouteStaged() {
  const size_t n = staged_.size();
  if (n == 0) return;
  staged_keys_.resize(n);
  staged_parts_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    staged_keys_[i] = arena_->KeyOf(staged_[i]);
  }
  options_.partitioner->PartitionBatch(staged_keys_.data(), n,
                                       options_.num_partitions,
                                       staged_parts_.data());
  for (size_t i = 0; i < n; ++i) {
    partitions_[static_cast<size_t>(staged_parts_[i])].push_back(staged_[i]);
  }
  staged_.clear();
}

Status PartitionedCollector::Add(std::string_view key,
                                 std::string_view value) {
  if (finished_) {
    return Status::FailedPrecondition("Add after Finish");
  }
  if (hash_mode()) {
    DMB_RETURN_NOT_OK(FoldAdd(key, value));
  } else if (options_.num_partitions == 1) {
    partitions_[0].push_back(arena_->Add(key, value));
    ++records_in_memory_;
  } else {
    staged_.push_back(arena_->Add(key, value));
    ++records_in_memory_;
    if (staged_.size() >= kRouteBatchRecords) RouteStaged();
  }
  ++records_added_;
  bytes_added_ += static_cast<int64_t>(key.size() + value.size());
  encoded_input_bytes_ += EncodedKVSize(key.size(), value.size());
  if (bytes_in_memory() > options_.memory_budget_bytes) {
    switch (options_.on_budget) {
      case BudgetAction::kSpill:
        if (spilling_enabled()) return SpillAll();
        break;
      case BudgetAction::kFail:
        return Status::OutOfMemory(
            "shuffle collector over budget: " +
            FormatBytes(bytes_in_memory()) + " resident > " +
            FormatBytes(options_.memory_budget_bytes) + " budget");
      case BudgetAction::kUnbounded:
        break;
    }
  }
  return Status::OK();
}

Status PartitionedCollector::AddBatch(std::string_view batch) {
  datampi::KVBatchReader reader(batch);
  std::string_view k, v;
  while (reader.Next(&k, &v)) {
    DMB_RETURN_NOT_OK(Add(k, v));
  }
  return reader.status();
}

Status PartitionedCollector::AddBatch(
    const std::pair<std::string, std::string>* records, size_t n) {
  // Add() stages multi-partition records, so the whole batch routes
  // through PartitionBatch in kRouteBatchRecords chunks.
  for (size_t i = 0; i < n; ++i) {
    DMB_RETURN_NOT_OK(Add(records[i].first, records[i].second));
  }
  return Status::OK();
}

void PartitionedCollector::SortSlices(std::vector<KVSlice>* slices) {
  int64_t spawned = 0;
  arena_->Sort(slices, options_.parallel, &spawned);
  if (spawned != 0) {
    parallel_tasks_.fetch_add(spawned, std::memory_order_relaxed);
  }
}

std::vector<KVSlice> PartitionedCollector::CombineResident(size_t p,
                                                           KVArena* out) {
  auto& slices = partitions_[p];
  std::vector<KVSlice> combined;
  if (slices.empty()) return combined;
  SortSlices(&slices);
  combined.reserve(slices.size());
  if (hash_mode()) {
    // The keys are distinct, so the sort ordered them by key alone.
    for (const KVSlice& s : slices) {
      combined.push_back(out->Add(
          arena_->KeyOf(s), FormatInt64(LoadWord(arena_->ValueOf(s).data()))));
    }
    return combined;
  }
  std::vector<std::string> values;
  size_t i = 0;
  while (i < slices.size()) {
    const std::string_view key = arena_->KeyOf(slices[i]);
    values.clear();
    while (i < slices.size() && arena_->KeyOf(slices[i]) == key) {
      values.emplace_back(arena_->ValueOf(slices[i]));
      ++i;
    }
    combined.push_back(out->Add(key, options_.combiner(key, values)));
  }
  return combined;
}

Status PartitionedCollector::ForEachResident(
    size_t p, const std::function<Status(std::string_view key,
                                         std::string_view value)>& sink) {
  auto& slices = partitions_[p];
  if (combining()) {
    KVArena combined;
    for (const KVSlice& s : CombineResident(p, &combined)) {
      DMB_RETURN_NOT_OK(sink(combined.KeyOf(s), combined.ValueOf(s)));
    }
  } else {
    // Unsorted collectors emit in arrival order without grouping
    // (only reachable through FinishRuns and TakeEncodedRun; combiners
    // require sorting).
    if (options_.sort_by_key) SortSlices(&slices);
    for (const KVSlice& s : slices) {
      DMB_RETURN_NOT_OK(sink(arena_->KeyOf(s), arena_->ValueOf(s)));
    }
  }
  return Status::OK();
}

std::string PartitionedCollector::EncodeResident(size_t p) {
  if (partitions_[p].empty()) return {};
  ByteBuffer wire;
  const Status st =
      ForEachResident(p, [&wire](std::string_view key, std::string_view value) {
        datampi::EncodeKV(&wire, key, value);
        return Status::OK();
      });
  DMB_CHECK(st.ok());  // the encoding sink cannot fail
  encoded_output_bytes_ += static_cast<int64_t>(wire.size());
  return std::string(wire.view());
}

std::string PartitionedCollector::NextRunPath() {
  return dir()->File(options_.file_prefix + "run-" +
                     std::to_string(spill_count_++) + ".kv");
}

Status PartitionedCollector::WriteRunFileTo(size_t p, const std::string& path,
                                            int64_t* raw_bytes,
                                            int64_t* file_bytes,
                                            int64_t* overlapped_blocks) {
  io::SpillFileWriter writer(path, options_.spill_io);
  DMB_RETURN_NOT_OK(ForEachResident(
      p, [&writer](std::string_view key, std::string_view value) {
        return writer.Add(key, value);
      }));
  DMB_RETURN_NOT_OK(writer.Finish());
  *raw_bytes = writer.raw_bytes();
  *file_bytes = writer.file_bytes();
  *overlapped_blocks = writer.overlapped_blocks();
  return Status::OK();
}

Result<std::string> PartitionedCollector::WriteRunFile(size_t p) {
  if (partitions_[p].empty()) return std::string();
  const std::string path = NextRunPath();
  int64_t raw_bytes = 0;
  int64_t file_bytes = 0;
  int64_t overlapped_blocks = 0;
  DMB_RETURN_NOT_OK(
      WriteRunFileTo(p, path, &raw_bytes, &file_bytes, &overlapped_blocks));
  spilled_raw_bytes_ += raw_bytes;
  spilled_bytes_ += file_bytes;
  encoded_output_bytes_ += raw_bytes;
  parallel_tasks_.fetch_add(overlapped_blocks, std::memory_order_relaxed);
  return path;
}

Status PartitionedCollector::WriteAllRunFiles(std::vector<std::string>* paths) {
  paths->assign(partitions_.size(), std::string());
  size_t non_empty = 0;
  for (const auto& slices : partitions_) {
    if (!slices.empty()) ++non_empty;
  }
  ParallelContext* ctx = options_.parallel;
  if (ctx == nullptr || !ctx->enabled() || non_empty <= 1) {
    for (size_t p = 0; p < partitions_.size(); ++p) {
      DMB_ASSIGN_OR_RETURN((*paths)[p], WriteRunFile(p));
    }
    return Status::OK();
  }
  // Mint run-file names serially in partition order — exactly the names
  // the serial loop would produce — then write the partitions
  // concurrently. Each task touches only its own partition's slices and
  // its own writer; shared counters fold afterwards in partition order,
  // so every stat and every file byte matches the serial path.
  struct SpillResult {
    int64_t raw_bytes = 0;
    int64_t file_bytes = 0;
    int64_t overlapped_blocks = 0;
    Status status;
  };
  std::vector<SpillResult> results(partitions_.size());
  for (size_t p = 0; p < partitions_.size(); ++p) {
    if (!partitions_[p].empty()) (*paths)[p] = NextRunPath();
  }
  {
    TaskGroup group(ctx);
    for (size_t p = 0; p < partitions_.size(); ++p) {
      if ((*paths)[p].empty()) continue;
      SpillResult* result = &results[p];
      const std::string* path = &(*paths)[p];
      group.Run([this, p, path, result] {
        result->status =
            WriteRunFileTo(p, *path, &result->raw_bytes, &result->file_bytes,
                           &result->overlapped_blocks);
      });
    }
    group.Wait();
    parallel_tasks_.fetch_add(group.spawned(), std::memory_order_relaxed);
  }
  for (size_t p = 0; p < partitions_.size(); ++p) {
    if ((*paths)[p].empty()) continue;
    DMB_RETURN_NOT_OK(results[p].status);
    spilled_raw_bytes_ += results[p].raw_bytes;
    spilled_bytes_ += results[p].file_bytes;
    encoded_output_bytes_ += results[p].raw_bytes;
    parallel_tasks_.fetch_add(results[p].overlapped_blocks,
                              std::memory_order_relaxed);
  }
  return Status::OK();
}

Status PartitionedCollector::SpillAll() {
  if (records_in_memory_ == 0) return Status::OK();
  RouteStaged();
  std::vector<std::string> paths;
  DMB_RETURN_NOT_OK(WriteAllRunFiles(&paths));
  for (size_t p = 0; p < partitions_.size(); ++p) {
    if (!paths[p].empty()) spill_files_[p].push_back(std::move(paths[p]));
  }
  ClearResident();
  return Status::OK();
}

void PartitionedCollector::ClearResident() {
  for (auto& slices : partitions_) slices.clear();
  records_in_memory_ = 0;
  arena_->Clear();
  ClearTable();
}

std::string PartitionedCollector::TakeEncodedRun() {
  DMB_CHECK(options_.num_partitions == 1 && !finished_);
  std::string run = EncodeResident(0);
  ClearResident();
  return run;
}

Result<std::vector<std::unique_ptr<KVGroupIterator>>>
PartitionedCollector::FinishIterators() {
  if (finished_) {
    return Status::FailedPrecondition("Finish called twice");
  }
  finished_ = true;
  RouteStaged();
  const bool combine = combining();
  // Sort/combine every partition's resident slices first — the
  // CPU-heavy part of sealing, fanned out across partitions when a
  // context is available. Combine mode gets a per-partition output
  // arena so concurrent tasks never share one; the combined slices are
  // parked back in partitions_[p] for the (serial, in-order) merger
  // assembly below.
  std::vector<std::shared_ptr<KVArena>> combined_arenas;
  if (options_.sort_by_key) {
    if (combine) combined_arenas.resize(partitions_.size());
    TaskGroup group(options_.parallel);
    for (size_t p = 0; p < partitions_.size(); ++p) {
      if (partitions_[p].empty()) continue;
      group.Run([this, p, combine, &combined_arenas] {
        if (combine) {
          // Combine the resident data exactly as a spill would have (so
          // the merged stream is independent of whether a spill
          // happened), but into a fresh arena run — no encode/decode
          // round trip.
          auto out = std::make_shared<KVArena>();
          partitions_[p] = CombineResident(p, out.get());
          combined_arenas[p] = std::move(out);
        } else {
          SortSlices(&partitions_[p]);
        }
      });
    }
    group.Wait();
    parallel_tasks_.fetch_add(group.spawned(), std::memory_order_relaxed);
  }
  std::vector<std::unique_ptr<KVGroupIterator>> iterators;
  iterators.reserve(partitions_.size());
  for (size_t p = 0; p < partitions_.size(); ++p) {
    if (!options_.sort_by_key) {
      DMB_CHECK(spill_files_[p].empty());
      iterators.push_back(
          RunMerger::Fifo(arena_, std::move(partitions_[p])));
      continue;
    }
    RunMerger merger;
    merger.SetParallel(options_.parallel);
    if (combine) {
      if (combined_arenas[p] != nullptr) {
        merger.AddArenaRun(combined_arenas[p], std::move(partitions_[p]));
      }
    } else {
      merger.AddArenaRun(arena_, std::move(partitions_[p]));
    }
    for (const auto& path : spill_files_[p]) {
      DMB_RETURN_NOT_OK(merger.AddFileRun(path));
    }
    iterators.push_back(merger.Merge());
  }
  // Once every partition is combined the pre-combine bytes are dead;
  // nothing above shares arena_ in that mode.
  if (combine) {
    arena_->Clear();
    ClearTable();
  }
  return iterators;
}

Result<std::vector<PartitionedCollector::PartitionRuns>>
PartitionedCollector::FinishRuns(bool to_disk) {
  if (finished_) {
    return Status::FailedPrecondition("Finish called twice");
  }
  finished_ = true;
  RouteStaged();
  std::vector<PartitionRuns> runs(partitions_.size());
  if (to_disk) {
    std::vector<std::string> paths;
    DMB_RETURN_NOT_OK(WriteAllRunFiles(&paths));
    for (size_t p = 0; p < partitions_.size(); ++p) {
      runs[p].run_files = std::move(spill_files_[p]);
      if (!paths[p].empty()) {
        runs[p].run_files.push_back(std::move(paths[p]));
      }
    }
  } else {
    for (size_t p = 0; p < partitions_.size(); ++p) {
      runs[p].run_files = std::move(spill_files_[p]);
      std::string encoded = EncodeResident(p);
      if (!encoded.empty()) runs[p].encoded_runs.push_back(std::move(encoded));
    }
  }
  return runs;
}

}  // namespace dmb::shuffle
