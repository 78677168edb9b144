#include "io/block_file.h"

#include <algorithm>
#include <limits>
#include <thread>
#include <utility>

#include "common/byte_buffer.h"
#include "common/parallel.h"
#include "io/crc32.h"

namespace dmb::io {

namespace {

Status WriteAll(std::ofstream* out, const void* data, size_t n,
                const std::string& path) {
  out->write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
  if (!out->good()) {
    return Status::IOError("write failed: " + path);
  }
  return Status::OK();
}

Status ReadAll(std::ifstream* in, int64_t offset, char* data, size_t n,
               const std::string& path) {
  in->clear();
  in->seekg(offset);
  in->read(data, static_cast<std::streamsize>(n));
  if (in->gcount() != static_cast<std::streamsize>(n)) {
    return Status::Corruption("short read at offset " +
                              std::to_string(offset) + ": " + path);
  }
  return Status::OK();
}

}  // namespace

// ---- BlockWriter -----------------------------------------------------

BlockWriter::BlockWriter(const std::string& path, BlockFileOptions options)
    : path_(path), options_(options) {
  // Block lengths are stored as u32 in the header; clamp the target well
  // below that so a misconfigured block size can't write headers whose
  // lengths truncate (1 GiB blocks already defeat the streaming point).
  options_.block_bytes =
      std::clamp<int64_t>(options_.block_bytes, 1, int64_t{1} << 30);
  out_.open(path_, std::ios::binary | std::ios::trunc);
  if (!out_.is_open()) {
    status_ = Status::IOError("cannot create block file: " + path_);
  }
}

BlockWriter::~BlockWriter() { AbandonJobs(); }

bool BlockWriter::overlapped() const {
  return options_.parallel != nullptr && options_.parallel->enabled();
}

std::unique_ptr<Compressor> BlockWriter::TakeCompressor() {
  MutexLock lock(compressors_mu_);
  if (free_compressors_.empty()) return std::make_unique<Compressor>();
  std::unique_ptr<Compressor> compressor =
      std::move(free_compressors_.back());
  free_compressors_.pop_back();
  return compressor;
}

void BlockWriter::ReturnCompressor(std::unique_ptr<Compressor> compressor) {
  MutexLock lock(compressors_mu_);
  free_compressors_.push_back(std::move(compressor));
}

Status BlockWriter::AppendRecord(std::string_view record) {
  DMB_RETURN_NOT_OK(status_);
  if (finished_) {
    return Status::FailedPrecondition("AppendRecord after Finish");
  }
  if (record.empty()) {
    // The block payload has no per-record framing (records carry their
    // own, e.g. EncodeKV), so a zero-length record is unrepresentable:
    // it would inflate record_count past what the payload encodes.
    return Status::InvalidArgument("zero-length records are not supported");
  }
  if (record.size() > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("record larger than 4 GiB");
  }
  // A block never splits a record: cut before appending would overflow
  // the target, so raw_len <= max(block_bytes, this record's size).
  if (!pending_.empty() &&
      static_cast<int64_t>(pending_.size() + record.size()) >
          options_.block_bytes) {
    DMB_RETURN_NOT_OK(FlushBlock());
  }
  pending_.append(record);
  ++pending_records_;
  ++stats_.records;
  stats_.raw_bytes += static_cast<int64_t>(record.size());
  if (static_cast<int64_t>(pending_.size()) >= options_.block_bytes) {
    DMB_RETURN_NOT_OK(FlushBlock());
  }
  return Status::OK();
}

Status BlockWriter::FlushBlock() {
  if (pending_.empty()) return Status::OK();
  if (overlapped()) return SubmitBlockJob();
  return WritePendingBlock();
}

Status BlockWriter::WritePendingBlock() {
  Codec codec = options_.codec;
  if (codec != Codec::kNone) {
    compressor_.Compress(codec, pending_, &scratch_);
    // Incompressible block: store raw, marked kNone in its header.
    if (scratch_.size() >= pending_.size()) codec = Codec::kNone;
  }
  const std::string& stored = codec == Codec::kNone ? pending_ : scratch_;

  ByteBuffer header;
  header.AppendU32(static_cast<uint32_t>(pending_records_));
  header.AppendU32(static_cast<uint32_t>(pending_.size()));
  header.AppendU32(static_cast<uint32_t>(stored.size()));
  header.AppendByte(static_cast<uint8_t>(codec));
  header.AppendU32(Crc32(stored));
  Status st = WriteAll(&out_, header.data(), header.size(), path_);
  if (st.ok()) st = WriteAll(&out_, stored.data(), stored.size(), path_);
  if (!st.ok()) {
    status_ = st;
    return status_;
  }

  IndexEntry entry;
  entry.offset = offset_;
  entry.stored_len = static_cast<int64_t>(stored.size());
  entry.raw_len = static_cast<int64_t>(pending_.size());
  entry.record_count = pending_records_;
  entry.codec = codec;
  index_.push_back(entry);
  offset_ += kBlockHeaderBytes + entry.stored_len;
  ++stats_.blocks;
  pending_.clear();
  pending_records_ = 0;
  return Status::OK();
}

// ---- Overlapped pipeline ---------------------------------------------
//
// The calling thread seals pending_ into sequence-ordered BlockJobs and
// keeps appending; pool workers compress + checksum each job; the
// calling thread writes completed jobs strictly in submission order.
// Same blocks, same per-block codec decision, same order — the file
// bytes are identical to the serial path for any thread count.
//
// Budget: each in-flight job holds one shared inflight-block slot. A
// writer at its cap (or finding the budget empty) retires its own front
// job first, and with no job of its own in flight it seals the block on
// the calling thread. It never parks on the shared budget: a writer
// parked there may be running inline (help-while-wait) on the stack of
// the very writer whose slots it waits for, which deadlocked concurrent
// partition spills. Writing its own completed jobs and waiting for its
// own compress tasks (which never block) is all a writer ever waits on.

Status BlockWriter::SubmitBlockJob() {
  ParallelContext* ctx = options_.parallel;
  const size_t cap = static_cast<size_t>(options_.max_inflight_blocks > 0
                                             ? options_.max_inflight_blocks
                                             : ctx->max_inflight_blocks());
  DMB_RETURN_NOT_OK(DrainJobs(/*all=*/false));
  while (jobs_.size() >= cap || !ctx->TryAcquireBlockSlot()) {
    // Nothing of ours in flight, so writing inline keeps block order.
    if (jobs_.empty()) return WritePendingBlock();
    WaitJobDone(jobs_.front().get());
    DMB_RETURN_NOT_OK(DrainJobs(/*all=*/false));
  }

  auto job = std::make_unique<BlockJob>();
  job->raw = std::move(pending_);
  job->records = pending_records_;
  pending_.clear();
  pending_records_ = 0;
  BlockJob* j = job.get();
  jobs_.push_back(std::move(job));
  const Codec want = options_.codec;
  auto compress = [this, j, want] {
    Codec codec = want;
    if (codec != Codec::kNone) {
      std::unique_ptr<Compressor> compressor = TakeCompressor();
      compressor->Compress(codec, j->raw, &j->compressed);
      // Incompressible block: store raw, marked kNone in its header.
      if (j->compressed.size() >= j->raw.size()) codec = Codec::kNone;
      ReturnCompressor(std::move(compressor));
    }
    j->codec = codec;
    j->crc = Crc32(j->stored());
    j->done.store(true, std::memory_order_release);
  };
  j->on_pool = ctx->pool()->Submit(compress);
  if (j->on_pool) {
    ctx->CountSpawnedTask();
  } else {
    compress();  // pool shutting down: seal the block inline
  }
  return Status::OK();
}

void BlockWriter::WaitJobDone(BlockJob* job) {
  ParallelContext* ctx = options_.parallel;
  while (!job->done.load(std::memory_order_acquire)) {
    // A false RunUntil (pool shut down, nothing queued or running)
    // with done still unset can only be a transient race with the
    // closure's final store — poll until it lands.
    if (!ctx->pool()->RunUntil([job] {
          return job->done.load(std::memory_order_acquire);
        })) {
      std::this_thread::yield();
    }
  }
}

Status BlockWriter::DrainJobs(bool all) {
  ParallelContext* ctx = options_.parallel;
  while (!jobs_.empty()) {
    BlockJob* front = jobs_.front().get();
    if (!front->done.load(std::memory_order_acquire)) {
      if (!all) return Status::OK();
      WaitJobDone(front);
    }
    std::unique_ptr<BlockJob> job = std::move(jobs_.front());
    jobs_.pop_front();
    const Status st = WriteJob(job.get());
    ctx->ReleaseBlockSlot();
    if (!st.ok()) {
      status_ = st;
      AbandonJobs();
      return status_;
    }
  }
  return Status::OK();
}

Status BlockWriter::WriteJob(BlockJob* job) {
  const std::string& stored = job->stored();
  ByteBuffer header;
  header.AppendU32(static_cast<uint32_t>(job->records));
  header.AppendU32(static_cast<uint32_t>(job->raw.size()));
  header.AppendU32(static_cast<uint32_t>(stored.size()));
  header.AppendByte(static_cast<uint8_t>(job->codec));
  header.AppendU32(job->crc);
  Status st = WriteAll(&out_, header.data(), header.size(), path_);
  if (st.ok()) st = WriteAll(&out_, stored.data(), stored.size(), path_);
  DMB_RETURN_NOT_OK(st);

  IndexEntry entry;
  entry.offset = offset_;
  entry.stored_len = static_cast<int64_t>(stored.size());
  entry.raw_len = static_cast<int64_t>(job->raw.size());
  entry.record_count = job->records;
  entry.codec = job->codec;
  index_.push_back(entry);
  offset_ += kBlockHeaderBytes + entry.stored_len;
  ++stats_.blocks;
  if (job->on_pool) ++stats_.overlapped_blocks;
  return Status::OK();
}

void BlockWriter::AbandonJobs() {
  if (jobs_.empty()) return;
  ParallelContext* ctx = options_.parallel;
  while (!jobs_.empty()) {
    WaitJobDone(jobs_.front().get());
    jobs_.pop_front();
    ctx->ReleaseBlockSlot();
  }
}

Status BlockWriter::Finish() {
  DMB_RETURN_NOT_OK(status_);
  if (finished_) {
    return Status::FailedPrecondition("Finish called twice");
  }
  DMB_RETURN_NOT_OK(FlushBlock());
  if (overlapped()) DMB_RETURN_NOT_OK(DrainJobs(/*all=*/true));
  finished_ = true;

  ByteBuffer footer;
  footer.AppendByte(kBlockFileVersion);
  footer.AppendByte(static_cast<uint8_t>(options_.codec));
  footer.AppendVarint(index_.size());
  for (const IndexEntry& e : index_) {
    footer.AppendVarint(static_cast<uint64_t>(e.offset));
    footer.AppendVarint(static_cast<uint64_t>(e.stored_len));
    footer.AppendVarint(static_cast<uint64_t>(e.raw_len));
    footer.AppendVarint(static_cast<uint64_t>(e.record_count));
    footer.AppendByte(static_cast<uint8_t>(e.codec));
  }
  ByteBuffer trailer;
  trailer.AppendU32(static_cast<uint32_t>(footer.size()));
  trailer.AppendU32(Crc32(footer.view()));
  trailer.AppendU64(kBlockFileMagic);

  DMB_RETURN_NOT_OK(WriteAll(&out_, footer.data(), footer.size(), path_));
  DMB_RETURN_NOT_OK(WriteAll(&out_, trailer.data(), trailer.size(), path_));
  out_.flush();
  if (!out_.good()) {
    return Status::IOError("flush failed: " + path_);
  }
  out_.close();
  stats_.file_bytes = offset_ + static_cast<int64_t>(footer.size()) +
                      static_cast<int64_t>(trailer.size());
  return Status::OK();
}

// ---- BlockReader -----------------------------------------------------

Result<BlockReader> BlockReader::Open(const std::string& path) {
  BlockReader reader;
  reader.path_ = path;
  reader.in_.open(path, std::ios::binary);
  if (!reader.in_.is_open()) {
    return Status::IOError("cannot open block file: " + path);
  }
  reader.in_.seekg(0, std::ios::end);
  const int64_t file_size = static_cast<int64_t>(reader.in_.tellg());
  if (file_size < kBlockFileTrailerBytes) {
    return Status::Corruption("not a block file (too short): " + path);
  }

  char trailer_bytes[kBlockFileTrailerBytes];
  DMB_RETURN_NOT_OK(ReadAll(&reader.in_, file_size - kBlockFileTrailerBytes,
                            trailer_bytes, sizeof(trailer_bytes), path));
  ByteReader trailer(trailer_bytes, sizeof(trailer_bytes));
  uint32_t footer_len = 0, footer_crc = 0;
  uint64_t magic = 0;
  DMB_RETURN_NOT_OK(trailer.ReadU32(&footer_len));
  DMB_RETURN_NOT_OK(trailer.ReadU32(&footer_crc));
  DMB_RETURN_NOT_OK(trailer.ReadU64(&magic));
  if (magic != kBlockFileMagic) {
    return Status::Corruption("bad magic (not a block file): " + path);
  }
  const int64_t data_end =
      file_size - kBlockFileTrailerBytes - static_cast<int64_t>(footer_len);
  if (data_end < 0) {
    return Status::Corruption("footer length exceeds file: " + path);
  }

  std::string footer_bytes(footer_len, '\0');
  DMB_RETURN_NOT_OK(
      ReadAll(&reader.in_, data_end, footer_bytes.data(), footer_len, path));
  if (Crc32(footer_bytes) != footer_crc) {
    return Status::Corruption("footer checksum mismatch: " + path);
  }

  ByteReader footer(footer_bytes);
  uint8_t version = 0, codec_id = 0;
  DMB_RETURN_NOT_OK(footer.ReadBytes(&version, 1));
  DMB_RETURN_NOT_OK(footer.ReadBytes(&codec_id, 1));
  if (version != kBlockFileVersion) {
    return Status::Corruption("unsupported block file version " +
                              std::to_string(version) + ": " + path);
  }
  if (!IsKnownCodec(codec_id)) {
    return Status::Corruption("unknown codec id " + std::to_string(codec_id) +
                              ": " + path);
  }
  reader.codec_ = static_cast<Codec>(codec_id);
  uint64_t block_count = 0;
  DMB_RETURN_NOT_OK(footer.ReadVarint(&block_count));

  int64_t expected_offset = 0;
  reader.blocks_.reserve(static_cast<size_t>(block_count));
  for (uint64_t i = 0; i < block_count; ++i) {
    BlockInfo info;
    uint64_t offset = 0, stored_len = 0, raw_len = 0, record_count = 0;
    uint8_t block_codec = 0;
    DMB_RETURN_NOT_OK(footer.ReadVarint(&offset));
    DMB_RETURN_NOT_OK(footer.ReadVarint(&stored_len));
    DMB_RETURN_NOT_OK(footer.ReadVarint(&raw_len));
    DMB_RETURN_NOT_OK(footer.ReadVarint(&record_count));
    DMB_RETURN_NOT_OK(footer.ReadBytes(&block_codec, 1));
    info.offset = static_cast<int64_t>(offset);
    info.stored_len = static_cast<int64_t>(stored_len);
    info.raw_len = static_cast<int64_t>(raw_len);
    info.record_count = static_cast<int64_t>(record_count);
    if (!IsKnownCodec(block_codec)) {
      return Status::Corruption("unknown block codec id " +
                                std::to_string(block_codec) + ": " + path);
    }
    info.codec = static_cast<Codec>(block_codec);
    if (info.offset != expected_offset ||
        info.offset + kBlockHeaderBytes + info.stored_len > data_end ||
        info.stored_len > std::numeric_limits<uint32_t>::max() ||
        info.raw_len > std::numeric_limits<uint32_t>::max()) {
      return Status::Corruption("block index entry " + std::to_string(i) +
                                " out of bounds: " + path);
    }
    expected_offset = info.offset + kBlockHeaderBytes + info.stored_len;
    reader.stats_.records += info.record_count;
    reader.stats_.raw_bytes += info.raw_len;
    if (info.raw_len > reader.max_block_raw_bytes_) {
      reader.max_block_raw_bytes_ = info.raw_len;
    }
    reader.blocks_.push_back(info);
  }
  if (!footer.AtEnd()) {
    return Status::Corruption("trailing bytes after block index: " + path);
  }
  if (expected_offset != data_end) {
    return Status::Corruption("block data does not span the file: " + path);
  }
  reader.stats_.blocks = static_cast<int64_t>(reader.blocks_.size());
  reader.stats_.file_bytes = file_size;
  return reader;
}

Status BlockReader::ReadBlock(size_t i, std::string* raw) {
  if (i >= blocks_.size()) {
    return Status::InvalidArgument("block index out of range");
  }
  const BlockInfo& info = blocks_[i];
  // One seek+read for header and payload together (the index already
  // knows stored_len) — halves the I/O calls on the merge hot path.
  stored_.resize(static_cast<size_t>(kBlockHeaderBytes + info.stored_len));
  DMB_RETURN_NOT_OK(
      ReadAll(&in_, info.offset, stored_.data(), stored_.size(), path_));
  ByteReader header(stored_.data(), kBlockHeaderBytes);
  uint32_t record_count = 0, raw_len = 0, stored_len = 0, crc = 0;
  uint8_t codec_id = 0;
  DMB_RETURN_NOT_OK(header.ReadU32(&record_count));
  DMB_RETURN_NOT_OK(header.ReadU32(&raw_len));
  DMB_RETURN_NOT_OK(header.ReadU32(&stored_len));
  DMB_RETURN_NOT_OK(header.ReadBytes(&codec_id, 1));
  DMB_RETURN_NOT_OK(header.ReadU32(&crc));
  // The header duplicates the footer index entry; any disagreement means
  // one of them was damaged.
  if (static_cast<int64_t>(record_count) != info.record_count ||
      static_cast<int64_t>(raw_len) != info.raw_len ||
      static_cast<int64_t>(stored_len) != info.stored_len ||
      codec_id != static_cast<uint8_t>(info.codec)) {
    return Status::Corruption("block " + std::to_string(i) +
                              " header disagrees with footer index: " + path_);
  }
  const std::string_view payload(stored_.data() + kBlockHeaderBytes,
                                 static_cast<size_t>(info.stored_len));
  if (Crc32(payload) != crc) {
    return Status::Corruption("block " + std::to_string(i) +
                              " checksum mismatch: " + path_);
  }
  DMB_RETURN_NOT_OK(Decompress(info.codec, payload, raw_len, raw));
  return Status::OK();
}

}  // namespace dmb::io
