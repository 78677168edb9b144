// Block-file format: the on-disk container of the spill I/O subsystem.
//
// Every byte a run file stores is covered by a checksum, and reads never
// need more than one decoded block in memory. Layout:
//
//   File    := Block* Footer Trailer
//   Block   := BlockHeader stored-payload
//   BlockHeader (little-endian, 17 bytes):
//     u32 record_count   records whose bytes this block holds
//     u32 raw_len        payload bytes before compression
//     u32 stored_len     payload bytes on disk
//     u8  codec          codec id of THIS block (incompressible blocks
//                        fall back to kNone even under a compressing
//                        configuration)
//     u32 crc32          checksum of the stored payload
//   Footer  := version u8, file codec u8, then per block
//              varint{offset, stored_len, raw_len, record_count} + u8
//              codec — the block index a reader seeks by
//   Trailer (fixed 16 bytes at end of file):
//     u32 footer_len  u32 footer_crc  u64 magic("dmbiorun")
//
// Records are opaque byte strings; a block never splits a record, so
// each block decodes independently. Writers cut a block when appending
// the next record would push the raw payload past block_bytes, so
// raw_len <= max(block_bytes, longest single record) — the bound behind
// the reduce side's O(num_runs x block_size) memory guarantee.

#ifndef DATAMPI_BENCH_IO_BLOCK_FILE_H_
#define DATAMPI_BENCH_IO_BLOCK_FILE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "io/codec.h"

namespace dmb {
class ParallelContext;
}

namespace dmb::io {

/// \brief Magic at the very end of every block file.
constexpr uint64_t kBlockFileMagic = 0x6e75726f69626d64ULL;  // "dmbiorun"
/// \brief On-disk format version written into the footer.
constexpr uint8_t kBlockFileVersion = 1;
/// \brief Bytes of the fixed end-of-file trailer.
constexpr int64_t kBlockFileTrailerBytes = 16;
/// \brief Bytes of one on-disk block header.
constexpr int64_t kBlockHeaderBytes = 17;

/// \brief Writer/reader tuning. The defaults (64 KiB blocks, LZ) match
/// the shuffle layer's spill defaults.
struct BlockFileOptions {
  /// Target uncompressed payload bytes per block (also the unit of
  /// reduce-side resident memory per run). Must be >= 1.
  int64_t block_bytes = 64 << 10;
  Codec codec = Codec::kLz;
  /// Non-owning; when set (and enabled), BlockWriter overlaps block
  /// compression + checksumming with the caller's appends: sealed
  /// blocks are compressed on pool workers and written in order by the
  /// calling thread. File bytes are identical to the serial path.
  /// Readers ignore it (StreamingRunReader takes its own context).
  ParallelContext* parallel = nullptr;
  /// Per-writer cap on blocks in flight (sealed but not yet written);
  /// 0 = the context's max_inflight_blocks. Bounds the writer's extra
  /// resident memory to roughly this many raw+compressed blocks.
  int max_inflight_blocks = 0;
};

/// \brief Counters a writer accumulates (also recomputed by readers).
struct BlockFileStats {
  int64_t records = 0;
  int64_t blocks = 0;
  /// Payload bytes before compression.
  int64_t raw_bytes = 0;
  /// Total file bytes on disk (headers + payloads + footer + trailer).
  int64_t file_bytes = 0;
  /// Blocks whose compression + CRC ran on a pool worker (writer-side
  /// only; readers report 0).
  int64_t overlapped_blocks = 0;
};

/// \brief Streaming writer of opaque records into checksummed blocks.
/// Append records, then Finish() exactly once; the file is invalid (no
/// trailer) until Finish succeeds.
class BlockWriter {
 public:
  explicit BlockWriter(const std::string& path,
                       BlockFileOptions options = BlockFileOptions{});
  ~BlockWriter();

  BlockWriter(const BlockWriter&) = delete;
  BlockWriter& operator=(const BlockWriter&) = delete;

  /// \brief Appends one record (never split across blocks; a record
  /// larger than block_bytes gets a block of its own). Records must be
  /// non-empty: the payload has no per-record framing of its own, so a
  /// zero-length record is unrepresentable (InvalidArgument). KV layers
  /// frame records themselves (EncodeKV), so empty keys/values are fine.
  Status AppendRecord(std::string_view record);

  /// \brief Compresses + flushes the pending block, writes the footer
  /// and trailer, and closes the file.
  Status Finish();

  const BlockFileOptions& options() const { return options_; }
  const BlockFileStats& stats() const { return stats_; }

 private:
  /// One sealed block travelling through the overlapped pipeline:
  /// raw payload in, (codec, stored payload, crc) out, `done` last.
  struct BlockJob {
    std::string raw;
    int64_t records = 0;
    std::string compressed;
    Codec codec = Codec::kNone;
    uint32_t crc = 0;
    /// True when the compress closure was accepted by the pool; false
    /// when it ran inline (Submit refused during shutdown). Only such
    /// pool-run blocks count as overlapped in stats.
    bool on_pool = false;
    std::atomic<bool> done{false};

    const std::string& stored() const {
      return codec == Codec::kNone ? raw : compressed;
    }
  };

  Status FlushBlock();
  /// Compresses and writes pending_ on the calling thread (serial path).
  Status WritePendingBlock();
  /// Seals pending_ into a BlockJob on the pool (overlapped path).
  Status SubmitBlockJob();
  /// Writes completed jobs from the front of the pipeline; with `all`,
  /// waits (help-while-wait) until every job is written.
  Status DrainJobs(bool all);
  /// Writes one completed job: header + stored payload + index entry.
  Status WriteJob(BlockJob* job);
  /// Helps the pool until `job`'s compress closure has completed.
  void WaitJobDone(BlockJob* job);
  /// Joins outstanding jobs without writing (error paths, destructor).
  void AbandonJobs();
  std::unique_ptr<Compressor> TakeCompressor();
  void ReturnCompressor(std::unique_ptr<Compressor> compressor);
  bool overlapped() const;

  std::string path_;
  BlockFileOptions options_;
  std::ofstream out_;
  Status status_;
  bool finished_ = false;

  std::string pending_;        // raw payload of the open block
  int64_t pending_records_ = 0;
  std::string scratch_;        // compression output, reused across blocks
  Compressor compressor_;      // match-finder state, reused across blocks

  /// Overlapped-path state: jobs in submission order (written in this
  /// order, so file bytes match the serial path), plus a free list of
  /// compressors so concurrent jobs reuse match-finder state without
  /// sharing it.
  std::deque<std::unique_ptr<BlockJob>> jobs_;
  Mutex compressors_mu_;
  std::vector<std::unique_ptr<Compressor>> free_compressors_
      DMB_GUARDED_BY(compressors_mu_);

  struct IndexEntry {
    int64_t offset = 0;
    int64_t stored_len = 0;
    int64_t raw_len = 0;
    int64_t record_count = 0;
    Codec codec = Codec::kNone;
  };
  std::vector<IndexEntry> index_;
  int64_t offset_ = 0;
  BlockFileStats stats_;
};

/// \brief Random-access reader: validates the trailer/footer on Open,
/// then serves individual blocks with checksum verification. Holds no
/// block data between calls.
class BlockReader {
 public:
  struct BlockInfo {
    int64_t offset = 0;
    int64_t stored_len = 0;
    int64_t raw_len = 0;
    int64_t record_count = 0;
    Codec codec = Codec::kNone;
  };

  /// \brief Opens `path`, verifying magic, footer checksum and index
  /// bounds. Corruption / IOError on anything malformed.
  static Result<BlockReader> Open(const std::string& path);

  BlockReader(BlockReader&&) = default;
  BlockReader& operator=(BlockReader&&) = default;

  size_t block_count() const { return blocks_.size(); }
  const BlockInfo& block(size_t i) const { return blocks_[i]; }
  /// \brief File-level codec recorded in the footer (individual blocks
  /// may still be kNone when they didn't compress).
  Codec codec() const { return codec_; }
  const BlockFileStats& stats() const { return stats_; }
  /// \brief Largest raw (decompressed) block in the file — the resident
  /// memory a streaming reader needs for this run.
  int64_t max_block_raw_bytes() const { return max_block_raw_bytes_; }

  /// \brief Reads block `i` into `raw`: seek, verify the on-disk header
  /// against the footer index, verify the payload checksum, decompress.
  Status ReadBlock(size_t i, std::string* raw);

 private:
  BlockReader() = default;

  std::string path_;
  std::ifstream in_;
  Codec codec_ = Codec::kNone;
  std::vector<BlockInfo> blocks_;
  BlockFileStats stats_;
  int64_t max_block_raw_bytes_ = 0;
  std::string stored_;  // scratch for one block's header + stored payload
};

}  // namespace dmb::io

#endif  // DATAMPI_BENCH_IO_BLOCK_FILE_H_
