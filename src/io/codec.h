// Pluggable block codecs for the spill I/O subsystem.
//
// A run file names its codec by a one-byte id in every block header and
// in the footer, so files stay self-describing: a reader never needs
// out-of-band configuration to decode a spill. `kNone` keeps the raw
// path available (and is what an incompressible block falls back to
// regardless of the configured codec); `kLz` reuses the repo's
// self-contained LZ77 byte codec (datagen::LzCompress), which reaches
// ~2x on the Zipfian shuffle traffic the paper's workloads produce.

#ifndef DATAMPI_BENCH_IO_CODEC_H_
#define DATAMPI_BENCH_IO_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "datagen/codec.h"

namespace dmb::io {

/// \brief Block codec ids (stable on-disk values).
enum class Codec : uint8_t {
  kNone = 0,
  kLz = 1,
};

/// \brief "none" | "lz" (for logs, flags and JobSpec knobs).
const char* CodecName(Codec codec);

/// \brief Inverse of CodecName; InvalidArgument on unknown names.
Result<Codec> ParseCodec(std::string_view name);

/// \brief True for ids this build can decode (guards files written by a
/// newer build with a codec this one doesn't know).
bool IsKnownCodec(uint8_t id);

/// \brief Compresses `input` with `codec` into `out` (replaced, not
/// appended). kNone copies.
void Compress(Codec codec, std::string_view input, std::string* out);

/// \brief Stateful form of Compress: reuses the LZ match-finder arrays
/// across calls, so a block writer compressing many blocks in one
/// stream pays one hash-table allocation per stream, not per block.
class Compressor {
 public:
  /// Same contract as the free Compress.
  void Compress(Codec codec, std::string_view input, std::string* out);

 private:
  datagen::LzCompressor lz_;
};

/// \brief Decompresses `input` into exactly `raw_len` bytes, written to
/// `out` (replaced, capacity reused — no steady-state allocation
/// when decoding many blocks into one buffer); Corruption when the
/// payload doesn't decode to that size.
Status Decompress(Codec codec, std::string_view input, size_t raw_len,
                  std::string* out);

}  // namespace dmb::io

#endif  // DATAMPI_BENCH_IO_CODEC_H_
