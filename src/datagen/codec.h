// DmbLz: a self-contained LZ77 byte codec (LZ4-flavoured token format)
// standing in for Hadoop's GzipCodec in ToSeqFile / Normal Sort. On the
// Zipfian corpora it reaches the ~2x ratio the paper's compressed
// sequence files exhibit, and it exercises a real compress/decompress
// code path in the functional engines.

#ifndef DATAMPI_BENCH_DATAGEN_CODEC_H_
#define DATAMPI_BENCH_DATAGEN_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace dmb::datagen {

/// \brief Largest output LzCompressor::Compress can produce for `n`
/// input bytes. A sequence ending in a match of m >= 4 bytes writes a
/// token, a 2-byte offset, one match-length byte per 255 of m - 19 (plus
/// one once m >= 19), its literals, and one literal-length byte per 255
/// of lit_len - 15 (plus one once lit_len >= 15): at most
/// lit_len + lit_len/255 bytes for lit_len + m input bytes. The terminal
/// literal run has no match to pay for its token and first length byte,
/// so it adds at most 2 more. Summed over all sequences the output stays
/// within n + n/255 + 2.
constexpr size_t LzCompressBound(size_t n) { return n + n / 255 + 2; }

/// \brief Stateful compressor that reuses its match-finder arrays
/// (hash heads + chain links) across calls — the form a block writer
/// holds for the lifetime of one stream, so compressing N blocks costs
/// one allocation instead of N. The match finder walks a short hash
/// chain (best of kMaxProbes candidates) and step-skips through
/// incompressible regions. Output decodes with LzDecompress.
class LzCompressor {
 public:
  /// \brief Compresses `input` into `out` (replaced, capacity reused).
  /// `out` is presized to LzCompressBound(input.size()), written
  /// through a pointer, then shrunk to the bytes written.
  void Compress(std::string_view input, std::string* out);

 private:
  std::vector<int32_t> head_;  // hash -> most recent inserted position
  std::vector<int32_t> prev_;  // position -> previous same-hash position
};

/// \brief One-shot convenience over LzCompressor.
std::string LzCompress(std::string_view input);

/// \brief Decompresses data produced by LzCompress. `decompressed_size`
/// must match exactly; corrupt input yields Status::Corruption.
Result<std::string> LzDecompress(std::string_view input,
                                 size_t decompressed_size);

/// \brief Decompresses into `out` (resized to `decompressed_size`),
/// reusing its capacity — the allocation-free form for hot loops
/// decoding many blocks. A literal run or match that would pass
/// `decompressed_size` is Corruption before anything is written for it;
/// on any error the contents of `out` are unspecified.
Status LzDecompressInto(std::string_view input, size_t decompressed_size,
                        std::string* out);

/// \brief Self-describing frame: varint original size + compressed bytes.
std::string FrameCompress(std::string_view input);

/// \brief Inverse of FrameCompress.
Result<std::string> FrameDecompress(std::string_view frame);

/// \brief Compression ratio (uncompressed/compressed) of a frame blob.
double FrameRatio(std::string_view original, std::string_view frame);

}  // namespace dmb::datagen

#endif  // DATAMPI_BENCH_DATAGEN_CODEC_H_
