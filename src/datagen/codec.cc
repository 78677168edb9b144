#include "datagen/codec.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <vector>

#include "common/byte_buffer.h"

namespace dmb::datagen {

namespace {

constexpr size_t kMinMatch = 4;
constexpr size_t kMaxOffset = 65535;
constexpr int kHashBits = 16;
/// Chain candidates examined per position (newest first, best kept).
constexpr int kMaxProbes = 4;
/// After 1 << kSkipShift consecutive positions without a match the scan
/// step starts growing, so incompressible regions cost ~O(n / step).
constexpr size_t kSkipShift = 6;
/// Literal runs and matches up to this long decode with one fixed-size
/// copy when input and output have that much room left.
constexpr size_t kShortCopy = 16;

inline uint32_t Read32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

inline uint32_t HashPrefix(uint32_t v) {
  return (v * 2654435761u) >> (32 - kHashBits);
}

// Both emitters write through `op` and return the advanced cursor; the
// caller has sized the buffer to LzCompressBound, so no bounds checks.
char* EmitLength(char* op, size_t len) {
  while (len >= 255) {
    *op++ = static_cast<char>(0xFF);
    len -= 255;
  }
  *op++ = static_cast<char>(len);
  return op;
}

// Emits one sequence: literals [lit_begin, lit_begin + lit_len) followed
// by a match of `match_len` at `offset` (match_len == 0 for the terminal
// literal run).
char* EmitSequence(char* op, const char* lit_begin, size_t lit_len,
                   size_t match_len, size_t offset) {
  const size_t lit_token = lit_len < 15 ? lit_len : 15;
  size_t match_code = 0;
  if (match_len > 0) {
    match_code = match_len - kMinMatch;
  }
  const size_t match_token = match_code < 15 ? match_code : 15;
  *op++ = static_cast<char>((lit_token << 4) | match_token);
  if (lit_token == 15) op = EmitLength(op, lit_len - 15);
  std::memcpy(op, lit_begin, lit_len);
  op += lit_len;
  if (match_len > 0) {
    *op++ = static_cast<char>(offset & 0xFF);
    *op++ = static_cast<char>((offset >> 8) & 0xFF);
    if (match_token == 15) op = EmitLength(op, match_code - 15);
  }
  return op;
}

// Length of the common run of a[0..] and b[0..], at most `limit` bytes.
// On little-endian hosts the first differing byte of two 8-byte words is
// the lowest set bit of their XOR; elsewhere (and for the last < 8 bytes)
// it compares byte by byte.
inline size_t CommonLength(const char* a, const char* b, size_t limit) {
  size_t len = 0;
  if constexpr (std::endian::native == std::endian::little) {
    while (len + 8 <= limit) {
      uint64_t wa;
      uint64_t wb;
      std::memcpy(&wa, a + len, 8);
      std::memcpy(&wb, b + len, 8);
      if (const uint64_t diff = wa ^ wb; diff != 0) {
        return len + (static_cast<size_t>(std::countr_zero(diff)) >> 3);
      }
      len += 8;
    }
  }
  while (len < limit && a[len] == b[len]) ++len;
  return len;
}

}  // namespace

void LzCompressor::Compress(std::string_view input, std::string* out) {
  const char* base = input.data();
  const size_t n = input.size();
  // resize() only fills the bytes past the old size, so a reused `out`
  // pays almost nothing to be presized.
  out->resize(LzCompressBound(n));
  char* const dst = out->data();
  char* op = dst;
  if (n < kMinMatch + 4) {
    op = EmitSequence(op, base, n, 0, 0);
    out->resize(static_cast<size_t>(op - dst));
    return;
  }

  // head_ must forget the previous block; prev_ need not, because a
  // chain only ever reaches positions inserted during this call (every
  // insert writes prev_[pos] before pos becomes reachable via head_).
  if (head_.empty()) head_.resize(size_t{1} << kHashBits);
  std::fill(head_.begin(), head_.end(), -1);
  if (prev_.size() < n) prev_.resize(n);

  size_t pos = 0;
  size_t anchor = 0;
  // Leave a 4-byte tail so Read32 never crosses the end.
  const size_t match_limit = n - 4;
  size_t misses = 0;  // consecutive positions without a match

  while (pos < match_limit) {
    const uint32_t seq = Read32(base + pos);
    const uint32_t h = HashPrefix(seq);
    prev_[pos] = head_[h];
    head_[h] = static_cast<int32_t>(pos);

    // Walk the chain newest-first and keep the longest match. Offsets
    // only grow along the chain, so the first one past kMaxOffset ends
    // the walk.
    size_t best_len = 0;
    size_t best_off = 0;
    int32_t cand = prev_[pos];
    for (int probe = 0; probe < kMaxProbes && cand >= 0; ++probe) {
      const size_t cpos = static_cast<size_t>(cand);
      if (pos - cpos > kMaxOffset) break;
      if (Read32(base + cpos) == seq) {
        const size_t len =
            4 + CommonLength(base + cpos + 4, base + pos + 4, n - pos - 4);
        if (len > best_len) {
          best_len = len;
          best_off = pos - cpos;
        }
      }
      cand = prev_[cpos];
    }

    if (best_len >= kMinMatch) {
      op = EmitSequence(op, base + anchor, pos - anchor, best_len, best_off);
      pos += best_len;
      anchor = pos;
      misses = 0;
    } else {
      // Step-skip: literal-heavy data widens the stride (positions
      // skipped over are not inserted, like LZ4's acceleration).
      pos += 1 + (misses++ >> kSkipShift);
    }
  }
  op = EmitSequence(op, base + anchor, n - anchor, 0, 0);
  out->resize(static_cast<size_t>(op - dst));
}

std::string LzCompress(std::string_view input) {
  LzCompressor compressor;
  std::string out;
  compressor.Compress(input, &out);
  return out;
}

Result<std::string> LzDecompress(std::string_view input,
                                 size_t decompressed_size) {
  std::string out;
  DMB_RETURN_NOT_OK(LzDecompressInto(input, decompressed_size, &out));
  return out;
}

Status LzDecompressInto(std::string_view input, size_t decompressed_size,
                        std::string* out) {
  // Sized up front and written through a pointer; every literal run and
  // match is checked against the declared size before it is copied.
  // Short runs and matches (the common case on text) copy a fixed
  // kShortCopy bytes, which compiles to a pair of 8-byte moves instead
  // of a memcpy call. The bytes past the run stay inside the presized
  // output, and the next sequence overwrites them.
  out->resize(decompressed_size);
  char* const dst = out->data();
  size_t op = 0;
  size_t ip = 0;
  const size_t in_size = input.size();
  auto read_length = [&](size_t initial) -> Result<size_t> {
    size_t len = initial;
    if (initial == 15) {
      for (;;) {
        if (ip >= in_size) return Status::Corruption("truncated length");
        const uint8_t b = static_cast<uint8_t>(input[ip++]);
        len += b;
        if (b != 255) break;
      }
    }
    return len;
  };

  while (ip < in_size) {
    const uint8_t token = static_cast<uint8_t>(input[ip++]);
    DMB_ASSIGN_OR_RETURN(size_t lit_len, read_length(token >> 4));
    if (lit_len > in_size - ip) {
      return Status::Corruption("literal run past end of input");
    }
    if (lit_len > decompressed_size - op) {
      return Status::Corruption("literal run past decompressed size");
    }
    if (lit_len <= kShortCopy && in_size - ip >= kShortCopy &&
        decompressed_size - op >= kShortCopy) {
      std::memcpy(dst + op, input.data() + ip, kShortCopy);
    } else {
      std::memcpy(dst + op, input.data() + ip, lit_len);
    }
    op += lit_len;
    ip += lit_len;
    if (ip >= in_size) break;  // terminal sequence has no match
    if (ip + 2 > in_size) return Status::Corruption("truncated offset");
    const size_t offset = static_cast<uint8_t>(input[ip]) |
                          (static_cast<size_t>(
                               static_cast<uint8_t>(input[ip + 1]))
                           << 8);
    ip += 2;
    DMB_ASSIGN_OR_RETURN(size_t match_code, read_length(token & 0xF));
    const size_t match_len = match_code + kMinMatch;
    if (offset == 0 || offset > op) {
      return Status::Corruption("invalid match offset");
    }
    if (match_len > decompressed_size - op) {
      return Status::Corruption("match past decompressed size");
    }
    const char* from = dst + op - offset;
    char* to = dst + op;
    if (match_len <= kShortCopy && offset >= kShortCopy &&
        decompressed_size - op >= kShortCopy) {
      std::memcpy(to, from, kShortCopy);
    } else if (offset >= match_len) {
      std::memcpy(to, from, match_len);
    } else {
      // Overlapping (RLE-style) match: each byte may be one just written.
      for (size_t i = 0; i < match_len; ++i) to[i] = from[i];
    }
    op += match_len;
  }
  if (op != decompressed_size) {
    return Status::Corruption("decompressed size mismatch: got " +
                              std::to_string(op) + " expected " +
                              std::to_string(decompressed_size));
  }
  return Status::OK();
}

std::string FrameCompress(std::string_view input) {
  ByteBuffer header;
  header.AppendVarint(input.size());
  std::string out(header.view());
  out += LzCompress(input);
  return out;
}

Result<std::string> FrameDecompress(std::string_view frame) {
  ByteReader reader(frame);
  uint64_t orig_size;
  DMB_RETURN_NOT_OK(reader.ReadVarint(&orig_size));
  const size_t header = frame.size() - reader.remaining();
  return LzDecompress(frame.substr(header),
                      static_cast<size_t>(orig_size));
}

double FrameRatio(std::string_view original, std::string_view frame) {
  if (frame.empty()) return 0.0;
  return static_cast<double>(original.size()) /
         static_cast<double>(frame.size());
}

}  // namespace dmb::datagen
