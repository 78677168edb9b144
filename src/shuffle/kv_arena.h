// KVArena: flat byte-arena storage for intermediate key-value records.
//
// The stage boundary of every engine under study moves large volumes of
// small key-value records. Representing each record as a
// (std::string, std::string) pair costs two heap allocations plus
// pointer-chasing comparisons on the shuffle hot path. KVArena instead
// appends key and value bytes into one growable flat buffer and
// represents a record as a KVSlice — four integers indexing into the
// arena — so collection is allocation-free per record and sorting moves
// 24-byte slices instead of string pairs (the same indexing-over-copying
// instinct as FliX's flipped indexing).

#ifndef DATAMPI_BENCH_SHUFFLE_KV_ARENA_H_
#define DATAMPI_BENCH_SHUFFLE_KV_ARENA_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace dmb {
class ParallelContext;
class TaskGroup;
}

namespace dmb::shuffle {

/// \brief One record as offsets into a KVArena. Plain indices stay valid
/// across arena growth (unlike pointers into a reallocating buffer).
///
/// key_prefix caches the first 8 key bytes big-endian and zero-padded
/// (a normalized "abbreviated key"): integer comparison of two prefixes
/// agrees with lexicographic byte order whenever they differ, so most
/// sort comparisons resolve without touching the arena at all.
struct KVSlice {
  uint64_t key_prefix = 0;
  uint64_t key_off = 0;
  uint32_t key_len = 0;
  uint64_t val_off = 0;
  uint32_t val_len = 0;
};

/// \brief Big-endian zero-padded first 8 bytes of `key`. If
/// MakeKeyPrefix(a) != MakeKeyPrefix(b) then their order equals the
/// lexicographic order of a and b; equal prefixes need a full compare.
inline uint64_t MakeKeyPrefix(std::string_view key) {
  uint64_t p = 0;
#if defined(__BYTE_ORDER__) && defined(__ORDER_LITTLE_ENDIAN__) && \
    defined(__ORDER_BIG_ENDIAN__) &&                               \
    (__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__ ||                  \
     __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__)
  // One memcpy + byte swap instead of a per-byte shift loop. Copying
  // into the low bytes of a zeroed word preserves the zero-pad
  // semantics for keys shorter than 8 bytes.
  if (key.size() >= 8) {
    std::memcpy(&p, key.data(), 8);
  } else if (!key.empty()) {
    std::memcpy(&p, key.data(), key.size());
  }
#if __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  p = __builtin_bswap64(p);
#endif
#else
  const size_t n = key.size() < 8 ? key.size() : 8;
  for (size_t i = 0; i < n; ++i) {
    p |= static_cast<uint64_t>(static_cast<unsigned char>(key[i]))
         << (56 - 8 * i);
  }
#endif
  return p;
}

/// \brief Append-only byte arena backing KVSlice records.
class KVArena {
 public:
  KVArena() = default;
  explicit KVArena(size_t reserve_bytes) { data_.reserve(reserve_bytes); }

  KVArena(KVArena&&) = default;
  KVArena& operator=(KVArena&&) = default;
  KVArena(const KVArena&) = delete;
  KVArena& operator=(const KVArena&) = delete;

  /// \brief Copies the record's bytes into the arena; no per-record heap
  /// allocation beyond amortized arena growth.
  KVSlice Add(std::string_view key, std::string_view value) {
    KVSlice s;
    s.key_prefix = MakeKeyPrefix(key);
    s.key_off = data_.size();
    s.key_len = static_cast<uint32_t>(key.size());
    data_.append(key);
    s.val_off = data_.size();
    s.val_len = static_cast<uint32_t>(value.size());
    data_.append(value);
    return s;
  }

  std::string_view KeyOf(const KVSlice& s) const {
    return {data_.data() + s.key_off, s.key_len};
  }
  std::string_view ValueOf(const KVSlice& s) const {
    return {data_.data() + s.val_off, s.val_len};
  }
  /// \brief The arena bytes at [off, off + len). Add lays a record's
  /// key and value out back to back, so the value starts at
  /// key_off + key_len.
  std::string_view Bytes(uint64_t off, size_t len) const {
    return {data_.data() + off, len};
  }
  /// \brief Writable arena bytes at `off` (in-place accumulators: the
  /// collector's hash mode folds into a record's value bytes).
  char* MutableBytes(uint64_t off) { return data_.data() + off; }

  /// \brief Payload bytes stored (sum of key and value lengths).
  int64_t bytes() const { return static_cast<int64_t>(data_.size()); }
  bool empty() const { return data_.empty(); }
  void Clear() { data_.clear(); }

  /// \brief Orders by key, then value (the total order every engine's
  /// sorted grouping relies on for deterministic cross-engine output).
  /// The cached prefix settles most comparisons arena-free.
  bool SliceLess(const KVSlice& a, const KVSlice& b) const {
    if (a.key_prefix != b.key_prefix) return a.key_prefix < b.key_prefix;
    const std::string_view ka = KeyOf(a), kb = KeyOf(b);
    if (ka != kb) return ka < kb;
    return ValueOf(a) < ValueOf(b);
  }

  /// \brief Sorts slices in (key, value) order over this arena.
  ///
  /// In-place MSB-radix (American flag) over the cached key_prefix,
  /// byte at a time: most records are placed without touching the
  /// arena. Small buckets and runs whose keys share the whole 8-byte
  /// prefix fall back to comparison sort (SliceLess), which settles
  /// them on the full (key, value) bytes — the same deterministic
  /// cross-engine total order as the comparator path.
  void Sort(std::vector<KVSlice>* slices) const;

  /// \brief Parallel variant: large slices (above the context's
  /// parallel_sort_threshold) fan the radix buckets out to the shared
  /// pool as independent sub-sorts, joining before return. Buckets are
  /// disjoint ranges running the identical serial algorithm, so the
  /// result is byte-identical to Sort(slices) for every thread count.
  /// A null/serial context (or a small slice) is exactly the serial
  /// path. `spawned` (optional) is incremented by the number of
  /// sub-sorts handed to the pool.
  void Sort(std::vector<KVSlice>* slices, ParallelContext* parallel,
            int64_t* spawned = nullptr) const;

  /// \brief The pre-radix comparator path (std::sort over SliceLess).
  /// Kept as the equivalence oracle for tests and the speedup baseline
  /// for shuffle_bench's sort section.
  void SortComparator(std::vector<KVSlice>* slices) const;

 private:
  /// The radix frame loop over [begin, begin + size) starting at
  /// `depth`. With a group, child buckets of at least `spawn_min`
  /// records are handed to the pool as serial sub-sorts instead of the
  /// local stack (only the root call fans out; sub-sorts never nest).
  void SortRange(KVSlice* begin, size_t size, int depth, TaskGroup* group,
                 size_t spawn_min) const;

  std::string data_;
};

/// \brief Bytes one record occupies under the EncodeKV wire framing
/// (varint length + key + varint length + value). Used for the uniform
/// EngineStats::shuffle_bytes accounting.
inline int64_t EncodedKVSize(size_t key_len, size_t val_len) {
  auto varint_size = [](uint64_t v) {
    int64_t n = 1;
    while (v >= 0x80) {
      v >>= 7;
      ++n;
    }
    return n;
  };
  return varint_size(key_len) + static_cast<int64_t>(key_len) +
         varint_size(val_len) + static_cast<int64_t>(val_len);
}

}  // namespace dmb::shuffle

#endif  // DATAMPI_BENCH_SHUFFLE_KV_ARENA_H_
