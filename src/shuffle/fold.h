// Fold: the associative per-key aggregation behind hash-mode map-side
// combining (Spark's combineByKey over an AppendOnlyMap).
//
// A combiner sees a key's whole value list once it has been sorted and
// grouped; a fold instead folds each value into its key's accumulator
// as it arrives, so a collector can aggregate in a hash table and sort
// only the distinct keys. A job declares a fold next to its combiner
// (engines without a hash mode keep using the combiner), so the two
// must agree: folding a key's values in any order must give the
// combiner's result for the same values. The one fold so far is the
// int64 sum: values parse with std::from_chars into a binary
// accumulator that is formatted once, when the table drains.

#ifndef DATAMPI_BENCH_SHUFFLE_FOLD_H_
#define DATAMPI_BENCH_SHUFFLE_FOLD_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace dmb::shuffle {

/// \brief A declared fold: none or the int64 sum.
struct Fold {
  enum class Kind { kNone, kInt64Sum };

  Kind kind = Kind::kNone;

  static Fold Int64Sum() { return Fold{Kind::kInt64Sum}; }

  explicit operator bool() const { return kind != Kind::kNone; }
};

/// \brief Parses `value` as a decimal int64 (optional leading '-', no
/// other characters). InvalidArgument naming `key` otherwise.
Status ParseInt64(std::string_view key, std::string_view value, int64_t* out);

/// \brief *acc += the decimal int64 `value`; InvalidArgument naming
/// `key` on a non-decimal value or when the sum overflows int64. On
/// failure *acc keeps its value.
Status AddInt64(std::string_view key, std::string_view value, int64_t* acc);

/// \brief Decimal form of `v` (what std::to_string gives).
std::string FormatInt64(int64_t v);

}  // namespace dmb::shuffle

#endif  // DATAMPI_BENCH_SHUFFLE_FOLD_H_
