#include "workloads/int64_sum.h"

#include <algorithm>

#include "shuffle/fold.h"

namespace dmb::workloads {

namespace {

/// Decimal form of a total that may lie outside int64.
std::string FormatInt128(__int128 v) {
  const bool negative = v < 0;
  std::string digits;
  do {
    const int digit = static_cast<int>(v % 10);
    digits.push_back(static_cast<char>('0' + (negative ? -digit : digit)));
    v /= 10;
  } while (v != 0);
  if (negative) digits.push_back('-');
  std::reverse(digits.begin(), digits.end());
  return digits;
}

}  // namespace

Result<int64_t> SumInt64(std::string_view key,
                         const std::vector<std::string>& values) {
  int64_t total = 0;
  for (const std::string& v : values) {
    DMB_RETURN_NOT_OK(shuffle::AddInt64(key, v, &total));
  }
  return total;
}

std::string Int64SumCombiner(std::string_view key,
                             const std::vector<std::string>& values) {
  // Summed wide: fewer than 2^63 int64 values cannot overflow __int128.
  __int128 total = 0;
  for (const std::string& v : values) {
    int64_t x = 0;
    if (!shuffle::ParseInt64(key, v, &x).ok()) return v;
    total += x;
  }
  if (total < INT64_MIN || total > INT64_MAX) return FormatInt128(total);
  return shuffle::FormatInt64(static_cast<int64_t>(total));
}

Status Int64SumReduce(std::string_view key,
                      const std::vector<std::string>& values,
                      engine::ReduceEmitter* out) {
  DMB_ASSIGN_OR_RETURN(const int64_t total, SumInt64(key, values));
  out->Emit(key, shuffle::FormatInt64(total));
  return Status::OK();
}

void UseInt64Sum(engine::JobSpec* spec) {
  spec->combiner = Int64SumCombiner;
  spec->fold = shuffle::Fold::Int64Sum();
  spec->reduce_fn = Int64SumReduce;
}

}  // namespace dmb::workloads
