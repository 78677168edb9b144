// Int64 sum: the one definition of the counting aggregation behind
// WordCount, Grep, the Naive Bayes counts and the JobServer's small
// jobs. It supplies all three forms a counting job declares — the
// combiner (sort-based map-side combining), the fold (hash-mode
// combining, shuffle/fold.h) and the reduce — so they cannot drift.
//
// Values are decimal int64s. A value that is not one, or a total past
// int64, fails the fold and the reduce with InvalidArgument naming the
// key (it never throws and never overflows silently).

#ifndef DATAMPI_BENCH_WORKLOADS_INT64_SUM_H_
#define DATAMPI_BENCH_WORKLOADS_INT64_SUM_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "engine/types.h"

namespace dmb::workloads {

/// \brief Total of `values`; InvalidArgument naming `key` on a
/// non-decimal value or int64 overflow.
Result<int64_t> SumInt64(std::string_view key,
                         const std::vector<std::string>& values);

/// \brief Combiner form. A combiner cannot fail, so a group that does
/// not sum passes its fault on for the reduce to report: the first
/// non-decimal value verbatim, or the exact (out of int64 range)
/// decimal total.
std::string Int64SumCombiner(std::string_view key,
                             const std::vector<std::string>& values);

/// \brief Reduce form: emits (key, total), or fails as SumInt64 does.
Status Int64SumReduce(std::string_view key,
                      const std::vector<std::string>& values,
                      engine::ReduceEmitter* out);

/// \brief Declares the int64 sum as `spec`'s combiner, fold and reduce.
void UseInt64Sum(engine::JobSpec* spec);

}  // namespace dmb::workloads

#endif  // DATAMPI_BENCH_WORKLOADS_INT64_SUM_H_
