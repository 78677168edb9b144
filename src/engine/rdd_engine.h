// Spark-like adapter: runs an engine::JobSpec as an rddlite lineage —
// a narrow map stage, a wide shuffle stage, and a parallel reduce over
// the shuffled partitions. As Spark schedules a ShuffleMapStage, all
// map tasks run at once on the stage's task slots before the reduce
// tasks; a job that declares a fold is combined on the map side in a
// hash table (combineByKey). The wide stage has two modes: memory-resident
// and charged against the executor MemoryManager (OutOfMemory on
// overflow, as Spark 0.8 — the paper's behaviour), or, with
// JobSpec::rdd_shuffle_spill, routed through the spilling shuffle
// collector so pressure writes checksummed run files instead ("Spark
// 0.9+" external shuffle).

#ifndef DATAMPI_BENCH_ENGINE_RDD_ENGINE_H_
#define DATAMPI_BENCH_ENGINE_RDD_ENGINE_H_

#include <string>

#include "engine/engine.h"

namespace dmb::engine {

class RddEngine final : public Engine {
 public:
  std::string name() const override { return "rddlite"; }
  Result<JobOutput> RunStage(const JobSpec& spec) override;
};

}  // namespace dmb::engine

#endif  // DATAMPI_BENCH_ENGINE_RDD_ENGINE_H_
