// DataMPI adapter: runs an engine::JobSpec as a bipartite O/A job over
// mpilite (pipelined shuffle; O-side send buffers and the A-side store
// are shuffle collectors that fold when the job declares a fold).

#ifndef DATAMPI_BENCH_ENGINE_DATAMPI_ENGINE_H_
#define DATAMPI_BENCH_ENGINE_DATAMPI_ENGINE_H_

#include <string>

#include "engine/engine.h"

namespace dmb::engine {

class DataMPIEngine final : public Engine {
 public:
  std::string name() const override { return "datampi"; }
  Result<JobOutput> RunStage(const JobSpec& spec) override;
};

}  // namespace dmb::engine

#endif  // DATAMPI_BENCH_ENGINE_DATAMPI_ENGINE_H_
