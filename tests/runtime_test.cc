// Tests for the stage-DAG runtime (src/runtime): plan validation, DAG
// topologies (chain, diamond, independent branches), narrow-edge task
// alignment, state edges + binders (pass-through skipping), error
// propagation from a failing mid-plan stage, cross-engine byte-identical
// agreement of a 3-stage plan, the Run == one-stage-plan equivalence,
// and rddlite's spilling wide stage ("Spark 0.9+" mode) under a tiny
// memory budget.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "common/in_order_queue.h"
#include "common/mutex.h"
#include "common/random.h"
#include "engine/registry.h"
#include "runtime/scheduler.h"
#include "shuffle/batch_channel.h"
#include "workloads/grep_topk.h"
#include "workloads/int64_sum.h"
#include "workloads/text_utils.h"

namespace dmb::runtime {
namespace {

using datampi::KVPair;
using engine::JobSpec;
using engine::MapContext;
using engine::ReduceEmitter;

std::vector<std::string> RandomLines(uint64_t seed, int n) {
  Rng rng(seed);
  std::vector<std::string> lines;
  lines.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    std::string line;
    const int words = 1 + static_cast<int>(rng.Uniform(8));
    for (int w = 0; w < words; ++w) {
      if (w > 0) line.push_back(' ');
      const int len = 1 + static_cast<int>(rng.Uniform(4));
      for (int c = 0; c < len; ++c) {
        line.push_back(static_cast<char>('a' + rng.Uniform(5)));
      }
    }
    lines.push_back(std::move(line));
  }
  return lines;
}

Status EmitAllReduce(std::string_view key,
                     const std::vector<std::string>& values,
                     ReduceEmitter* out) {
  for (const auto& v : values) out->Emit(key, v);
  return Status::OK();
}

Status SumReduce(std::string_view key, const std::vector<std::string>& values,
                 ReduceEmitter* out) {
  int64_t total = 0;
  for (const auto& v : values) total += std::stoll(v);
  out->Emit(key, std::to_string(total));
  return Status::OK();
}

/// Identity stage shape over `parallelism` tasks.
JobSpec PassThroughJob(int parallelism) {
  JobSpec job;
  job.parallelism = parallelism;
  job.map_fn = [](std::string_view key, std::string_view value,
                  MapContext* ctx) -> Status {
    return ctx->Emit(key, value);
  };
  job.reduce_fn = EmitAllReduce;
  return job;
}

/// Word-counting stage shape.
JobSpec CountingJob(int parallelism) {
  JobSpec job;
  job.parallelism = parallelism;
  job.map_fn = [](std::string_view, std::string_view line,
                  MapContext* ctx) -> Status {
    Status st;
    workloads::ForEachToken(line, [&](std::string_view tok) {
      if (st.ok()) st = ctx->Emit(tok, "1");
    });
    return st;
  };
  job.reduce_fn = SumReduce;
  return job;
}

// ---- Plan validation ----

TEST(PlanValidationTest, EdgeMustReferenceEarlierStage) {
  Plan plan;
  StageSpec stage;
  stage.job = PassThroughJob(2);
  stage.job.input = engine::LinesAsInput({"a"});
  plan.AddStage(std::move(stage), {{5, EdgeKind::kWide}});
  auto st = plan.Validate();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInvalidArgument());

  Plan self_edge;
  StageSpec loop;
  loop.job = PassThroughJob(2);
  self_edge.AddStage(std::move(loop), {{0, EdgeKind::kWide}});
  EXPECT_TRUE(self_edge.Validate().IsInvalidArgument());
}

TEST(PlanValidationTest, StateEdgeRequiresBinder) {
  Plan plan;
  StageSpec source;
  source.job = PassThroughJob(2);
  source.job.input = engine::LinesAsInput({"a"});
  const int src = plan.AddStage(std::move(source));
  StageSpec sink;
  sink.job = PassThroughJob(2);
  sink.job.input = engine::LinesAsInput({"b"});
  plan.AddStage(std::move(sink), {{src, EdgeKind::kState}});
  EXPECT_TRUE(plan.Validate().IsInvalidArgument());
}

TEST(PlanValidationTest, MixedDataEdgeKindsAreRejected) {
  // Regression: RunOneStage used to route *all* data parents by
  // whichever edge kind appeared last, so a mixed narrow+wide stage
  // would silently misroute one parent's data. Both edge orders must be
  // rejected up front (and the scheduler independently refuses the
  // shape should validation ever regress).
  for (const bool narrow_first : {true, false}) {
    Plan plan;
    StageSpec a;
    a.job = PassThroughJob(2);
    a.job.input = engine::LinesAsInput({"a"});
    const int ida = plan.AddStage(std::move(a));
    StageSpec b;
    b.job = PassThroughJob(2);
    b.job.input = engine::LinesAsInput({"b"});
    const int idb = plan.AddStage(std::move(b));
    StageSpec sink;
    sink.job = PassThroughJob(2);
    std::vector<StageInput> inputs =
        narrow_first
            ? std::vector<StageInput>{{ida, EdgeKind::kNarrow},
                                      {idb, EdgeKind::kWide}}
            : std::vector<StageInput>{{ida, EdgeKind::kWide},
                                      {idb, EdgeKind::kNarrow}};
    plan.AddStage(std::move(sink), std::move(inputs));
    EXPECT_TRUE(plan.Validate().IsInvalidArgument())
        << (narrow_first ? "narrow,wide" : "wide,narrow");

    // The whole plan API refuses to run it, on every engine.
    auto eng = engine::MakeEngine("datampi");
    ASSERT_TRUE(eng.ok());
    auto out = (*eng)->RunPlan(plan);
    ASSERT_FALSE(out.ok());
    EXPECT_TRUE(out.status().IsInvalidArgument());
  }
}

TEST(PlanValidationTest, PipelineOptionBoundsAreValidated) {
  Plan plan;
  StageSpec stage;
  stage.job = PassThroughJob(2);
  stage.job.input = engine::LinesAsInput({"a"});
  plan.AddStage(std::move(stage));
  plan.options().pipeline_batch_records = 0;
  EXPECT_TRUE(plan.Validate().IsInvalidArgument());
  plan.options().pipeline_batch_records = 16;
  plan.options().pipeline_channel_batches = 0;
  EXPECT_TRUE(plan.Validate().IsInvalidArgument());
  plan.options().pipeline_channel_batches = 2;
  EXPECT_TRUE(plan.Validate().ok());
}

TEST(PlanValidationTest, NarrowEdgeNeedsMatchingParallelism) {
  Plan plan;
  StageSpec a;
  a.job = PassThroughJob(4);
  a.job.input = engine::LinesAsInput({"a"});
  const int ida = plan.AddStage(std::move(a));
  StageSpec sink;
  sink.job = PassThroughJob(2);
  plan.AddStage(std::move(sink), {{ida, EdgeKind::kNarrow}});
  EXPECT_TRUE(plan.Validate().IsInvalidArgument());
}

TEST(PlanValidationTest, DataEdgeAndRootInputAreExclusive) {
  Plan plan;
  StageSpec a;
  a.job = PassThroughJob(2);
  a.job.input = engine::LinesAsInput({"a"});
  const int ida = plan.AddStage(std::move(a));
  StageSpec sink;
  sink.job = PassThroughJob(2);
  sink.job.input = engine::LinesAsInput({"b"});
  plan.AddStage(std::move(sink), {{ida, EdgeKind::kWide}});
  EXPECT_TRUE(plan.Validate().IsInvalidArgument());
}

TEST(PlanValidationTest, EmptyPlanIsRejected) {
  Plan plan;
  for (const auto& info : engine::Engines()) {
    auto eng = info.make();
    auto r = eng->RunPlan(plan);
    ASSERT_FALSE(r.ok()) << info.name;
    EXPECT_TRUE(r.status().IsInvalidArgument()) << info.name;
  }
}

// ---- Run is the degenerate one-stage plan ----

TEST(RuntimeTest, RunEqualsOneStagePlan) {
  const auto lines = RandomLines(11, 200);
  for (const auto& info : engine::Engines()) {
    auto eng = info.make();
    JobSpec job = CountingJob(3);
    job.input = engine::LinesAsInput(lines);
    auto direct = eng->Run(job);
    ASSERT_TRUE(direct.ok()) << info.name << ": " << direct.status();
    EXPECT_EQ(direct->stats.stage_count, 1) << info.name;
    ASSERT_EQ(direct->stats.stages.size(), 1u) << info.name;
    EXPECT_EQ(direct->stats.stages[0].name, "job") << info.name;
    EXPECT_GT(direct->stats.stages[0].output_records, 0) << info.name;

    Plan plan;
    StageSpec stage;
    stage.job = CountingJob(3);
    stage.job.input = engine::LinesAsInput(lines);
    plan.AddStage(std::move(stage));
    auto planned = eng->RunPlan(plan);
    ASSERT_TRUE(planned.ok()) << info.name << ": " << planned.status();
    EXPECT_EQ(planned->partitions, direct->partitions) << info.name;
  }
}

// ---- Chain topology + cross-engine byte-identical agreement ----

/// 3-stage chain: wordcount -> re-key by count (wide) -> single sorted
/// partition (wide, parallelism 1) so the final merged output is
/// byte-identical across engines by construction.
Plan ThreeStageChain(const std::vector<std::string>& lines) {
  Plan plan;
  StageSpec count;
  count.name = "count";
  count.job = CountingJob(3);
  count.job.input = engine::LinesAsInput(lines);
  const int count_id = plan.AddStage(std::move(count));

  StageSpec rekey;
  rekey.name = "rekey";
  rekey.job.parallelism = 3;
  rekey.job.map_fn = [](std::string_view word, std::string_view count,
                        MapContext* ctx) -> Status {
    std::string key(count);
    key.insert(0, 12 - std::min<size_t>(12, key.size()), '0');
    key.push_back('\x01');
    key.append(word);
    return ctx->Emit(key, "1");
  };
  rekey.job.reduce_fn = EmitAllReduce;
  const int rekey_id =
      plan.AddStage(std::move(rekey), {{count_id, EdgeKind::kWide}});

  StageSpec gather;
  gather.name = "gather";
  gather.job = PassThroughJob(1);
  plan.AddStage(std::move(gather), {{rekey_id, EdgeKind::kWide}});
  return plan;
}

TEST(RuntimeTest, ThreeStageChainIsByteIdenticalAcrossEngines) {
  const auto lines = RandomLines(23, 300);
  std::vector<KVPair> reference;
  std::string reference_engine;
  for (const auto& info : engine::Engines()) {
    auto eng = info.make();
    auto out = eng->RunPlan(ThreeStageChain(lines));
    ASSERT_TRUE(out.ok()) << info.name << ": " << out.status();
    EXPECT_EQ(out->stats.stage_count, 3) << info.name;
    ASSERT_EQ(out->stats.stages.size(), 3u) << info.name;
    EXPECT_EQ(out->stats.stages[0].name, "count");
    EXPECT_GT(out->stats.stages[0].shuffle_bytes, 0) << info.name;
    EXPECT_GT(out->stats.stages[2].output_records, 0) << info.name;
    const auto merged = out->Merged();
    ASSERT_FALSE(merged.empty()) << info.name;
    if (reference.empty()) {
      reference = merged;
      reference_engine = info.name;
    } else {
      EXPECT_EQ(merged, reference)
          << info.name << " vs " << reference_engine;
    }
  }
}

// ---- Narrow edges keep the parent's partitioning ----

TEST(RuntimeTest, NarrowEdgeAlignsParentPartitionsWithTasks) {
  // Source: range-partitioned by first letter so every output partition
  // holds a known key range. Narrow consumer: each map task tags its
  // records with its task id; every key must be seen by exactly the
  // task matching its source partition.
  const int parallelism = 3;
  std::vector<std::string> sample = {"a", "f", "k", "p", "z"};
  auto partitioner = std::make_shared<datampi::RangePartitioner>(
      datampi::RangePartitioner::FromSample(sample, parallelism));
  const auto lines = RandomLines(37, 200);

  for (const auto& info : engine::Engines()) {
    auto eng = info.make();
    Plan plan;
    StageSpec source;
    source.name = "source";
    source.job = CountingJob(parallelism);
    source.job.input = engine::LinesAsInput(lines);
    source.job.partitioner = partitioner;
    const int src = plan.AddStage(std::move(source));

    StageSpec tag;
    tag.name = "tag";
    tag.job.parallelism = parallelism;
    tag.job.map_fn = [](std::string_view word, std::string_view,
                        MapContext* ctx) -> Status {
      return ctx->Emit(word, std::to_string(ctx->task_id()));
    };
    tag.job.reduce_fn = EmitAllReduce;
    plan.AddStage(std::move(tag), {{src, EdgeKind::kNarrow}});

    auto out = eng->RunPlan(plan);
    ASSERT_TRUE(out.ok()) << info.name << ": " << out.status();
    int64_t checked = 0;
    for (const auto& kv : out->Merged()) {
      EXPECT_EQ(std::stoi(kv.value),
                partitioner->Partition(kv.key, parallelism))
          << info.name << " key " << kv.key;
      ++checked;
    }
    EXPECT_GT(checked, 0) << info.name;
  }
}

// ---- Diamond + independent branches ----

TEST(RuntimeTest, DiamondTopologyMergesBothBranches) {
  const auto lines = RandomLines(51, 150);
  for (const auto& info : engine::Engines()) {
    auto eng = info.make();
    Plan plan;
    StageSpec source;
    source.name = "source";
    source.job = PassThroughJob(2);
    source.job.input = engine::LinesAsInput(lines);
    const int src = plan.AddStage(std::move(source));

    auto branch = [&](const char* name, const char* prefix) {
      StageSpec stage;
      stage.name = name;
      stage.job.parallelism = 2;
      stage.job.map_fn = [prefix](std::string_view key, std::string_view,
                                  MapContext* ctx) -> Status {
        return ctx->Emit(std::string(prefix) + std::string(key), "1");
      };
      stage.job.reduce_fn = SumReduce;
      return plan.AddStage(std::move(stage), {{src, EdgeKind::kWide}});
    };
    const int left = branch("left", "L");
    const int right = branch("right", "R");

    StageSpec join;
    join.name = "join";
    join.job = PassThroughJob(1);
    plan.AddStage(std::move(join), {{left, EdgeKind::kWide},
                                    {right, EdgeKind::kWide}});
    auto out = eng->RunPlan(plan);
    ASSERT_TRUE(out.ok()) << info.name << ": " << out.status();
    EXPECT_EQ(out->stats.stage_count, 4) << info.name;
    int64_t left_records = 0, right_records = 0;
    for (const auto& kv : out->Merged()) {
      ASSERT_FALSE(kv.key.empty());
      if (kv.key[0] == 'L') ++left_records;
      if (kv.key[0] == 'R') ++right_records;
    }
    // The diamond's join sees both branches, which tagged the same
    // records with different prefixes.
    EXPECT_GT(left_records, 0) << info.name;
    EXPECT_EQ(left_records, right_records) << info.name;
  }
}

TEST(RuntimeTest, IndependentBranchesAllExecute) {
  auto eng = engine::MakeEngine("datampi");
  ASSERT_TRUE(eng.ok());
  Plan plan;
  for (int chain = 0; chain < 2; ++chain) {
    StageSpec a;
    a.name = "chain" + std::to_string(chain) + "-a";
    a.job = CountingJob(2);
    a.job.input = engine::LinesAsInput(RandomLines(60 + chain, 80));
    const int ida = plan.AddStage(std::move(a));
    StageSpec b;
    b.name = "chain" + std::to_string(chain) + "-b";
    b.job = PassThroughJob(2);
    plan.AddStage(std::move(b), {{ida, EdgeKind::kWide}});
  }
  auto out = (*eng)->RunPlan(plan);
  ASSERT_TRUE(out.ok()) << out.status();
  // All four stages ran even though only the last chain feeds the plan
  // output.
  EXPECT_EQ(out->stats.stage_count, 4);
  for (const auto& stage : out->stats.stages) {
    EXPECT_GT(stage.output_records, 0) << stage.name;
  }
  EXPECT_FALSE(out->Merged().empty());
}

// ---- State edges: binders and pass-through skipping ----

TEST(RuntimeTest, BinderSeesStateAndCanSkipStages) {
  const auto lines = RandomLines(71, 100);
  for (const auto& info : engine::Engines()) {
    auto eng = info.make();
    Plan plan;
    StageSpec count;
    count.name = "count";
    count.job = CountingJob(2);
    count.job.input = engine::LinesAsInput(lines);
    const int count_id = plan.AddStage(std::move(count));

    // The skipping stage forwards the counting stage's output.
    StageSpec skipped;
    skipped.name = "skipped";
    skipped.job = PassThroughJob(2);
    skipped.binder = [](const std::vector<KVPair>& state,
                        engine::JobSpec* job) -> Status {
      if (state.empty()) {
        return Status::Internal("binder saw no state");
      }
      job->map_fn = nullptr;  // decline to run
      return Status::OK();
    };
    plan.AddStage(std::move(skipped), {{count_id, EdgeKind::kState}});

    auto out = eng->RunPlan(plan);
    ASSERT_TRUE(out.ok()) << info.name << ": " << out.status();
    EXPECT_EQ(out->stats.stage_count, 1) << info.name;
    ASSERT_EQ(out->stats.stages.size(), 2u) << info.name;
    EXPECT_FALSE(out->stats.stages[0].skipped) << info.name;
    EXPECT_TRUE(out->stats.stages[1].skipped) << info.name;

    // The forwarded output equals the counting stage's own output.
    auto direct_spec = CountingJob(2);
    direct_spec.input = engine::LinesAsInput(lines);
    auto direct = info.make()->Run(direct_spec);
    ASSERT_TRUE(direct.ok()) << info.name;
    EXPECT_EQ(out->partitions, direct->partitions) << info.name;
  }
}

TEST(RuntimeTest, BinderErrorFailsThePlan) {
  auto eng = engine::MakeEngine("mapreduce");
  ASSERT_TRUE(eng.ok());
  Plan plan;
  StageSpec source;
  source.job = PassThroughJob(2);
  source.job.input = engine::LinesAsInput({"a", "b"});
  const int src = plan.AddStage(std::move(source));
  StageSpec sink;
  sink.job = PassThroughJob(2);
  sink.binder = [](const std::vector<KVPair>&, engine::JobSpec*) -> Status {
    return Status::Internal("binder boom");
  };
  plan.AddStage(std::move(sink), {{src, EdgeKind::kState}});
  auto out = (*eng)->RunPlan(plan);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().message(), "binder boom");
}

// ---- Error propagation from a failing mid-plan stage ----

TEST(RuntimeTest, MidPlanStageErrorPropagatesOnEveryEngine) {
  const auto lines = RandomLines(83, 60);
  for (const auto& info : engine::Engines()) {
    auto eng = info.make();
    Plan plan;
    StageSpec source;
    source.name = "source";
    source.job = PassThroughJob(2);
    source.job.input = engine::LinesAsInput(lines);
    const int src = plan.AddStage(std::move(source));

    StageSpec boom;
    boom.name = "boom";
    boom.job.parallelism = 2;
    boom.job.map_fn = [](std::string_view, std::string_view,
                         MapContext*) -> Status {
      return Status::Internal("stage boom");
    };
    boom.job.reduce_fn = EmitAllReduce;
    const int boom_id =
        plan.AddStage(std::move(boom), {{src, EdgeKind::kWide}});

    StageSpec never;
    never.name = "never";
    never.job = PassThroughJob(2);
    plan.AddStage(std::move(never), {{boom_id, EdgeKind::kWide}});

    auto out = eng->RunPlan(plan);
    ASSERT_FALSE(out.ok()) << info.name;
    EXPECT_EQ(out.status().message(), "stage boom") << info.name;
  }
}

// ---- rddlite wide-stage spill round trip ----

TEST(RuntimeTest, RddWideStageSpillsInsteadOfOomUnderTinyBudget) {
  const auto lines = RandomLines(97, 2000);
  auto rdd = engine::MakeEngine("rddlite");
  ASSERT_TRUE(rdd.ok());

  JobSpec sort = PassThroughJob(4);
  sort.input = engine::LinesAsInput(lines);

  // Reference: unbounded run.
  auto reference = (*rdd)->Run(sort);
  ASSERT_TRUE(reference.ok()) << reference.status();

  // Spark 0.8 semantics: a budget below the shuffle size dies with OOM.
  JobSpec tight = sort;
  tight.memory_budget_bytes = 16 << 10;
  auto oom = engine::MakeEngine("rddlite").value()->Run(tight);
  ASSERT_FALSE(oom.ok());
  EXPECT_TRUE(oom.status().IsOutOfMemory()) << oom.status();

  // Spark 0.9+ mode: same budget, but the wide stage spills run files
  // and the job finishes with byte-identical output.
  JobSpec spill = tight;
  spill.rdd_shuffle_spill = true;
  spill.spill_block_bytes = 4 << 10;
  auto spilled = engine::MakeEngine("rddlite").value()->Run(spill);
  ASSERT_TRUE(spilled.ok()) << spilled.status();
  EXPECT_GT(spilled->stats.spill_count, 0);
  EXPECT_GT(spilled->stats.spill_bytes_raw, 0);
  EXPECT_GT(spilled->stats.spill_bytes_on_disk, 0);
  EXPECT_GT(spilled->stats.blocks_read, 0);
  EXPECT_EQ(spilled->partitions, reference->partitions);
}

// ---- Pipelined narrow edges (batch channel) ----

/// count -> rekey chain over a narrow edge; used both in barrier and
/// pipelined mode (byte-identical output required).
Plan NarrowChain(const std::vector<std::string>& lines, int parallelism) {
  Plan plan;
  StageSpec count;
  count.name = "count";
  count.job = CountingJob(parallelism);
  count.job.input = engine::LinesAsInput(lines);
  const int count_id = plan.AddStage(std::move(count));

  StageSpec rekey;
  rekey.name = "rekey";
  rekey.job.parallelism = parallelism;
  rekey.job.map_fn = [](std::string_view word, std::string_view count,
                        MapContext* ctx) -> Status {
    std::string key(count);
    key.insert(0, 12 - std::min<size_t>(12, key.size()), '0');
    key.push_back('\x01');
    key.append(word);
    return ctx->Emit(key, count);
  };
  rekey.job.reduce_fn = EmitAllReduce;
  const int rekey_id =
      plan.AddStage(std::move(rekey), {{count_id, EdgeKind::kNarrow}});

  StageSpec gather;
  gather.name = "gather";
  gather.job = PassThroughJob(1);
  plan.AddStage(std::move(gather), {{rekey_id, EdgeKind::kWide}});
  return plan;
}

TEST(PipelineTest, PipelinedNarrowEdgeIsByteIdenticalOnEveryEngine) {
  const auto lines = RandomLines(113, 400);
  std::vector<std::vector<KVPair>> reference;
  for (const auto& info : engine::Engines()) {
    Plan barrier = NarrowChain(lines, 3);
    auto barrier_out = info.make()->RunPlan(barrier);
    ASSERT_TRUE(barrier_out.ok()) << info.name << ": "
                                  << barrier_out.status();
    EXPECT_FALSE(barrier_out->stats.stages[1].pipelined) << info.name;

    Plan pipelined = NarrowChain(lines, 3);
    pipelined.options().pipeline_narrow_edges = true;
    // Tiny batches + a tight bound so the test exercises many pushes,
    // pulls and backpressure stalls, not one bulk transfer.
    pipelined.options().pipeline_batch_records = 7;
    pipelined.options().pipeline_channel_batches = 2;
    auto pipelined_out = info.make()->RunPlan(pipelined);
    ASSERT_TRUE(pipelined_out.ok()) << info.name << ": "
                                    << pipelined_out.status();
    EXPECT_TRUE(pipelined_out->stats.stages[1].pipelined) << info.name;
    EXPECT_FALSE(pipelined_out->stats.stages[0].pipelined) << info.name;

    EXPECT_EQ(pipelined_out->partitions, barrier_out->partitions)
        << info.name;
    // Pipelined mode must not change what the stages compute.
    EXPECT_EQ(pipelined_out->stats.output_records,
              barrier_out->stats.output_records)
        << info.name;
    if (reference.empty()) {
      reference = pipelined_out->partitions;
    } else {
      EXPECT_EQ(pipelined_out->partitions, reference) << info.name;
    }
  }
}

TEST(PipelineTest, ChainedPipelinedEdgesOverlapThreeStages) {
  // source -> double -> tag, all narrow and all pipelined: the middle
  // stage consumes and produces streams at the same time.
  const auto lines = RandomLines(127, 300);
  for (const auto& info : engine::Engines()) {
    auto build = [&](bool pipeline) {
      Plan plan;
      StageSpec source;
      source.name = "source";
      source.job = CountingJob(2);
      source.job.input = engine::LinesAsInput(lines);
      const int src = plan.AddStage(std::move(source));
      StageSpec doubled;
      doubled.name = "double";
      doubled.job.parallelism = 2;
      doubled.job.map_fn = [](std::string_view word, std::string_view count,
                              MapContext* ctx) -> Status {
        return ctx->Emit(word, std::to_string(2 * std::stoll(
                                   std::string(count))));
      };
      doubled.job.reduce_fn = EmitAllReduce;
      const int dbl =
          plan.AddStage(std::move(doubled), {{src, EdgeKind::kNarrow}});
      StageSpec tag;
      tag.name = "tag";
      tag.job = PassThroughJob(2);
      plan.AddStage(std::move(tag), {{dbl, EdgeKind::kNarrow}});
      plan.options().pipeline_narrow_edges = pipeline;
      plan.options().pipeline_batch_records = 5;
      plan.options().pipeline_channel_batches = 2;
      return plan;
    };
    auto barrier = info.make()->RunPlan(build(false));
    ASSERT_TRUE(barrier.ok()) << info.name << ": " << barrier.status();
    auto pipelined = info.make()->RunPlan(build(true));
    ASSERT_TRUE(pipelined.ok()) << info.name << ": " << pipelined.status();
    EXPECT_EQ(pipelined->partitions, barrier->partitions) << info.name;
    EXPECT_TRUE(pipelined->stats.stages[1].pipelined) << info.name;
    EXPECT_TRUE(pipelined->stats.stages[2].pipelined) << info.name;
  }
}

TEST(PipelineTest, MidStreamProducerFailureCancelsConsumerVerbatim) {
  const auto lines = RandomLines(131, 400);
  for (const auto& info : engine::Engines()) {
    Plan plan;
    StageSpec source;
    source.name = "source";
    source.job = CountingJob(2);
    source.job.input = engine::LinesAsInput(lines);
    // Fail mid-reduce, after some groups were already streamed to the
    // consumer: the consumer must surface the producer's error
    // verbatim, not hang and not return partial output.
    auto groups_seen = std::make_shared<std::atomic<int>>(0);
    source.job.reduce_fn = [groups_seen](
                               std::string_view key,
                               const std::vector<std::string>& values,
                               ReduceEmitter* out) -> Status {
      if (groups_seen->fetch_add(1) > 20) {
        return Status::Internal("producer boom");
      }
      return SumReduce(key, values, out);
    };
    const int src = plan.AddStage(std::move(source));
    StageSpec sink;
    sink.name = "sink";
    sink.job = PassThroughJob(2);
    plan.AddStage(std::move(sink), {{src, EdgeKind::kNarrow}});
    plan.options().pipeline_narrow_edges = true;
    plan.options().pipeline_batch_records = 3;
    plan.options().pipeline_channel_batches = 2;

    auto out = info.make()->RunPlan(plan);
    ASSERT_FALSE(out.ok()) << info.name;
    EXPECT_EQ(out.status().message(), "producer boom") << info.name;
  }
}

TEST(PipelineTest, FailingConsumerAbortsBlockedProducer) {
  // The consumer dies on its first record while the producer still has
  // everything to push through a 1-batch window: the producer must be
  // unblocked (Cancel) instead of deadlocking on backpressure, and the
  // consumer's error must win.
  const auto lines = RandomLines(137, 500);
  for (const auto& info : engine::Engines()) {
    Plan plan;
    StageSpec source;
    source.name = "source";
    source.job = CountingJob(2);
    source.job.input = engine::LinesAsInput(lines);
    const int src = plan.AddStage(std::move(source));
    StageSpec sink;
    sink.name = "sink";
    sink.job.parallelism = 2;
    sink.job.map_fn = [](std::string_view, std::string_view,
                         MapContext*) -> Status {
      return Status::Internal("consumer boom");
    };
    sink.job.reduce_fn = EmitAllReduce;
    plan.AddStage(std::move(sink), {{src, EdgeKind::kNarrow}});
    plan.options().pipeline_narrow_edges = true;
    plan.options().pipeline_batch_records = 2;
    plan.options().pipeline_channel_batches = 1;

    auto out = info.make()->RunPlan(plan);
    ASSERT_FALSE(out.ok()) << info.name;
    EXPECT_EQ(out.status().message(), "consumer boom") << info.name;
  }
}

TEST(PipelineTest, SkippedProducerForwardsStateOutputIntoTheStream) {
  // count -> (state) skipped -> (narrow, pipelined) sink: the skipped
  // pass-through has no reduce tasks of its own, so the scheduler feeds
  // the forwarded partitions into the channel itself.
  const auto lines = RandomLines(139, 150);
  for (const auto& info : engine::Engines()) {
    auto build = [&](bool pipeline) {
      Plan plan;
      StageSpec count;
      count.name = "count";
      count.job = CountingJob(2);
      count.job.input = engine::LinesAsInput(lines);
      const int count_id = plan.AddStage(std::move(count));
      StageSpec skipped;
      skipped.name = "skipped";
      skipped.job = PassThroughJob(2);
      skipped.binder = [](const std::vector<KVPair>&,
                          engine::JobSpec* job) -> Status {
        job->map_fn = nullptr;  // decline to run
        return Status::OK();
      };
      const int skip_id =
          plan.AddStage(std::move(skipped), {{count_id, EdgeKind::kState}});
      StageSpec sink;
      sink.name = "sink";
      sink.job = PassThroughJob(2);
      plan.AddStage(std::move(sink), {{skip_id, EdgeKind::kNarrow}});
      plan.options().pipeline_narrow_edges = pipeline;
      plan.options().pipeline_batch_records = 4;
      return plan;
    };
    auto barrier = info.make()->RunPlan(build(false));
    ASSERT_TRUE(barrier.ok()) << info.name << ": " << barrier.status();
    auto pipelined = info.make()->RunPlan(build(true));
    ASSERT_TRUE(pipelined.ok()) << info.name << ": " << pipelined.status();
    EXPECT_TRUE(pipelined->stats.stages[1].skipped) << info.name;
    EXPECT_EQ(pipelined->partitions, barrier->partitions) << info.name;
  }
}

TEST(PipelineTest, GrepTopKPipelinedMatchesBarrier) {
  const auto lines = RandomLines(149, 600);
  for (const auto& info : engine::Engines()) {
    workloads::EngineConfig barrier_config;
    auto eng = info.make();
    auto barrier = workloads::GrepTopK(*eng, lines, "ab", 5, barrier_config);
    ASSERT_TRUE(barrier.ok()) << info.name << ": " << barrier.status();

    workloads::EngineConfig pipelined_config;
    pipelined_config.pipeline_narrow_edges = true;
    engine::EngineStats stats;
    auto pipelined =
        workloads::GrepTopK(*eng, lines, "ab", 5, pipelined_config, &stats);
    ASSERT_TRUE(pipelined.ok()) << info.name << ": " << pipelined.status();
    EXPECT_EQ(pipelined->top, barrier->top) << info.name;
    EXPECT_EQ(pipelined->total_matches, barrier->total_matches) << info.name;
    ASSERT_EQ(stats.stages.size(), 2u) << info.name;
    EXPECT_TRUE(stats.stages[1].pipelined) << info.name;
  }
}

TEST(PipelineTest, ConsumerWaitingOnProducersDescendantFallsBackToBarrier) {
  // P -> B (wide), and C takes a narrow edge from P *plus* a state edge
  // from B. C cannot start pulling until B finishes, and B waits for P
  // to complete — pipelining P -> C would park P on backpressure
  // forever (regression: the eligibility analysis must see the
  // transitive dependency and keep the barrier handoff).
  const auto lines = RandomLines(157, 2500);
  for (const auto& info : engine::Engines()) {
    Plan plan;
    StageSpec p;
    p.name = "p";
    p.job = CountingJob(2);
    p.job.input = engine::LinesAsInput(lines);
    const int pid = plan.AddStage(std::move(p));
    StageSpec b;
    b.name = "b";
    b.job = PassThroughJob(2);
    const int bid = plan.AddStage(std::move(b), {{pid, EdgeKind::kWide}});
    StageSpec c;
    c.name = "c";
    c.job = PassThroughJob(2);
    c.binder = [](const std::vector<KVPair>& state,
                  engine::JobSpec*) -> Status {
      return state.empty() ? Status::Internal("binder saw no state")
                           : Status::OK();
    };
    plan.AddStage(std::move(c), {{pid, EdgeKind::kNarrow},
                                 {bid, EdgeKind::kState}});
    plan.options().pipeline_narrow_edges = true;
    // A tiny window: if P -> C were (incorrectly) pipelined, P would
    // block after the first batches and the plan would hang.
    plan.options().pipeline_batch_records = 2;
    plan.options().pipeline_channel_batches = 1;

    auto out = info.make()->RunPlan(plan);
    ASSERT_TRUE(out.ok()) << info.name << ": " << out.status();
    EXPECT_FALSE(out->stats.stages[2].pipelined) << info.name;
    EXPECT_FALSE(out->Merged().empty()) << info.name;
  }
}

// ---- rddlite stage execution: parallel map tasks ----

/// Bounded barrier: Arrive() returns true once `parties` callers have
/// arrived, or false after 5 s, so a test of concurrency fails instead
/// of hanging when the tasks run one after another.
class Rendezvous {
 public:
  explicit Rendezvous(int parties) : parties_(parties) {}

  bool Arrive() {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    MutexLock lock(mu_);
    ++arrived_;
    cv_.NotifyAll();
    while (arrived_ < parties_) {
      if (std::chrono::steady_clock::now() >= deadline) return false;
      cv_.WaitFor(mu_, std::chrono::milliseconds(20));
    }
    return true;
  }

 private:
  const int parties_;
  Mutex mu_;
  CondVar cv_;
  int arrived_ DMB_GUARDED_BY(mu_) = 0;
};

/// Records which threads ran a callback and the most that ran at once.
class ThreadCensus {
 public:
  void Enter() {
    MutexLock lock(mu_);
    threads_.insert(std::this_thread::get_id());
    max_running_ = std::max(max_running_, ++running_);
  }
  void Leave() {
    MutexLock lock(mu_);
    --running_;
  }
  size_t threads() {
    MutexLock lock(mu_);
    return threads_.size();
  }
  int max_running() {
    MutexLock lock(mu_);
    return max_running_;
  }

 private:
  Mutex mu_;
  std::set<std::thread::id> threads_ DMB_GUARDED_BY(mu_);
  int running_ DMB_GUARDED_BY(mu_) = 0;
  int max_running_ DMB_GUARDED_BY(mu_) = 0;
};

TEST(RddStageTest, MapTasksOfOneStageRunAtTheSameTime) {
  constexpr int kParallelism = 3;
  for (const bool with_combiner : {false, true}) {
    auto rendezvous = std::make_shared<Rendezvous>(kParallelism);
    auto census = std::make_shared<ThreadCensus>();
    JobSpec spec = CountingJob(kParallelism);
    spec.input = engine::LinesAsInput(RandomLines(151, 90));
    if (with_combiner) workloads::UseInt64Sum(&spec);
    // Each map task's first record waits for every other task's.
    spec.map_fn = [rendezvous, census](std::string_view key,
                                       std::string_view line,
                                       MapContext* ctx) -> Status {
      census->Enter();
      Status st;
      if (std::stoi(std::string(key)) % 30 == 0 && !rendezvous->Arrive()) {
        st = Status::Internal("map tasks did not run at the same time");
      }
      workloads::ForEachToken(line, [&](std::string_view tok) {
        if (st.ok()) st = ctx->Emit(tok, "1");
      });
      census->Leave();
      return st;
    };
    spec.reduce_fn = [census](std::string_view key,
                              const std::vector<std::string>& values,
                              ReduceEmitter* out) -> Status {
      census->Enter();
      const Status st = SumReduce(key, values, out);
      census->Leave();
      return st;
    };
    auto out = engine::MakeEngine("rddlite").value()->Run(spec);
    ASSERT_TRUE(out.ok()) << out.status();
    // One pool of task slots serves both phases.
    EXPECT_LE(census->threads(), static_cast<size_t>(kParallelism));
    EXPECT_EQ(census->max_running(), kParallelism);
  }
}

TEST(RddStageTest, PipelinedMapFailureEndsTheStageWhileASiblingDrains) {
  // Partition 0's map task fails mid-stream; partition 1's producer
  // never closes on its own, so its map task only stops draining when
  // the failure aborts the stream. The stage must end with the map
  // task's status verbatim.
  shuffle::BatchChannelGroup::Options options;
  options.partitions = 2;
  options.batch_records = 1;
  options.max_buffered_batches = 2;
  auto channel = std::make_shared<shuffle::BatchChannelGroup>(options);
  std::atomic<int64_t> sibling_pushed{0};
  Status producer_status;
  const auto started = std::chrono::steady_clock::now();
  std::thread producer([&] {
    for (int i = 0; i < 3 && producer_status.ok(); ++i) {
      producer_status = channel->Push(0, {KVPair{"k" + std::to_string(i), "1"}});
    }
    if (producer_status.ok()) {
      producer_status = channel->Push(0, {KVPair{"poison", "1"}});
    }
    const auto deadline = started + std::chrono::seconds(5);
    while (producer_status.ok() && std::chrono::steady_clock::now() < deadline) {
      producer_status = channel->Push(1, {KVPair{"s", "1"}});
      ++sibling_pushed;
    }
    channel->CloseAll(Status::OK());
  });

  JobSpec spec = PassThroughJob(2);
  spec.stream_input = channel;
  spec.map_fn = [](std::string_view key, std::string_view value,
                   MapContext* ctx) -> Status {
    if (key == "poison") return Status::Internal("map boom");
    return ctx->Emit(key, value);
  };
  auto out = engine::MakeEngine("rddlite").value()->Run(spec);
  producer.join();
  const auto elapsed = std::chrono::steady_clock::now() - started;
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().message(), "map boom") << out.status();
  // The abort reached the producer (its push failed with the same
  // status) well before its 5 s fallback.
  EXPECT_EQ(producer_status.message(), "map boom") << producer_status;
  EXPECT_LT(elapsed, std::chrono::seconds(4));
  EXPECT_GT(sibling_pushed.load(), 0);
}

// ---- Batch channel semantics (backpressure, cancel) ----

// rddlite's wide stage writes its map outputs into the collector through
// an InOrderQueue: parent-partition order, each output as soon as every
// earlier one is in, so only outputs that finished early stay resident.
TEST(InOrderQueueTest, HandsOutEachItemAsSoonAsEveryEarlierOneIsTaken) {
  InOrderQueue<int> queue(3);
  queue.Put(1, 10);
  EXPECT_EQ(queue.held(), 1u);
  queue.Put(0, 0);
  EXPECT_EQ(queue.Next(), std::optional<int>(0));
  EXPECT_EQ(queue.held(), 1u) << "item 1 waits for its turn only";
  EXPECT_EQ(queue.Next(), std::optional<int>(10));
  EXPECT_EQ(queue.held(), 0u);
  queue.Put(2, 20);
  EXPECT_EQ(queue.Next(), std::optional<int>(20));
  EXPECT_EQ(queue.Next(), std::nullopt) << "every item taken";
}

TEST(InOrderQueueTest, StopDropsHeldAndLaterItemsAndEndsAWaitingNext) {
  InOrderQueue<int> queue(3);
  queue.Put(1, 10);
  std::optional<int> got = 0;
  std::thread consumer([&queue, &got] { got = queue.Next(); });
  // The consumer waits for item 0, which never comes.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.Stop();
  consumer.join();
  EXPECT_EQ(got, std::nullopt);
  EXPECT_EQ(queue.held(), 0u);
  queue.Put(0, 0);
  EXPECT_EQ(queue.held(), 0u);
  EXPECT_EQ(queue.Next(), std::nullopt);
}

TEST(InOrderQueueTest, ConcurrentProducersStillComeOutInOrder) {
  constexpr int kThreads = 4;
  constexpr int kItems = 400;
  InOrderQueue<int> queue(kItems);
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    // Each producer puts its share from the back, so most items arrive
    // ahead of an earlier one.
    producers.emplace_back([&queue, t] {
      for (int i = kItems - kThreads + t; i >= 0; i -= kThreads) {
        queue.Put(static_cast<size_t>(i), i);
      }
    });
  }
  std::vector<int> got;
  while (std::optional<int> item = queue.Next()) got.push_back(*item);
  for (auto& p : producers) p.join();
  std::vector<int> want(kItems);
  for (int i = 0; i < kItems; ++i) want[static_cast<size_t>(i)] = i;
  EXPECT_EQ(got, want);
  EXPECT_EQ(queue.held(), 0u);
}

TEST(BatchChannelTest, SlowConsumerNeverBuffersMoreThanTheBound) {
  shuffle::BatchChannelGroup::Options options;
  options.partitions = 1;
  options.batch_records = 4;
  options.max_buffered_batches = 2;
  shuffle::BatchChannelGroup channel(options);

  constexpr int kBatches = 50;
  std::thread producer([&] {
    for (int i = 0; i < kBatches; ++i) {
      std::vector<KVPair> batch;
      batch.push_back(KVPair{std::to_string(i), "v"});
      ASSERT_TRUE(channel.Push(0, std::move(batch)).ok());
    }
    channel.Close(0, Status::OK());
  });

  // Slow consumer: yield between pulls so the producer keeps running
  // into the bound.
  std::vector<KVPair> batch;
  int pulled = 0;
  for (;;) {
    auto more = channel.Pull(0, &batch);
    ASSERT_TRUE(more.ok()) << more.status();
    if (!*more) break;
    EXPECT_EQ(batch[0].key, std::to_string(pulled));
    ++pulled;
    std::this_thread::yield();
  }
  producer.join();
  EXPECT_EQ(pulled, kBatches);
  EXPECT_EQ(channel.records_pushed(), kBatches);
  // The backpressure guarantee: the producer was never more than
  // max_buffered_batches ahead of the consumer.
  EXPECT_LE(channel.max_buffered_batches_seen(), 2u);
}

TEST(BatchChannelTest, CloseWithErrorReachesConsumerAfterBufferedBatches) {
  shuffle::BatchChannelGroup::Options options;
  options.partitions = 1;
  shuffle::BatchChannelGroup channel(options);
  ASSERT_TRUE(channel.Push(0, {KVPair{"k", "v"}}).ok());
  channel.Close(0, Status::Internal("mid-stream boom"));

  std::vector<KVPair> batch;
  auto first = channel.Pull(0, &batch);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(*first);  // the buffered batch drains first
  auto second = channel.Pull(0, &batch);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().message(), "mid-stream boom");
}

TEST(BatchChannelTest, OkCancelDropsPushesErrorCancelFailsThem) {
  shuffle::BatchChannelGroup::Options options;
  options.partitions = 1;
  options.max_buffered_batches = 1;
  shuffle::BatchChannelGroup dropper(options);
  dropper.Cancel(Status::OK());
  // Pushes are dropped silently (consumer finished without the data) —
  // even past the bound, so a producer can never block on a dead
  // consumer.
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(dropper.Push(0, {KVPair{"k", "v"}}).ok());
  }
  EXPECT_EQ(dropper.batches_pushed(), 0);

  shuffle::BatchChannelGroup failer(options);
  failer.Cancel(Status::Internal("consumer died"));
  auto st = failer.Push(0, {KVPair{"k", "v"}});
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.message(), "consumer died");
}

// ---- Early release of intermediate stage outputs ----

TEST(RuntimeTest, IntermediateOutputsAreReleasedWhenLastConsumerFinishes) {
  // chain: a -> b -> c (wide edges). a must be released once b is done,
  // b once c is done; c is the plan output and is never released early.
  const auto lines = RandomLines(151, 120);
  Plan plan;
  StageSpec a;
  a.name = "a";
  a.job = CountingJob(2);
  a.job.input = engine::LinesAsInput(lines);
  const int ida = plan.AddStage(std::move(a));
  StageSpec b;
  b.name = "b";
  b.job = PassThroughJob(2);
  const int idb = plan.AddStage(std::move(b), {{ida, EdgeKind::kWide}});
  StageSpec c;
  c.name = "c";
  c.job = PassThroughJob(1);
  plan.AddStage(std::move(c), {{idb, EdgeKind::kWide}});

  auto eng = engine::MakeEngine("mapreduce");
  ASSERT_TRUE(eng.ok());
  Mutex mu;  // local, shared only with the callback. lint:allow(mutex-unguarded)
  std::vector<int> released;
  SchedulerOptions options;
  options.on_stage_output_released = [&](int stage_id) {
    MutexLock lock(mu);
    released.push_back(stage_id);
  };
  StageScheduler scheduler(eng->get(), plan, options);
  auto out = scheduler.Execute();
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_FALSE(out->Merged().empty());
  // Both intermediate outputs were dropped before the plan finished;
  // the output stage's never is.
  EXPECT_EQ(released, (std::vector<int>{ida, idb}));
  // Stats survive the release: the summed plan stats still include the
  // released stages.
  EXPECT_EQ(out->stats.stage_count, 3);
  EXPECT_GT(out->stats.stages[0].output_records, 0);
}

// ---- Stage pool width is a per-plan decision ----

TEST(RuntimeTest, BarrierOnlyPlanDoesNotWidenStagePool) {
  // Pipelining is requested but every edge is wide, so nothing actually
  // pipelines — the pool must stay at max_concurrent_stages even though
  // the plan has more stages than that.
  const auto lines = RandomLines(61, 60);
  Plan plan;
  StageSpec src;
  src.name = "src";
  src.job = CountingJob(2);
  src.job.input = engine::LinesAsInput(lines);
  int prev = plan.AddStage(std::move(src));
  for (int i = 0; i < 4; ++i) {
    StageSpec s;
    s.name = "s" + std::to_string(i);
    s.job = PassThroughJob(2);
    prev = plan.AddStage(std::move(s), {{prev, EdgeKind::kWide}});
  }
  plan.options().pipeline_narrow_edges = true;

  auto eng = engine::MakeEngine("mapreduce");
  ASSERT_TRUE(eng.ok());
  SchedulerOptions options;
  options.max_concurrent_stages = 2;
  int width = 0;
  options.on_pool_width = [&](int pool_threads) { width = pool_threads; };
  StageScheduler scheduler(eng->get(), plan, options);
  auto out = scheduler.Execute();
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(width, 2);
}

TEST(RuntimeTest, PipelinedPlanWidensStagePoolToStageCount) {
  // A chain that actually pipelines may hold every stage resident at
  // once (producers park on backpressure until consumers run), so the
  // pool widens to the stage count — and only then.
  const auto lines = RandomLines(67, 60);
  Plan plan;
  StageSpec src;
  src.name = "src";
  src.job = CountingJob(2);
  src.job.input = engine::LinesAsInput(lines);
  int prev = plan.AddStage(std::move(src));
  for (int i = 0; i < 2; ++i) {
    StageSpec s;
    s.name = "s" + std::to_string(i);
    s.job = PassThroughJob(2);
    prev = plan.AddStage(std::move(s), {{prev, EdgeKind::kNarrow}});
  }
  plan.options().pipeline_narrow_edges = true;

  auto eng = engine::MakeEngine("mapreduce");
  ASSERT_TRUE(eng.ok());
  SchedulerOptions options;
  options.max_concurrent_stages = 1;
  int width = 0;
  options.on_pool_width = [&](int pool_threads) { width = pool_threads; };
  StageScheduler scheduler(eng->get(), plan, options);
  auto out = scheduler.Execute();
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(width, 3);
}

// ---- Per-job cancellation (SchedulerOptions::cancel) ----

TEST(CancelTest, CancelBeforeFirstStageSubmitsRunsNothing) {
  // A token that fired before Execute cancels the plan without running
  // a single map record, and its status comes back verbatim.
  const auto lines = RandomLines(171, 50);
  for (const auto& info : engine::Engines()) {
    auto records_mapped = std::make_shared<std::atomic<int>>(0);
    Plan plan;
    StageSpec count;
    count.job = CountingJob(2);
    count.job.input = engine::LinesAsInput(lines);
    auto inner = count.job.map_fn;
    count.job.map_fn = [records_mapped, inner](
                           std::string_view key, std::string_view value,
                           MapContext* ctx) -> Status {
      records_mapped->fetch_add(1);
      return inner(key, value, ctx);
    };
    const int src = plan.AddStage(std::move(count));
    StageSpec sink;
    sink.job = PassThroughJob(2);
    plan.AddStage(std::move(sink), {{src, EdgeKind::kNarrow}});

    SchedulerOptions options;
    options.cancel = std::make_shared<CancelToken>();
    options.cancel->Cancel(Status::Cancelled("cancelled before submit"));
    auto out = info.make()->RunPlan(plan, options);
    ASSERT_FALSE(out.ok()) << info.name;
    EXPECT_EQ(out.status().code(), StatusCode::kCancelled) << info.name;
    EXPECT_EQ(out.status().message(), "cancelled before submit") << info.name;
    EXPECT_EQ(records_mapped->load(), 0) << info.name;
  }
}

TEST(CancelTest, CancelMidPlanUnblocksPipelinedProducerAndConsumer) {
  // A pipelined plan parked on both sides of a 1-batch channel window —
  // the producer on backpressure, the consumer grinding slowly through
  // records — must unwind promptly when the token fires, returning the
  // token's status verbatim (the same fan-out as a stage failure).
  const auto lines = RandomLines(173, 1500);
  for (const auto& info : engine::Engines()) {
    Plan plan;
    StageSpec source;
    source.name = "source";
    source.job = CountingJob(2);
    source.job.input = engine::LinesAsInput(lines);
    const int src = plan.AddStage(std::move(source));
    auto sink_seen = std::make_shared<std::atomic<int>>(0);
    StageSpec sink;
    sink.name = "sink";
    sink.job.parallelism = 2;
    sink.job.map_fn = [sink_seen](std::string_view key, std::string_view value,
                                  MapContext* ctx) -> Status {
      sink_seen->fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      return ctx->Emit(key, value);
    };
    sink.job.reduce_fn = EmitAllReduce;
    plan.AddStage(std::move(sink), {{src, EdgeKind::kNarrow}});
    plan.options().pipeline_narrow_edges = true;
    plan.options().pipeline_batch_records = 2;
    plan.options().pipeline_channel_batches = 1;

    SchedulerOptions options;
    options.cancel = std::make_shared<CancelToken>();
    auto eng = info.make();
    Result<PlanOutput> out = Status::Internal("not run");
    std::thread runner(
        [&] { out = eng->RunPlan(plan, options); });
    // Wait until records are flowing (producer is far ahead of the
    // 1-batch window by then), then pull the plug.
    while (sink_seen->load() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    options.cancel->Cancel(Status::Cancelled("client cancel"));
    runner.join();
    ASSERT_FALSE(out.ok()) << info.name;
    EXPECT_EQ(out.status().code(), StatusCode::kCancelled) << info.name;
    EXPECT_EQ(out.status().message(), "client cancel") << info.name;
  }
}

TEST(CancelTest, DeadlineExpiryStatusSurfacesVerbatim) {
  // Deadline enforcement is just a timer firing the token: the exact
  // Cancelled status it carries must be what Execute returns.
  const auto lines = RandomLines(179, 800);
  for (const auto& info : engine::Engines()) {
    Plan plan;
    StageSpec slow;
    slow.job = CountingJob(2);
    slow.job.input = engine::LinesAsInput(lines);
    auto inner = slow.job.map_fn;
    slow.job.map_fn = [inner](std::string_view key, std::string_view value,
                              MapContext* ctx) -> Status {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      return inner(key, value, ctx);
    };
    plan.AddStage(std::move(slow));

    SchedulerOptions options;
    options.cancel = std::make_shared<CancelToken>();
    std::thread deadline([cancel = options.cancel] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      cancel->Cancel(Status::Cancelled("deadline of 20ms exceeded"));
    });
    auto out = info.make()->RunPlan(plan, options);
    deadline.join();
    ASSERT_FALSE(out.ok()) << info.name;
    EXPECT_EQ(out.status().message(), "deadline of 20ms exceeded")
        << info.name;
  }
}

TEST(RuntimeTest, ConcurrentRunPlansShareShuffleParallelCacheSafely) {
  // Engine::ShuffleParallel caches one ParallelContext keyed on the
  // spec's knobs; concurrent RunPlan calls with different knobs churn
  // that cache. Every run must still be correct (each call holds its
  // own shared_ptr while its tasks execute) — and TSan must stay quiet
  // over this test in check.sh's race pass.
  const auto lines = RandomLines(181, 400);
  for (const auto& info : engine::Engines()) {
    auto eng = info.make();
    auto build = [&](int shuffle_threads) {
      Plan plan;
      StageSpec count;
      count.job = CountingJob(2);
      count.job.input = engine::LinesAsInput(lines);
      count.job.shuffle_threads = shuffle_threads;
      // Per-thread thresholds force distinct cache keys, so the cache
      // is actually swapped while other runs hold the old context.
      count.job.parallel_sort_threshold = 16 * shuffle_threads;
      plan.AddStage(std::move(count));
      return plan;
    };
    auto reference = eng->RunPlan(build(1));
    ASSERT_TRUE(reference.ok()) << info.name << ": " << reference.status();

    constexpr int kThreads = 4;
    constexpr int kRounds = 3;
    std::vector<Status> failures(kThreads, Status::OK());
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int round = 0; round < kRounds; ++round) {
          const Plan plan = build(2 + (t + round) % 3);
          auto out = eng->RunPlan(plan);
          if (!out.ok()) {
            failures[static_cast<size_t>(t)] = out.status();
            return;
          }
          if (out->partitions != reference->partitions) {
            failures[static_cast<size_t>(t)] =
                Status::Internal("output mismatch");
            return;
          }
        }
      });
    }
    for (auto& thread : threads) thread.join();
    for (const Status& st : failures) {
      EXPECT_TRUE(st.ok()) << info.name << ": " << st;
    }
  }
}

}  // namespace
}  // namespace dmb::runtime
