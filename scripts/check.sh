#!/usr/bin/env bash
# CI check: run the project lint gate (scripts/lint.py + its
# self-test), configure (warnings-as-errors), build, run the test
# suite, run the io/shuffle tests again under UBSan
# (-DDMB_SANITIZE=undefined) with the WaitGraph deadlock detector armed
# (-DDMB_VALIDATE=ON),
# run the shuffle/io/runtime tests under TSan (-DDMB_SANITIZE=thread —
# the intra-task parallel sort/spill/merge paths, the batch channel and
# the stage scheduler are the tree's heavily concurrent structures),
# then build every bench binary explicitly (build-only; no long
# benchmark runs) and diff the JSON bench harnesses against the
# committed BENCH_*.json baselines. Every build passes -j "$(nproc)":
# a bare -j starts an unbounded number of compiler jobs.
#
# Usage: scripts/check.sh        (no arguments; knobs via environment)
#
#   CHECK_ASAN=1      also build the io/shuffle/engine/core/runtime/
#                     datagen tests under AddressSanitizer and run them
#                     (datagen_test covers the LZ decoder, which writes
#                     through raw pointers into a presized buffer).
#   CHECK_NO_LINT=1   skip the project lint gate (scripts/lint.py) and
#                     its self-test.
#   CHECK_TIDY=1      also run clang-tidy (curated .clang-tidy profile)
#                     over src/ against build/compile_commands.json.
#                     Needs clang-tidy on PATH; skipped with a notice
#                     otherwise.
#   CHECK_NO_BENCH=1  skip the bench-diff perf gate entirely (machines
#                     where wall-clock timing is meaningless: emulators,
#                     heavily shared CI runners).
#   BENCH_DIFF_TOL=F  fractional perf-regression tolerance for the
#                     bench-diff gate (default 0.5 = 50%; see
#                     scripts/bench_diff.py, which also takes --update
#                     to refresh the committed baselines in place).
set -euo pipefail
cd "$(dirname "$0")/.."

# Project lint gate first: it needs no build and fails fast on
# discarded Status returns, raw std::thread use outside the owners,
# unguarded mutex members, banned nondeterminism, and missing header
# guards. The self-test proves the rules still fire on the known-bad
# fixtures (a linter that silently stopped matching is worse than none).
if [ "${CHECK_NO_LINT:-0}" != "1" ]; then
  echo "check.sh: project lint gate (scripts/lint.py)"
  python3 scripts/lint.py
  python3 scripts/lint.py --self-test
fi

# The whole tree must build warning-clean under -Wall -Wextra. The
# build type is pinned: GCC 12 emits -Wrestrict false positives on
# operator+(const char*, string&&) at -O3, so a stale Release cache
# would turn them into -Werror failures the default RelWithDebInfo
# (-O2) build never sees.
cmake -B build -S . -DDMB_WERROR=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build -j "$(nproc)"
(cd build && ctest --output-on-failure -j)

# The spill I/O layer does enough byte-twiddling (varints, checksums,
# block codecs) that its tests also run under UBSan on every check; the
# stage-DAG runtime joins them because its scheduler is the one
# concurrent component above the engines, and the datagen tests cover
# the LZ match finder's pointer/offset arithmetic (radix sort and the
# hash-chain compressor both live under these suites). service_test
# joins every sanitizer pass: the JobServer's admission/dispatch/cancel
# paths cross worker, reaper, and scheduler threads. cache_test joins
# both passes: the StageCache spill/restore path re-encodes partitions
# through the checksummed run-file codec (UBSan), and cached datasets
# are shared across concurrently scheduled plans (TSan). workloads_test
# joins the UBSan pass for the shared int64 sum: its decimal parse and
# overflow paths (the hash-mode fold, the combiner's wide total) run
# under every engine there. core_test joins both passes: DataMPI's O and
# A ranks run concurrently over mpilite, and both sides parse and fold
# int64 partials (the O-side send buffers and the A-side store are
# hash-folding collectors), so its jobs exercise the fold's parse and
# overflow paths (UBSan) and the rank threads' shared counters and
# mailboxes (TSan). No other suite runs those ranks under a sanitizer.
# Both sanitizer passes also arm the WaitGraph deadlock detector
# (-DDMB_VALIDATE=ON): every suite then runs with waiter->holder edge
# tracking live, so a lock-cycle regression aborts with the full cycle
# instead of hanging the runner, and validate_test exercises the
# detector itself (injected cycles must fire, healthy workloads must
# not).
echo "check.sh: UBSan pass (io + shuffle + runtime + datagen + service + cache + validate + workloads + core tests)"
cmake -B build-ubsan -S . -DDMB_SANITIZE=undefined -DDMB_WERROR=ON -DDMB_VALIDATE=ON
cmake --build build-ubsan -j "$(nproc)" --target io_test shuffle_test runtime_test datagen_test service_test cache_test validate_test workloads_test core_test
(cd build-ubsan && ctest --output-on-failure -R '^(io|shuffle|runtime|datagen|service|cache|validate|workloads|core)_test$')

# The pipelined narrow edges run a bounded producer/consumer channel
# between concurrently executing stages — runtime_test must stay clean
# under ThreadSanitizer (races, lock-order inversions, cv misuse).
# shuffle_test and io_test join it: the intra-task parallelism layer
# (parallel radix sub-sorts, overlapped spill-block encoding, concurrent
# partition spills, merge-time block prefetch) shares one ParallelContext
# pool across tasks and must be race-free at every thread count.
# core_test joins it for DataMPI's concurrent O/A rank threads (see the
# UBSan note above).
echo "check.sh: TSan pass (shuffle + io + runtime + service + cache + rddlite + validate + core tests)"
cmake -B build-tsan -S . -DDMB_SANITIZE=thread -DDMB_WERROR=ON -DDMB_VALIDATE=ON
cmake --build build-tsan -j "$(nproc)" --target shuffle_test io_test runtime_test service_test cache_test rddlite_test validate_test core_test
(cd build-tsan && ctest --output-on-failure -R '^(shuffle|io|runtime|service|cache|rddlite|validate|core)_test$')

# Clang's -Wthread-safety is what actually checks the DMB_GUARDED_BY /
# DMB_REQUIRES annotations (gcc compiles them away), so when a clang is
# available the library gets a dedicated warning-clean build under it.
if command -v clang++ > /dev/null 2>&1; then
  echo "check.sh: clang -Wthread-safety pass (library + tests)"
  cmake -B build-clang -S . -DCMAKE_CXX_COMPILER=clang++ -DDMB_WERROR=ON
  cmake --build build-clang -j "$(nproc)" --target dmb_core validate_test runtime_test
else
  echo "check.sh: clang++ not found; skipping -Wthread-safety pass" \
       "(annotations are still lint-checked and TSan-covered)"
fi

# Opt-in clang-tidy sweep over the library against the exported compile
# database, using the curated profile in .clang-tidy (bugprone-*,
# concurrency-*, performance-*; concurrency findings are errors).
if [ "${CHECK_TIDY:-0}" = "1" ]; then
  if command -v clang-tidy > /dev/null 2>&1; then
    echo "check.sh: clang-tidy pass (src/, profile .clang-tidy)"
    find src -name '*.cc' -print0 \
      | xargs -0 clang-tidy -p build --quiet
  else
    echo "check.sh: CHECK_TIDY=1 but clang-tidy not found; skipping"
  fi
fi

BENCH_TARGETS=(
  fig2a_dfsio_tuning
  fig2b_slots_tuning
  fig3_micro
  fig4_profile
  fig5_small_jobs
  fig6_applications
  fig7_summary
  ablation_pipeline
  shuffle_bench
  service_bench
  cache_bench
)
# micro_components needs google-benchmark; build it when configured.
if [ -f build/CMakeCache.txt ] && grep -q "^benchmark_DIR:PATH=[^-]" build/CMakeCache.txt; then
  BENCH_TARGETS+=(micro_components)
fi
for target in "${BENCH_TARGETS[@]}"; do
  cmake --build build --target "$target"
done

# Perf trajectory: re-run the JSON-emitting bench harnesses and diff
# against the committed baselines. The tolerance is generous by design
# (structural regressions, not noise) and tunable via BENCH_DIFF_TOL;
# CHECK_NO_BENCH=1 skips the gate entirely on machines where wall-clock
# timing is meaningless. Refresh baselines by appending --update to the
# bench_diff.py invocations below (rewrites the committed BENCH_*.json
# from the fresh run after printing the diff).
if [ "${CHECK_NO_BENCH:-0}" != "1" ]; then
  echo "check.sh: bench-diff gate (vs BENCH_shuffle.json / BENCH_service.json / BENCH_cache.json / BENCH_micro.json)"
  ./build/shuffle_bench --json build/bench_shuffle_current.json > /dev/null
  python3 scripts/bench_diff.py BENCH_shuffle.json build/bench_shuffle_current.json
  ./build/service_bench --jobs 1000 --json build/bench_service_current.json > /dev/null
  python3 scripts/bench_diff.py BENCH_service.json build/bench_service_current.json
  # The k-means timings swing hard on shared 1-2 core runners (the
  # uncached leg is the noisy one), so they get a 100% leash; the sort
  # legs keep the default, and the speedup/width metrics are
  # informational by unit.
  ./build/cache_bench --json build/bench_cache_current.json > /dev/null
  python3 scripts/bench_diff.py BENCH_cache.json build/bench_cache_current.json \
    --tol 'cache/kmeans_*=1.0'
  if [ -x build/micro_components ]; then
    ./build/micro_components --benchmark_min_time=0.05 \
      --json build/bench_micro_current.json > /dev/null 2>&1
    python3 scripts/bench_diff.py BENCH_micro.json build/bench_micro_current.json
  fi
fi

if [ "${CHECK_ASAN:-0}" = "1" ]; then
  # datagen_test joins this pass: the LZ encoder and decoder write
  # through raw pointers into presized buffers, and its hand-made
  # streams drive the decoder's over-length literal and match paths.
  echo "check.sh: ASan pass (io + shuffle + engine + core + runtime + service + validate + datagen tests)"
  cmake -B build-asan -S . -DDMB_ASAN=ON -DDMB_WERROR=ON -DDMB_VALIDATE=ON
  cmake --build build-asan -j "$(nproc)" --target io_test shuffle_test engine_test core_test runtime_test service_test validate_test datagen_test
  (cd build-asan && ctest --output-on-failure -R '^(io|shuffle|engine|core|runtime|service|validate|datagen)_test$')
fi

echo "check.sh: all green"
