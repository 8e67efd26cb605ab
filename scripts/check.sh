#!/usr/bin/env bash
# Tier-1 verify plus a ThreadSanitizer pass over the concurrency-heavy
# tests (DESIGN.md §8, §9) and a bench smoke against the committed
# hot-path baseline.
#
#   scripts/check.sh              # full: tier-1 build+ctest, socket subset, TSan subset, ASan+UBSan ctest (1 GiB allocation cap), bench + profiler + optimizer (with the GEMM object guard) + input smoke
#   scripts/check.sh --tsan-only
#   scripts/check.sh --asan-only
#   scripts/check.sh --bench-only
#   scripts/check.sh --socket-only
#   scripts/check.sh --profiler-only
#   scripts/check.sh --optimizer-only
#   scripts/check.sh --input-only
#
# The TSan build lives in build-tsan/ so it never pollutes the regular
# build/ tree.

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc)"
TSAN_TESTS=(metrics_test tracing_test fault_tolerance_test queue_test
            threadpool_test rendezvous_stress_test chaos_test
            serving_test session_stress_test optimizer_fuzz_test
            dataset_test kernels_test rpc_transport_test distributed_test)
# Three chaos seeds and five fuzz and session-differential seeds under
# TSan keep the pass under a few minutes; the full sweeps run in the
# regular tier-1 ctest. Of kernels_test only the MatMul, GEMM and
# convolution cases run: they split products across pool threads
# (DESIGN.md §15). The session differential runs in-process here (no
# TFREPRO_TRANSPORT).
declare -A TSAN_FILTER=(
  [chaos_test]="--gtest_filter=ChaosTest.Seed0:ChaosTest.Seed1:ChaosTest.Seed2"
  [optimizer_fuzz_test]="--gtest_filter=OptimizerFuzzTest.Seed0:OptimizerFuzzTest.Seed1:OptimizerFuzzTest.Seed2:OptimizerFuzzTest.Seed3:OptimizerFuzzTest.Seed4"
  [kernels_test]="--gtest_filter=*GemmTest.*:KernelsTest.MatMul*:KernelsTest.Conv2D*:WindowTest.*"
  [distributed_test]="--gtest_filter=SessionDifferentialTest.Seed0:SessionDifferentialTest.Seed1:SessionDifferentialTest.Seed2:SessionDifferentialTest.Seed3:SessionDifferentialTest.Seed4"
)

run_tier1() {
  echo "== tier-1: configure + build + ctest =="
  cmake -B build -S .
  cmake --build build -j "$JOBS"
  (cd build && ctest --output-on-failure -j "$JOBS")
}

# Socket-transport subset (DESIGN.md §11): the distributed suite re-run
# with every task as a real worker_main process, the orphan case (a worker
# whose master goes away exits on its own), the SIGKILL chaos smoke, the
# acknowledged-Send cases (a failed SendTensor ack fails the step) and the
# worker-to-worker push cases. All are also tier-1 ctest entries
# (distributed_socket_test, socket_chaos_test, rpc_transport_test); this
# target runs them standalone with hard timeouts so a wedged worker
# process can never hang the check. The orphan case runs first, on its
# own: every later run relies on workers not outliving their masters. The
# chaos smoke repeats ten times (one pass takes well under a second), so
# an abort that depends on where a kill lands still shows up.
run_socket() {
  echo "== socket transport: orphan exit + distributed_test over real processes + SIGKILL chaos + send acks + direct pushes =="
  cmake --build build -j "$JOBS" --target distributed_test socket_chaos_test \
      rpc_transport_test worker_main
  TFREPRO_WORKER_BINARY="$PWD/build/bin/worker_main" \
      timeout 30 ./build/tests/socket_chaos_test \
      --gtest_filter='SocketChaosTest.WorkerExitsWhenItsMasterGoesAway'
  TFREPRO_TRANSPORT=socket TFREPRO_WORKER_BINARY="$PWD/build/bin/worker_main" \
      timeout 300 ./build/tests/distributed_test
  TFREPRO_WORKER_BINARY="$PWD/build/bin/worker_main" \
      timeout 120 ./build/tests/socket_chaos_test --gtest_repeat=10
  timeout 60 ./build/tests/rpc_transport_test \
      --gtest_filter='WorkerSendAckTest.*:DirectTransferTest.*'
}

# Transfer cases of distributed_test re-run over TSan-built worker
# processes: cross-task pushes and acks race inside those processes, not
# in the test binary.
TSAN_SOCKET_FILTER="MasterSessionTest.CrossTaskComputation:MasterSessionTest.ParameterServerTraining:MasterSessionTest.ControlGatedReadSeesEveryPsUpdate:MasterSessionTest.RunReturnsOnlyAfterEveryTransferIsAcknowledged:SessionDifferentialTest.Seed0:SessionDifferentialTest.Seed1"

run_tsan() {
  echo "== TSan (TFREPRO_SANITIZE=thread): ${TSAN_TESTS[*]} + socket_chaos_test and distributed_test transfers over TSan worker processes =="
  cmake -B build-tsan -S . -DTFREPRO_SANITIZE=thread
  cmake --build build-tsan -j "$JOBS" --target "${TSAN_TESTS[@]}" \
      socket_chaos_test worker_main
  for t in "${TSAN_TESTS[@]}"; do
    echo "-- $t (tsan)"
    "build-tsan/tests/$t" ${TSAN_FILTER[$t]:-}
  done
  # A worker process's report would otherwise vanish with the process:
  # every TSan process writes its reports under one directory, and any
  # file there fails the gate.
  local reports
  reports="$(mktemp -d)"
  local worker="$PWD/build-tsan/bin/worker_main"
  echo "-- socket_chaos_test (tsan, TSan worker processes)"
  TSAN_OPTIONS="${TSAN_OPTIONS:+$TSAN_OPTIONS:}log_path=$reports/tsan" \
      TFREPRO_WORKER_BINARY="$worker" \
      timeout 600 build-tsan/tests/socket_chaos_test
  echo "-- distributed_test transfers over sockets (tsan, TSan worker processes)"
  TSAN_OPTIONS="${TSAN_OPTIONS:+$TSAN_OPTIONS:}log_path=$reports/tsan" \
      TFREPRO_TRANSPORT=socket TFREPRO_WORKER_BINARY="$worker" \
      timeout 600 build-tsan/tests/distributed_test \
      --gtest_filter="$TSAN_SOCKET_FILTER"
  if [ -n "$(ls -A "$reports")" ]; then
    echo "TSan FAILED: reports from the socket runs:"
    cat "$reports"/*
    exit 1
  fi
  rmdir "$reports"
}

# ASan+UBSan over all of ctest (TFREPRO_SANITIZE=address turns on both).
# No decoded count may size an allocation beyond its input (DESIGN.md
# §2.1), so any single allocation over 1 GiB aborts the case; worker
# processes inherit the cap through ASAN_OPTIONS.
run_asan() {
  echo "== ASan+UBSan (TFREPRO_SANITIZE=address): all of ctest, allocations <= 1 GiB =="
  cmake -B build-asan -S . -DTFREPRO_SANITIZE=address
  cmake --build build-asan -j "$JOBS"
  (cd build-asan &&
   ASAN_OPTIONS="${ASAN_OPTIONS:+$ASAN_OPTIONS:}max_allocation_size_mb=1024" \
     ctest --output-on-failure -j "$JOBS")
}

# Bench smoke: re-run bench_executor and fail if null-step latency
# (BM_CachedStepOverhead) or the fused-chain latency (BM_NullOpChain/1000,
# the elementwise-fusion acceptance gate) regressed >25% against the
# committed "after" baseline in BENCH_executor.json. A generous bound —
# this is a tripwire for "someone re-introduced a lock on the hot path"
# or "fusion stopped firing", not a precision benchmark; CI containers
# are noisy.
run_bench_smoke() {
  echo "== bench smoke: BM_CachedStepOverhead + BM_NullOpChain vs BENCH_executor.json =="
  cmake --build build -j "$JOBS" --target bench_executor
  local fresh=/tmp/bench_smoke_executor.json
  # TFREPRO_PROFILE_EVERY=0 pins the sampling profiler off: the null-step
  # gate doubles as the profiler's disabled-overhead guard — a profiler
  # that costs anything when disabled trips the same >25% tripwire.
  TFREPRO_PROFILE_EVERY=0 ./build/bench/bench_executor --json "$fresh" \
      --benchmark_filter='BM_CachedStepOverhead|BM_NullOpChain/1000' \
      --benchmark_min_time=0.2
  python3 - "$fresh" BENCH_executor.json <<'PYEOF'
import json, sys

fresh = json.load(open(sys.argv[1]))
baseline = json.load(open(sys.argv[2]))

def wall_ms(doc, name):
    for r in doc["results"]:
        if r["name"] == name:
            return r["wall_ms"]
    raise SystemExit(f"bench smoke: {name} missing from results")

failed = False
for name, what in [("BM_CachedStepOverhead", "null-step latency"),
                   ("BM_NullOpChain/1000", "fused-chain latency")]:
    new = wall_ms(fresh, name)
    old = wall_ms(baseline["after"], name)
    ratio = new / old
    print(f"bench smoke: {what} {new*1e6:.0f}ns vs baseline "
          f"{old*1e6:.0f}ns ({ratio:.2f}x)")
    if ratio > 1.25:
        print(f"bench smoke FAILED: {what} regressed >25% ({ratio:.2f}x)")
        failed = True
if failed:
    raise SystemExit(1)
print("bench smoke: ok")
PYEOF
}

# Serving bench smoke: short closed-loop run; fail if batched serving
# throughput fell >25% below the committed BENCH_serving.json baseline.
# Same philosophy as the executor smoke — a tripwire for "the batcher
# stopped batching", not a precision benchmark.
run_serving_bench_smoke() {
  echo "== bench smoke: serve_batched vs BENCH_serving.json =="
  cmake --build build -j "$JOBS" --target bench_serving
  local fresh=/tmp/bench_smoke_serving.json
  ./build/bench/bench_serving --seconds 1.5 --json "$fresh"
  python3 - "$fresh" BENCH_serving.json <<'PYEOF'
import json, sys

fresh = json.load(open(sys.argv[1]))
baseline = json.load(open(sys.argv[2]))

def row(doc, name):
    for r in doc["results"]:
        if r["name"] == name:
            return r
    raise SystemExit(f"bench smoke: {name} missing from results")

new = row(fresh, "serve_batched")["steps_per_s"]
old = row(baseline, "serve_batched")["steps_per_s"]
ratio = new / old
print(f"bench smoke: batched serving {new:.0f} req/s vs baseline "
      f"{old:.0f} req/s ({ratio:.2f}x)")
if ratio < 0.75:
    raise SystemExit("bench smoke FAILED: batched serving throughput "
                     f"regressed >25% ({ratio:.2f}x)")
print("bench smoke: ok")
PYEOF
}

# GEMM width objects (DESIGN.md §15), compiled from gemm_cells.cc with
# AVX2 and AVX-512F flags: objdump must find no FMA instruction in them
# (the determinism contract multiplies, then adds; -ffp-contract=off keeps
# GCC from fusing the two), and nm no non-local symbol outside each one's
# namespace tfrepro::gemm<bytes>. A library template compiled there would
# be a weak symbol the linker may hand to every caller, which would then
# fault on a CPU without that ISA. No emulator of such a CPU is at hand,
# so this symbol rule is what guards it.
check_gemm_objects() {
  cmake --build build -j "$JOBS" --target tfrepro_gemm16 tfrepro_gemm32 \
      tfrepro_gemm64
  local bytes obj code stray
  for bytes in 16 32 64; do
    obj="build/src/kernels/CMakeFiles/tfrepro_gemm$bytes.dir/gemm_cells.cc.o"
    code="$(objdump -d "$obj")"
    if grep -E 'vfn?m(add|sub)' <<< "$code"; then
      echo "gemm guard FAILED: $obj holds the FMA instructions above"
      exit 1
    fi
    stray="$(nm --defined-only "$obj" |
             awk -v ns="_ZN7tfrepro6gemm$bytes" \
                 '$2 ~ /^[A-Zu]$/ && index($3, ns) != 1 { print $3 }')"
    if [ -n "$stray" ]; then
      echo "gemm guard FAILED: $obj defines symbols outside tfrepro::gemm$bytes:"
      c++filt <<< "$stray"
      exit 1
    fi
  done
  echo "gemm guard: no FMA, no symbol outside tfrepro::gemm16/32/64 — ok"
}

# Optimizer smoke (DESIGN.md §13): the differential harness in brief.
# Five fuzz seeds compare optimized vs unoptimized executions bit-for-bit,
# the lane differential (kernels_test LaneTest.*, DESIGN.md §15) compares
# every element-wise kernel on vector lanes with its scalar loop, and the
# GEMM runs at every vector width against the ascending-k loop (GemmTest,
# after the width objects pass check_gemm_objects); then the MLP training
# example runs twice — optimizer tier off vs on — and the two loss
# trajectories (hex floats, one per step) must be byte-identical. Any
# numeric divergence introduced by a rewrite pass fails the diff.
run_optimizer_smoke() {
  echo "== optimizer smoke: fuzz seeds 0-4 + lane differential + GEMM objects and widths + mlp_training loss diff (tier off vs on) =="
  cmake --build build -j "$JOBS" --target optimizer_fuzz_test kernels_test \
      mlp_training
  ./build/tests/optimizer_fuzz_test \
      --gtest_filter='OptimizerFuzzTest.Seed0:OptimizerFuzzTest.Seed1:OptimizerFuzzTest.Seed2:OptimizerFuzzTest.Seed3:OptimizerFuzzTest.Seed4'
  ./build/tests/kernels_test --gtest_filter='LaneTest.*'
  check_gemm_objects
  ./build/tests/kernels_test --gtest_filter='*GemmTest.*'
  local off=/tmp/mlp_loss_off.txt on=/tmp/mlp_loss_on.txt
  TFREPRO_OPTIMIZER=off ./build/examples/mlp_training --steps 50 --loss-out "$off"
  ./build/examples/mlp_training --steps 50 --loss-out "$on"
  if ! cmp -s "$off" "$on"; then
    echo "optimizer smoke FAILED: loss trajectories diverge with tier on"
    diff "$off" "$on" | head -20
    exit 1
  fi
  echo "optimizer smoke: $(wc -l < "$on") steps, trajectories identical — ok"
}

# Input-pipeline smoke (DESIGN.md §14): a fresh bench_input run must hold
# the tentpole's acceptance ratio — in-graph pipeline throughput >= 2x the
# feed-dict baseline on the latency-bound workload (the real ratio runs
# ~5-7x; 2x leaves room for CI noise) — the data-service chaos test must
# pass under two different kill schedules (TFREPRO_CHAOS_SEED), and the
# ParallelMap cases run 20 times under a timeout, so a lost wake-up of the
# consumer (it is woken only by the map call it waits on) shows as a hang.
run_input_smoke() {
  echo "== input smoke: bench_input pipeline >= 2x feed_dict + data-service chaos seeds + ParallelMap repeats =="
  cmake --build build -j "$JOBS" --target bench_input data_service_test \
      dataset_test
  local fresh=/tmp/bench_smoke_input.json
  timeout 120 ./build/bench/bench_input --seconds 1.5 --json "$fresh"
  python3 - "$fresh" <<'PYEOF'
import json, sys

fresh = json.load(open(sys.argv[1]))

def rate(name):
    for r in fresh["results"]:
        if r["name"] == name:
            return r["steps_per_s"]
    raise SystemExit(f"input smoke: {name} missing from results")

pipeline, feed = rate("pipeline"), rate("feed_dict")
ratio = pipeline / feed
print(f"input smoke: pipeline {pipeline:.0f} steps/s vs feed_dict "
      f"{feed:.0f} steps/s ({ratio:.2f}x)")
if ratio < 2.0:
    raise SystemExit(f"input smoke FAILED: pipeline < 2x feed_dict ({ratio:.2f}x)")
print("input smoke: ok")
PYEOF
  for seed in 1 2; do
    echo "-- data_service_test (chaos seed $seed)"
    TFREPRO_CHAOS_SEED="$seed" timeout 120 ./build/tests/data_service_test \
        --gtest_filter='DataServiceTest.KillingPipelineTaskMidEpochLosesNothing'
  done
  echo "-- dataset_test ParallelMap cases x20"
  timeout 120 ./build/tests/dataset_test \
      --gtest_filter='DatasetTest.ParallelMap*' --gtest_repeat=20
}

# Profiler smoke (DESIGN.md §8, §12): run the distributed training example
# with sampling and tracing enabled. Every document it writes — the
# profile, both Chrome traces and the metrics snapshot — must load with
# Python's json module (NaN and Infinity rejected too); the profile must
# hold sampled steps and per-node entries; and every default-bucket
# histogram in the snapshot must list exactly
# Histogram::DefaultLatencyBucketsMs() as its bounds (1048.576, not a
# rounded 1048.58).
run_profiler_smoke() {
  echo "== profiler smoke: distributed_training --profile-out --trace-out =="
  cmake --build build -j "$JOBS" --target distributed_training
  local out
  out="$(mktemp -d)"
  TFREPRO_PROFILE_EVERY=5 timeout 300 \
      ./build/examples/distributed_training --profile-out "$out/profile.json" \
      --trace-out "$out/step"
  python3 - "$out" <<'PYEOF'
import json, os, sys

out = sys.argv[1]

def reject(constant):
    raise ValueError(f"{constant} is not JSON")

docs = {}
for name in ["profile.json", "step_async.trace.json", "step_sync.trace.json",
             "step.metrics.json"]:
    try:
        with open(os.path.join(out, name)) as f:
            docs[name] = json.load(f, parse_constant=reject)
    except ValueError as e:
        raise SystemExit(f"profiler smoke FAILED: {name} does not parse: {e}")

profile = docs["profile.json"]
steps = profile["steps"]
entries = profile["entries"]
if steps <= 0:
    raise SystemExit("profiler smoke FAILED: no sampled steps recorded")
if not entries:
    raise SystemExit("profiler smoke FAILED: no profile entries aggregated")
bad = [e for e in entries if e["count"] <= 0 or e["mean_us"] < 0]
if bad:
    raise SystemExit(f"profiler smoke FAILED: malformed entries {bad[:3]}")

# Histogram::DefaultLatencyBucketsMs(), computed the same way.
default = []
b = 0.001
while b < 200000.0:
    default.append(b)
    b *= 4.0
checked = 0
for m in docs["step.metrics.json"]["metrics"]:
    if m["kind"] != "histogram":
        continue
    bounds = [bucket["le"] for bucket in m["buckets"][:-1]]
    near = len(bounds) == len(default) and all(
        abs(x - d) <= 1e-3 * d for x, d in zip(bounds, default))
    if not near:
        continue
    checked += 1
    if bounds != default:
        raise SystemExit(f"profiler smoke FAILED: {m['name']} bounds {bounds} "
                         f"are not the default buckets {default}")
if checked == 0:
    raise SystemExit("profiler smoke FAILED: no default-bucket histogram "
                     "in the metrics snapshot")
print(f"profiler smoke: {steps} sampled steps, {len(entries)} entries, "
      f"{len(docs)} documents parse, {checked} default-bucket histograms "
      "exact — ok")
PYEOF
  rm -r "$out"
}

case "${1:-}" in
  --tsan-only)
    run_tsan
    ;;
  --asan-only)
    run_asan
    ;;
  --bench-only)
    run_bench_smoke
    run_serving_bench_smoke
    ;;
  --socket-only)
    run_socket
    ;;
  --profiler-only)
    run_profiler_smoke
    ;;
  --optimizer-only)
    run_optimizer_smoke
    ;;
  --input-only)
    run_input_smoke
    ;;
  *)
    run_tier1
    run_socket
    run_tsan
    run_asan
    run_bench_smoke
    run_serving_bench_smoke
    run_profiler_smoke
    run_optimizer_smoke
    run_input_smoke
    ;;
esac
echo "check.sh: all green"
