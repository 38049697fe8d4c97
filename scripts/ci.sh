#!/usr/bin/env bash
# CI entry point: tier-1 build + tests, then ASan/UBSan and TSan
# configurations.
#
# Test subsets are selected by CTest label (see tests/CMakeLists.txt):
# tier1 = everything, slow = full-pipeline crypto suites, thread = the
# suites the TSan stage exercises.
#
# Usage: scripts/ci.sh [--quick] [--skip-sanitize] [--static] [--faults]
#   --quick          run only `-L tier1 -LE slow` (fast edit loop;
#                    also skips the static, faults, checked-build, and
#                    TSan stages)
#   --skip-sanitize  only run the tier-1 (plain Release) configuration
#                    (no ASan/UBSan, no TSan)
#   --static         run ONLY the static-analysis stage (lint.py,
#                    clang thread-safety build, clang-tidy) and exit
#   --faults         run ONLY the fault-injection stage (see below) and
#                    exit; the stage is part of the default full run
#
# The faults stage (scripts/ci.sh --faults, or any full run) arms
# IVE_FAILPOINTS chaos recipes in the environment and re-runs tests
# under them: the quick tier-1 subset under a delay-only recipe (delays
# are semantically invisible — every suite must still pass bit-exact),
# then test_fault under the standard delay+error recipe (its fixture
# disarms per-test, so the run also proves env arming cannot leak into
# a test body and break determinism), then `bench_e2e_query --quick
# --inject`, which drives 2 shards x 2 replicas of the optimized build
# under shard.answer.delay/error and exits 1 on any byte divergence.
# The connection-preserving net.* recipe (short writes plus read
# stalls) is pinned by test_net's NetFailpoints suite, which every
# tier-1 and TSan run includes.
#
# The static stage is part of the default full run. The clang-based
# legs (thread-safety analysis, clang-tidy) self-skip with a log line
# when no clang toolchain is installed — scripts/lint.py and the
# warning-clean gcc build still gate the run — so the stage degrades
# rather than silently passing.
#
# The tier-1 stage is an explicit Release (-O3 -DNDEBUG) build: the
# lazy-reduction kernels and the benches are meaningless under Debug or
# sanitizer configurations, and a kernel bug that only bites once
# ive_assert bodies still run but NDEBUG changes codegen must be caught
# here. The suite then runs once per *runnable* SIMD backend (forced
# via IVE_FORCE_ISA; a backend whose probe fails on this CPU/build is
# skipped with a log line) plus once on the default dispatch, so the
# byte-identity contract of every backend — including test_golden's
# committed fixtures — is pinned end to end on whatever hardware CI
# has, not just the widest ISA. A dispatch smoke prints which backend
# the default leg actually exercised (a CI log that silently ran
# scalar everywhere would otherwise look green).
# After the tests it runs `bench_e2e_query --quick` as a perf smoke —
# that bench decodes the retrieved record and fails on mismatch, so the
# optimized build is exercised end to end — followed by the obs gate,
# which re-runs the quick bench with IVE_TRACE_DIR set and pins the
# tracing overhead on the median answer latency below 1% (log-only on
# single-core runners, where the comparison is scheduling noise).
#
# Every full run also builds the benchmark (perfbench/, read-only
# here): `perfbench/run.py --self-test` configures it into
# build-perfbench and runs its self-tests, then the ive_ledger target
# is built there. The ledger reads library internals (the u128
# macAccumulate table entry, ServerCounters, NetServerStats,
# RegistryStats), so a src/ change that breaks it fails CI, not the
# next benchmark run.
#
# The ASan/UBSan stage runs the same suites (including test_simd's
# backend sweeps) with the vector TUs instrumented, so out-of-bounds
# lane loads/stores in the intrinsics paths surface there. The TSan
# stage (every full run) builds the ive_thread_tests target — the
# suites labelled `thread` — and runs them instrumented.
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS=${JOBS:-$(nproc)}
SKIP_SANITIZE=0
QUICK=0
STATIC_ONLY=0
FAULTS_ONLY=0
CTEST_SELECT=(-L tier1)
for arg in "$@"; do
    case "$arg" in
        --quick) QUICK=1; CTEST_SELECT=(-L tier1 -LE slow) ;;
        --skip-sanitize) SKIP_SANITIZE=1 ;;
        --static) STATIC_ONLY=1 ;;
        --faults) FAULTS_ONLY=1 ;;
        *) echo "unknown argument: $arg" >&2; exit 2 ;;
    esac
done

# Standard chaos recipes (README "Robustness"). Delay-only is safe for
# every suite: an injected sleep must never change bytes. The full
# recipe adds shard errors, which test_fault is written to tolerate.
FAULTS_DELAY_RECIPE="shard.answer.delay=every:7,arg=2"
FAULTS_FULL_RECIPE="shard.answer.delay=every:5,arg=2;shard.answer.error=nth:3"

run_faults_stage() {
    echo "=== faults: quick tier-1 under delay-only IVE_FAILPOINTS ==="
    IVE_FAILPOINTS="$FAULTS_DELAY_RECIPE" \
        ctest --test-dir build --output-on-failure -j "$JOBS" \
        -L tier1 -LE slow
    echo "=== faults: test_fault under the delay+error recipe ==="
    IVE_FAILPOINTS="$FAULTS_FULL_RECIPE" \
        ctest --test-dir build --output-on-failure -R '^test_fault$'
    echo "=== faults: replicated failover, bench_e2e_query --inject ==="
    (cd build/bench && ./bench_e2e_query --quick --inject --out /dev/null)
}

run_static_stage() {
    echo "=== static: scripts/lint.py (self-test, then repo) ==="
    if command -v python3 > /dev/null 2>&1; then
        python3 scripts/lint.py --self-test
        python3 scripts/lint.py
    else
        echo "=== static: python3 not found, lint skipped ==="
    fi

    echo "=== static: clang thread-safety analysis build ==="
    if command -v clang++ > /dev/null 2>&1; then
        # IVE_WARNING_FLAGS adds -Wthread-safety -Werror=thread-safety
        # under clang, so this build fails on any annotation violation
        # in common/annotations.hh users. IVE_WERROR hardens the rest.
        cmake -B build-tsa -S . -DCMAKE_BUILD_TYPE=Release \
              -DCMAKE_CXX_COMPILER=clang++ -DIVE_WERROR=ON \
              -DIVE_BUILD_BENCHES=OFF -DIVE_BUILD_EXAMPLES=OFF
        cmake --build build-tsa -j "$JOBS"
    else
        echo "=== static: clang++ not found, thread-safety build skipped ==="
    fi

    echo "=== static: clang-tidy (.clang-tidy, WarningsAsErrors) ==="
    if command -v clang-tidy > /dev/null 2>&1; then
        cmake -B build-tidy -S . -DCMAKE_BUILD_TYPE=Release \
              -DIVE_CLANG_TIDY=ON \
              -DIVE_BUILD_BENCHES=OFF -DIVE_BUILD_EXAMPLES=OFF
        cmake --build build-tidy -j "$JOBS"
    else
        echo "=== static: clang-tidy not found, skipped ==="
    fi
}

if [ "$STATIC_ONLY" -eq 1 ]; then
    run_static_stage
    echo "=== static stage passed ==="
    exit 0
fi

if [ "$FAULTS_ONLY" -eq 1 ]; then
    echo "=== faults: Release build ==="
    cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
    cmake --build build -j "$JOBS"
    run_faults_stage
    echo "=== faults stage passed ==="
    exit 0
fi

if [ "$QUICK" -eq 0 ]; then
    run_static_stage
fi

echo "=== tier-1: Release build + ctest ==="
cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build -j "$JOBS"

echo "=== dispatch smoke: selected SIMD backend ==="
./build/tests/test_simd \
    --gtest_filter=Simd.DispatchResolvesToRunnableBackend

for isa in scalar avx2 avx512; do
    # Probe first: forcing an ISA this CPU/build cannot run aborts by
    # design, which must read as "skipped", not as a test failure.
    if ! IVE_FORCE_ISA="$isa" ./build/tests/test_simd \
        --gtest_filter=Simd.DispatchResolvesToRunnableBackend \
        > /dev/null 2>&1; then
        echo "=== tier-1 ctest: IVE_FORCE_ISA=$isa not runnable here, skipped ==="
        continue
    fi
    echo "=== tier-1 ctest: IVE_FORCE_ISA=$isa ==="
    IVE_FORCE_ISA="$isa" \
        ctest --test-dir build --output-on-failure -j "$JOBS" \
        "${CTEST_SELECT[@]}"
done

echo "=== tier-1 ctest: default dispatch ==="
ctest --test-dir build --output-on-failure -j "$JOBS" "${CTEST_SELECT[@]}"

if [ "$QUICK" -eq 0 ]; then
    run_faults_stage
fi

echo "=== perf smoke: bench_e2e_query --quick (Release, NDEBUG) ==="
(cd build/bench && ./bench_e2e_query --quick --out /dev/null)

# Telemetry overhead gate: the serving path is instrumented always-on
# (stage histograms + byte counters), and IVE_TRACE_DIR additionally
# captures per-query Chrome traces. Compare the quick bench's median
# 1-thread answer latency with tracing off vs on; the capture path must
# stay under 1% (plus a small absolute guard for timer noise on the
# sub-ms quick ring). Medians, not means: the tracer caps itself at 16
# trace files, so the 16 capture-and-write queries are outliers by
# design. Enforced only with >= 2 cores — on single-core runners the
# numbers are scheduling noise, so the gate logs instead of failing.
echo "=== obs gate: tracing overhead < 1% on quick answer p50 ==="
(cd build/bench && ./bench_e2e_query --quick --out obs_off.json)
OBS_TRACE_DIR=$(mktemp -d)
(cd build/bench &&
    IVE_TRACE_DIR="$OBS_TRACE_DIR" ./bench_e2e_query --quick \
        --out obs_on.json)
ls "$OBS_TRACE_DIR"/trace_*.json > /dev/null # Capture really ran.
OBS_ENFORCE=$([ "$(nproc)" -ge 2 ] && echo 1 || echo 0)
python3 - build/bench/obs_off.json build/bench/obs_on.json \
    "$OBS_ENFORCE" <<'EOF'
import json, sys
def p50_ms(path):
    pts = {p["threads"]: p for p in json.load(open(path))["points"]}
    return pts[1]["answer_p50_ms"]
off, on = p50_ms(sys.argv[1]), p50_ms(sys.argv[2])
overhead = on / off - 1.0 if off > 0 else 0.0
ok = on <= off * 1.01 + 0.05  # 1% relative + 50us absolute guard.
print(f"answer p50 1-thread: {off:.3f} ms off, {on:.3f} ms traced "
      f"({overhead * 100.0:+.2f}%)")
if sys.argv[3] != "1":
    print("obs gate: single-core runner, logged only")
    sys.exit(0)
sys.exit(0 if ok else 1)
EOF
rm -rf "$OBS_TRACE_DIR"

# Parallel-scaling gate: the full bench sweeps thread counts up to
# nproc, and the answer speedup at the largest swept count T >= 2 must
# be at least T / 2 (a 4-core host measured 3.37x at 4 threads). It is
# skipped under --quick and on single-core runners, where no count
# >= 2 is swept.
if [ "$QUICK" -eq 0 ] && [ "$(nproc)" -ge 2 ]; then
    echo "=== perf gate: answer speedup >= threads / 2 at nproc ==="
    (cd build/bench && ./bench_e2e_query --out ci_bench.json)
    python3 - build/bench/ci_bench.json <<'EOF'
import json, sys
points = {p["threads"]: p for p in json.load(open(sys.argv[1]))["points"]}
top = max(points)
speedup = points[1]["answer_ms"] / points[top]["answer_ms"]
print(f"{top}-thread answer speedup: {speedup:.2f}x "
      f"(gate >= {0.5 * top:.1f}x)")
sys.exit(0 if speedup >= 0.5 * top else 1)
EOF
else
    echo "=== perf gate: skipped (--quick or single core: $(nproc)) ==="
fi

if [ "$QUICK" -eq 0 ]; then
    echo "=== benchmark build: perfbench self-test + ive_ledger ==="
    CARGO_TARGET_DIR=build-perfbench python3 perfbench/run.py --self-test
    cmake --build build-perfbench -j "$JOBS" --target ive_ledger
fi

if [ "$QUICK" -eq 0 ]; then
    echo "=== checked build: IVE_CHECK_RANGES=ON + scalar tier-1 ==="
    # The scalar backend audits every documented lazy-range bound
    # (src/poly/simd/kernels_scalar.cc); forcing scalar dispatch runs
    # the whole pipeline through the audited kernels, including every
    # u64 MAC chain's no-wrap contract (each link's raw sum stays below
    # 2^64, the bound kernels::fusedMacOk sizes chains by) and the
    # digit decomposer's canonical-input contract. test_contracts
    # additionally proves the audits *fire* on corrupted values.
    cmake -B build-checked -S . -DCMAKE_BUILD_TYPE=Release \
          -DIVE_CHECK_RANGES=ON \
          -DIVE_BUILD_BENCHES=OFF -DIVE_BUILD_EXAMPLES=OFF
    cmake --build build-checked -j "$JOBS"
    IVE_FORCE_ISA=scalar \
        ctest --test-dir build-checked --output-on-failure -j "$JOBS" \
        "${CTEST_SELECT[@]}"
fi

if [ "$SKIP_SANITIZE" -eq 0 ]; then
    echo "=== ASan/UBSan build + ctest ==="
    cmake -B build-asan -S . -DIVE_SANITIZE=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo \
          -DIVE_BUILD_BENCHES=OFF -DIVE_BUILD_EXAMPLES=OFF
    cmake --build build-asan -j "$JOBS"
    # Death tests fork; ASan's allocator makes that slow but correct.
    # The serde suites' malformed-blob sweeps run here with full
    # over-read detection.
    ctest --test-dir build-asan --output-on-failure -j "$JOBS" \
          "${CTEST_SELECT[@]}"
fi

if [ "$SKIP_SANITIZE" -eq 0 ] && [ "$QUICK" -eq 0 ]; then
    echo "=== TSan build + thread-heavy suites (-L thread) ==="
    cmake -B build-tsan -S . -DIVE_TSAN=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo \
          -DIVE_BUILD_BENCHES=OFF -DIVE_BUILD_EXAMPLES=OFF
    cmake --build build-tsan -j "$JOBS" --target ive_thread_tests
    ctest --test-dir build-tsan --output-on-failure -L thread
fi

echo "=== CI passed ==="
