#!/usr/bin/env bash
# CI gate: build, tests, lints, race/chaos smoke, and the benchmark
# smoke, with per-stage wall-clock timings.
#
#   ./ci.sh          full gate — everything below (chaos + perf)
#   ./ci.sh quick    quick gate: debug tests, clippy, golden EXPLAIN
#                    snapshots, the kernel-differential suite, one
#                    parallel-suite run, the kill-point quick slice,
#                    the quick shard-differential slice, unwrap gate —
#                    skips the release build, the full chaos suites,
#                    and the smokes
#   ./ci.sh chaos    common stages + the fault/concurrency suites:
#                    default-thread parallel run, chaos property suite,
#                    shared-store suite, 120-seed recovery sweep, WAL
#                    fuzz, full shard differential + dead-shard chaos
#   ./ci.sh perf     common stages + release build, the benchmark smoke
#                    (wiring and answers, never a rate), and the
#                    E24/E26 smokes
#
# `chaos` and `perf` partition the full gate's slow tail so CI can run
# them as parallel jobs; `full` remains their union for local use.
set -euo pipefail
cd "$(dirname "$0")"

mode="${1:-full}"
case "$mode" in
quick | chaos | perf | full) ;;
*)
    echo "usage: $0 [quick|chaos|perf|full]" >&2
    exit 2
    ;;
esac
run_chaos=false
run_perf=false
if [ "$mode" = chaos ] || [ "$mode" = full ]; then run_chaos=true; fi
if [ "$mode" = perf ] || [ "$mode" = full ]; then run_perf=true; fi
total_start=$SECONDS

# stage <name> <command...> — runs the command, echoing the stage name
# before and its wall-clock seconds after.
stage() {
    local name="$1"
    shift
    echo "==> $name"
    local start=$SECONDS
    "$@"
    echo "    (${name}: $((SECONDS - start))s)"
}

if $run_perf; then
    stage "cargo build --release" cargo build --release --workspace
fi

stage "cargo fmt --check" cargo fmt --all --check

stage "cargo test -q (tier-1: root package)" cargo test -q

stage "cargo test -q --workspace" cargo test -q --workspace

stage "cargo clippy -- -D warnings" \
    cargo clippy --workspace --all-targets -- -D warnings

# Golden EXPLAIN snapshots: the planner's rendered plans (logical plan,
# rewrite passes, physical grouping sets) for ~10 pinned queries must not
# drift. Runs in quick mode too — it is fast and catches unintended
# planner changes early.
stage "golden EXPLAIN snapshots" cargo test -q --test explain_golden

# Kernel-differential gate: the batched executor must be bit-identical to
# the frozen tuple-at-a-time interpreter across all five workload
# generators, every privacy policy, and every summary function — and the
# storage chunk kernels must match their scalar oracles. Runs in every
# mode: it is the correctness proof of the vectorized execution path.
stage "kernel-differential suite (batched vs interpreter)" \
    cargo test -q --test kernel_differential

# Kernel-law property suite: merge monoid (associative, commutative,
# identity), selection-vector masking, and derive/merge commutation over
# generated blocks — bit-exact, 128 cases each.
stage "kernel property suite" cargo test -q --test prop_kernels

# Race smoke test: the parallel property suite under a serialized test
# harness (workers still spawn inside each test) and — chaos mode — under
# the default parallel harness too. Catches scheduling-dependent
# flakiness without loom.
stage "parallel suite, RUST_TEST_THREADS=1" \
    env RUST_TEST_THREADS=1 cargo test -q --test prop_parallel
if $run_chaos; then
    stage "parallel suite, default test threads" \
        cargo test -q --test prop_parallel
fi

# Differential maintenance gate: incremental apply_delta must equal a full
# rebuild bit-for-bit across all five workload generators, growth deltas,
# and rejected batches. Runs in quick mode too — it is the correctness
# proof of the incremental maintenance path.
stage "differential maintenance suite" cargo test -q --test delta_maintenance

# Scatter-gather differential gate: the sharded store must answer bit-for
# bit like the unsharded store it partitions — all generators, policies,
# routers, shard counts, filtered/pruned slices, routed deltas. Quick and
# perf modes run the quick_ slice; chaos/full run the whole suite
# including the 120-seed dead-shard chaos sweep.
if $run_chaos; then
    stage "shard differential suite (full + dead-shard chaos)" \
        cargo test -q --test shard_differential
else
    stage "shard differential quick slice" \
        cargo test -q --test shard_differential quick_
fi

# Chaos gate: the fault-injection property suite — cached and uncached
# serving paths bit-identical to the oracle or typed errors across 120
# seeded fault plans, including delta publication atomicity under armed
# injectors — plus the shared-store concurrency suite (snapshot
# isolation, targeted invalidation, N-reader/1-writer generation checks).
if $run_chaos; then
    stage "chaos suite" cargo test -q --test chaos_property
    stage "shared-store concurrency suite" cargo test -q --test shared_store
fi

# Recovery-chaos gate: kill the durable writer at every protocol step and
# prove recovery lands bit-for-bit pre- or post-delta, never hybrid, with
# every commit-stamped batch present. Chaos mode runs the 120-seed sweep
# across all five generators plus the WAL fuzz properties; other modes
# run one seed through all five kill points and the torn-append mode.
if $run_chaos; then
    stage "recovery-chaos suite (120-seed kill-point sweep)" \
        cargo test -q --test recovery_chaos
    stage "WAL decoder fuzz suite" cargo test -q --test prop_wal_fuzz
else
    stage "recovery-chaos quick (all kill points, one seed)" \
        cargo test -q --test recovery_chaos kill_points_quick
fi

# No-new-unwrap gate: user-reachable library code in the sql, cube,
# storage, and privacy crates — and the core planner/executor and
# operator-algebra modules under it — must not grow new panic sites.
# Counts `.unwrap()`/`.expect(` in non-test lib code (everything before
# the `#[cfg(test)]` module) against a recorded baseline. All
# grandfathered sites were purged (typed errors, infallible fallbacks,
# or panic-propagating joins); keep it at 0.
unwrap_gate() {
    local unwrap_baseline=0
    local unwrap_count
    unwrap_count=$(
        for f in crates/sql/src/*.rs crates/cube/src/*.rs \
            crates/storage/src/*.rs crates/privacy/src/*.rs \
            crates/core/src/plan/*.rs crates/core/src/ops/*.rs; do
            awk '/#\[cfg\(test\)\]/{exit} {print}' "$f"
        done | grep -c '\.unwrap()\|\.expect(' || true
    )
    echo "    $unwrap_count panic sites (baseline $unwrap_baseline)"
    if [ "$unwrap_count" -gt "$unwrap_baseline" ]; then
        echo "ERROR: new .unwrap()/.expect() in gated lib code" >&2
        echo "       ($unwrap_count found, baseline $unwrap_baseline)." >&2
        echo "       Return a typed Error instead, or justify and bump the baseline." >&2
        exit 1
    fi
}
stage "no-new-unwrap gate" unwrap_gate

# Benchmark smoke (perf mode): the end-to-end benchmark in the form
# BENCHMARK.json runs it (its own package, release), on the tiny smoke
# dataset with every workload traced, a few seconds in all. It exits
# non-zero when any answer disagrees with the store-free executor or
# recovery with a rebuild ("correct": false). CI checks wiring and answers
# here, never a rate.
if $run_perf; then
    stage "benchmark smoke (all workloads, answers verified)" \
        cargo run --release --quiet \
        --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- --smoke
fi

# Observability smoke (perf mode): profile one CUBE query end to end and
# print the span tree + metrics snapshot (E24). Fails if tracing breaks.
if $run_perf; then
    stage "observability smoke (E24 metrics snapshot)" \
        cargo run -q -p statcube-bench --bin experiments -- exp24
fi

# Planner-ablation smoke (perf mode): E26 re-measures what each rewrite
# pass buys on retail and asserts in-line that every ablation returns
# identical rows. Fails if a rewrite changes answers or stops paying off.
if $run_perf; then
    stage "planner rewrite ablation smoke (E26)" \
        cargo run -q -p statcube-bench --bin experiments -- exp26
fi

echo "CI gate ($mode) passed in $((SECONDS - total_start))s."
