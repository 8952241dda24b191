#!/usr/bin/env bash
# Local CI gate: everything a PR must pass.
#
#   scripts/ci.sh            # build + test + fmt + clippy + doc
#   DIFF_STRICT=1 scripts/ci.sh     # make the long differential sweep fatal
#   BENCH_STRICT=1 scripts/ci.sh    # make benchmark regressions fatal
#   TREND_STRICT=1 scripts/ci.sh    # make cross-run trend regressions fatal
#
# The 200-case differential sweep is advisory by default — it is the long
# randomized tier of a harness whose quick tier already gates fatally;
# build, tests, formatting, clippy and rustdoc (both `-D warnings`) are
# always fatal.

set -uo pipefail
cd "$(dirname "$0")/.."

failed=0
step() {
    local name="$1"
    shift
    echo "==> $name: $*"
    if "$@"; then
        echo "==> $name: OK"
    else
        echo "==> $name: FAILED"
        failed=1
    fi
    echo
}

step "build" cargo build --workspace --release
# The test suite runs twice: serial (the rayon pool degraded to one
# thread) and at 4 threads. The determinism policy (DESIGN.md) promises
# identical results either way; both configurations must stay green.
step "test (RAYON_NUM_THREADS=1)" env RAYON_NUM_THREADS=1 cargo test --workspace -q
step "test (RAYON_NUM_THREADS=4)" env RAYON_NUM_THREADS=4 cargo test --workspace -q
# Quick differential tier (crates/core/tests/differential): all eight
# clusterings (Hybrid with both kernels and the tree/auto backends, the
# R-tree reference, host DBSCAN over each of the three indexes) and all
# three indexes against the brute-force oracle, at both pool sizes. Part of the workspace suite above, repeated here
# explicitly so a differential regression is named in the CI output.
# The repo benchmark (perfbench/) is a Cargo workspace of its own, so the
# workspace steps above never compile it. Its self-tests build it against
# the current crates and check its layer replay against `build_table`.
step "perfbench self-tests" \
    cargo test --release --offline --manifest-path perfbench/Cargo.toml -q
step "differential quick (RAYON_NUM_THREADS=1)" \
    env RAYON_NUM_THREADS=1 cargo test -p hybrid-dbscan-core --test differential -q
step "differential quick (RAYON_NUM_THREADS=4)" \
    env RAYON_NUM_THREADS=4 cargo test -p hybrid-dbscan-core --test differential -q
# Benchmark smoke tier: one tiny-scale trial of the full S1/S2/S3 suite
# plus the hot-path micro workload (grid build per layout, single kernel
# launches, table ingest — DESIGN.md §11), compared against the
# checked-in baseline (results/baselines/smoke.json).
# The step is fatal if the suite crashes or emits a document the shared
# parser rejects; regression gating is decided inside the binary, which
# exits nonzero on a deterministic-stage regression only under
# BENCH_STRICT=1 (wall-clock drift is always advisory — see DESIGN.md,
# "Benchmark methodology & regression policy").
#
# All smoke steps append their run records to a CI-local ledger copy
# (target/ci-ledger) seeded from the committed results/ledger, so CI runs
# feed the trend report without dirtying the checked-in run history.
rm -rf target/ci-ledger
mkdir -p target/ci-ledger
cp results/ledger/ledger.jsonl target/ci-ledger/ 2>/dev/null || true
ledger_records() { cat target/ci-ledger/ledger.jsonl 2>/dev/null | grep -c .; }
seed_records=$(ledger_records)
step "bench smoke" ./target/release/repro bench \
    --scale 0.002 --trials 1 --warmup 0 --csv target/ci-bench \
    --compare results/baselines/smoke.json --ledger target/ci-ledger
# Profiler smoke tier: the suite workloads under the pool profiler at
# 1/2/4/8 threads (DESIGN.md §12). The binary itself is the gate: it
# exits nonzero if profiling moves modeled time bits at any thread count
# (determinism policy) or if the emitted PROFILE.json is not a fixed
# point of the shared JSON parser.
step "profile smoke (RAYON_NUM_THREADS=4)" \
    env RAYON_NUM_THREADS=4 ./target/release/repro profile \
    --scale 0.002 --trials 1 --csv target/ci-profile --ledger target/ci-ledger
# Thread-scaling smoke tier: the {1,2,4,all} pool sweep on a tiny S1
# workload. The binary is the gate: a determinism violation (modeled
# bits, clusters, or |R| differing across thread counts) always exits
# nonzero; the speedup_build_table >= 1.8 at 4 threads check is advisory
# unless THREADS_STRICT=1, because wall-clock speedup is unmeasurable on
# runners with fewer than 4 hardware threads.
step "threads smoke (RAYON_NUM_THREADS=8)" \
    env RAYON_NUM_THREADS=8 ./target/release/repro threads \
    --scale 0.002 --trials 1 --csv target/ci-threads --ledger target/ci-ledger

# Shard smoke tier: sharded vs unsharded table and clustering
# fingerprints at k=2 (both modes) and k=4 out-of-core. The binary exits
# nonzero on any mismatch — always fatal, like the bench smoke.
step "shard smoke" ./target/release/repro shard --scale 0.002 \
    --csv target/ci-shard --ledger target/ci-ledger

# Backend ablation smoke tier: grid vs tree vs auto ε-search on the
# ablation workloads (uniform + skewed 2-D, 3-D and 4-D lattices), run at
# one and at four host threads. Within each run the binary checks that
# the neighbor tables and clusterings are bitwise identical across all
# three backends and exits nonzero on any fingerprint mismatch — always
# fatal; the auto-selector accuracy floor (>= 90% of workloads matching
# the modeled winner) is advisory unless BENCH_STRICT=1. Across the two
# pool sizes, the report step below compares the modeled time bits of the
# two backend ledger records: a change is a gating trend finding, fatal
# under TREND_STRICT=1.
step "backend smoke (RAYON_NUM_THREADS=1)" \
    env RAYON_NUM_THREADS=1 ./target/release/repro backend --scale 0.002 \
    --csv target/ci-backend --ledger target/ci-ledger
step "backend smoke (RAYON_NUM_THREADS=4)" \
    env RAYON_NUM_THREADS=4 ./target/release/repro backend --scale 0.002 \
    --csv target/ci-backend --ledger target/ci-ledger

# Every smoke invocation above appends exactly one run record to the
# CI-local ledger: bench, profile, threads, shard, and backend twice.
step "ledger: one record per smoke run" \
    test "$(ledger_records)" -eq "$((seed_records + 6))"

# Report smoke tier: render the trend dashboard over the
# CI-local ledger (committed history + the smoke runs above). The binary
# is the gate: it exits nonzero if the ledger is unreadable or the
# dashboard's embedded JSON payload fails round-trip validation; trend
# regressions (modeled-time steps or bit flips outside a declared
# baseline refresh) are decided inside the binary and are advisory
# unless TREND_STRICT=1.
step "report smoke" ./target/release/repro report \
    --ledger target/ci-ledger --csv target/ci-report
# The sharded differential tier, named and strict: every generator family
# plus the halo-straddling adversarial generator, k in {1,2,4}, 1/2/8
# threads, both execution modes, bitwise fingerprints and modeled-time
# bits. Part of the quick tier above; repeated under DIFF_STRICT=1 so a
# sharding regression is named in the CI output and always fatal.
step "differential quick (sharded, DIFF_STRICT=1)" \
    env DIFF_STRICT=1 RAYON_NUM_THREADS=4 \
    cargo test -p hybrid-dbscan-core --test differential sharded -q

step "fmt" cargo fmt --all --check
step "clippy" cargo clippy --workspace --all-targets -- -D warnings
# Rustdoc with warnings fatal: a broken, stale or ambiguous intra-doc
# link fails CI instead of rendering as plain text.
step "doc" env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> differential sweep: DIFF_CASES=200 cargo test --test differential seeded_sweep"
if env DIFF_CASES=200 cargo test -p hybrid-dbscan-core --test differential seeded_sweep -q; then
    echo "==> differential sweep: OK"
elif [ "${DIFF_STRICT:-0}" = "1" ]; then
    echo "==> differential sweep: FAILED (strict)"
    failed=1
else
    echo "==> differential sweep: FAILED (advisory only; set DIFF_STRICT=1 to enforce)"
fi

exit "$failed"
