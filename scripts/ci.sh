#!/usr/bin/env bash
# The full local gate, in the order a reviewer should trust it:
#
#   1. rustfmt   -- formatting is canonical (no diff)
#   2. clippy    -- workspace lint-clean; protocol crates additionally deny
#                   unwrap/expect (see each crate's [lints] table)
#   3. detlint   -- determinism, panic-safety, wire-policy & parallelism-
#                   readiness rules R1-R13 (see DESIGN.md): the JSON report
#                   is generated twice and byte-compared (the linter must
#                   be deterministic about determinism), then gated via
#                   --report, which prints the per-rule summary table and
#                   fails listing the offending codes
#   4. tests     -- the whole workspace, including tests/static_analysis.rs
#                   which re-runs detlint as a tier-1 test; then ethcrypto
#                   again in release, the profile its kernels actually run in
#   5. conform   -- golden wire vectors + capped differential drivers from
#                   crates/conformance; CONFORMANCE_FULL=1 additionally runs
#                   the 10^5-case differential sweep in release mode
#   6. bench     -- the instrumented reference crawl; fails on any trace
#                   non-determinism or observer effect, emits BENCH_crawl.json;
#                   obsctl's profile/campaign --json reports over those
#                   artifacts are then generated twice and byte-compared
#   7. compare   -- fails if crawl throughput regressed >20% vs the
#                   committed BENCH_crawl.json baseline, if the committed
#                   scale artifact's 5k/1k curve dips below 0.8 or its
#                   50k/5k curve below 0.9, if its shard check diverged,
#                   if a tier's RSS blows its per-host budget, if the
#                   crawl's alloc_bytes_per_event proxy grew past 1.5x,
#                   or if the 5k-tier snapshot/restore cycle costs more
#                   than 10% of steady-state wall time
#   8. scale     -- bench_scale smoke tiers: 250 hosts (with the embedded
#                   shards-{1,4} divergence byte-check) and a sharded
#                   50,000-host world at a shortened sim slice
#   9. benchmark -- benchmark/ is its own workspace, so nothing above
#                   compiles it: `benchmark/run.sh --smoke` builds it
#                   against the current crates/ API and runs every
#                   workload at one-tenth size; afterwards neither
#                   Cargo.lock may have moved
#
# Everything runs offline: external deps are vendored under vendor/.
# Clippy is best-effort -- some container images ship a toolchain without
# the clippy component, and its absence must not mask the other gates.
set -u
cd "$(dirname "$0")/.."

failures=0
step() {
    echo
    echo "==> $1"
    shift
    if "$@"; then
        echo "    OK"
    else
        echo "    FAILED: $1"
        failures=$((failures + 1))
    fi
}

step "cargo fmt --check" cargo fmt --check

if cargo clippy --version >/dev/null 2>&1; then
    step "cargo clippy" cargo clippy --workspace --all-targets -- -D warnings
else
    echo
    echo "==> cargo clippy"
    echo "    SKIPPED: clippy component not installed"
fi

# detlint: write the machine-readable report twice and require the two to
# be byte-identical, then gate on the report's contents. --json always
# exits 0 (the verdict lives in the report); --report exits 1 listing the
# offending codes when new violations are present.
detlint_json() {
    mkdir -p results \
        && cargo run -q -p detlint -- --json >results/detlint.json \
        && cargo run -q -p detlint -- --json >results/detlint.json.2 \
        && cmp -s results/detlint.json results/detlint.json.2 \
        && rm -f results/detlint.json.2
}
step "detlint --json (byte-identical across runs)" detlint_json
step "detlint --report (rule summary + gate)" \
    cargo run -q -p detlint -- --report results/detlint.json
step "cargo test" cargo test --workspace -q
# ethcrypto's kernels rest on "this carry cannot overflow" arguments. The
# debug run above checks them with overflow panics and debug_assert!; the
# benchmark and every artifact run release, where neither exists and the
# optimizer is free to differ -- so the oracles must pass there too.
step "ethcrypto (release)" cargo test -q --release -p ethcrypto
# The adversarial/fault-injection scenarios are tier-1: call them out so a
# failure is attributable at a glance even though the workspace run above
# already includes them.
step "robustness suite" cargo test -q --test robustness
# Shard-count invariance is likewise tier-1: the same seeded world at
# shard counts {1,2,4,7} must export byte-identical artifacts, faults and
# all (plus the netsim-level property test over arbitrary assignments).
step "shard equivalence suite" cargo test -q --test shard_determinism
# Checkpoint/restore is tier-1 the same way: a crawl snapshotted at T and
# resumed into a fresh shell must export byte-identical artifacts to a
# run that never stopped, at shard counts {1,4} — and the dial-slot
# underflow counter must stay silent throughout.
step "resume determinism suite" cargo test -q --test resume_determinism
step "shard dispatch property (netsim)" cargo test -q -p netsim --test proptest_shards
# Wire conformance is likewise tier-1 (the workspace run covers the golden
# vectors and the capped differential drivers); name it so a golden-vector
# mismatch is attributable at a glance. The full 10^5-case differential
# sweep is too slow for every CI run in debug mode, so it rides behind
# CONFORMANCE_FULL=1 and switches to release.
step "conformance (golden + capped differential)" cargo test -q -p conformance
if [ "${CONFORMANCE_FULL:-0}" = "1" ]; then
    step "conformance differential (full 10^5 cases)" \
        cargo test -q --release -p conformance --test differential
fi
# Instrumented reference crawl: runs the mixed-population world twice and
# fails if the trace export is non-deterministic, then once more without
# the recorder and fails on any observer effect. Writes results/
# obs_trace.jsonl, obs_metrics.prom and BENCH_crawl.json.
step "bench crawl (obs determinism)" cargo run -q --release -p bench --bin bench_crawl
# obsctl determinism: the trace tooling's --json reports over the crawl
# artifacts above must be byte-identical across back-to-back runs — the
# CLI may not inject timestamps, map ordering, or any other run-local
# state into its output.
obsctl_json() {
    cargo run -q -p obs --bin obsctl -- profile --json >results/obsctl_profile.json \
        && cargo run -q -p obs --bin obsctl -- profile --json >results/obsctl_profile.json.2 \
        && cmp -s results/obsctl_profile.json results/obsctl_profile.json.2 \
        && rm -f results/obsctl_profile.json.2 \
        && cargo run -q -p obs --bin obsctl -- campaign --json >results/obsctl_campaign.json \
        && cargo run -q -p obs --bin obsctl -- campaign --json >results/obsctl_campaign.json.2 \
        && cmp -s results/obsctl_campaign.json results/obsctl_campaign.json.2 \
        && rm -f results/obsctl_campaign.json.2
}
step "obsctl --json (byte-identical across runs)" obsctl_json
# Throughput guard: the crawl above rewrote results/BENCH_crawl.json; fail
# if sim-events per wall-second regressed >20% vs the committed baseline.
step "bench compare (throughput guard)" scripts/bench_compare.sh
# Scale smoke tests: the smallest bench_scale tier (250 hosts, including
# the shards-{1,4} divergence byte-check), then a sharded 50,000-host
# world on a shortened sim slice to smoke the barrier-epoch scheduler and
# flyweight memory path at full population. The full sweep — 250/1k/5k/50k
# plus the 250,000-host tier under SCALE_FULL=1 — is run manually when
# results/BENCH_scale.json is refreshed.
step "bench scale (250-host tier)" env TIERS=250 cargo run -q --release -p bench --bin bench_scale
step "bench scale (50k-host sharded smoke)" \
    env TIERS=50000 SCALE_SIM_MS=2000 SCALE_SHARD_CHECK=0 \
    cargo run -q --release -p bench --bin bench_scale
# benchmark/ has its own Cargo.lock and path deps on crates/*, so a
# public-API change under crates/ breaks it without any step above
# noticing. The smoke run also fails if BENCHMARK.json drifted from
# `--describe`. Its stdout (the result JSON) is not a CI artifact.
benchmark_smoke() {
    benchmark/run.sh --smoke >/dev/null
}
step "benchmark smoke (stand-alone workspace)" benchmark_smoke
step "lock files unchanged by the builds" git diff --quiet -- Cargo.lock benchmark/Cargo.lock

echo
if [ "$failures" -ne 0 ]; then
    echo "ci: $failures step(s) failed"
    exit 1
fi
echo "ci: all steps passed"
