#!/usr/bin/env bash
# The full local gate, in the order a reviewer should trust it:
#
#   1. rustfmt   -- formatting is canonical (no diff)
#   2. clippy    -- workspace lint-clean, and the only enforcer of two
#                   determinism rules: R3 (HashMap/HashSet, clippy.toml
#                   `disallowed-types`) and R5 (unwrap/expect, denied in
#                   the protocol crates', conformance's and serde_json's
#                   [lints] tables). A missing clippy fails this step
#   3. rustdoc   -- the workspace's docs build with -D warnings: an
#                   intra-doc link to an item that went private or away
#                   fails here instead of warning
#   4. detlint   -- the determinism, wire-policy and layering rules
#                   nothing else decides: R1, R4's crate-root header,
#                   R6/R10 over both Cargo.lock files, R7, R8, R9
#                   (DESIGN.md § Determinism; `detlint --explain` lists
#                   them): one line per violation on stdout, exit 1 if
#                   there is any. rustc holds the rest: R2 (the vendored
#                   rand has no ambient entropy) and R4's ban itself
#                   (`unsafe_code = "forbid"` in every [lints] table)
#   5. tests     -- the whole workspace (robustness, resume
#                   determinism, conformance and static_analysis suites
#                   included), --no-fail-fast: every test binary runs
#                   even after one fails, and cargo names each that did;
#                   then ethcrypto again in release, the profile its
#                   kernels actually run in. CONFORMANCE_FULL=1 adds the
#                   10^5-case differential sweep in release mode
#   6. repro     -- `repro all --check` regenerates every registry entry
#                   in memory and fails naming each file under results/
#                   (or EXPERIMENTS.md) whose committed bytes differ,
#                   obsctl_campaign.json included: the campaign report
#                   read back from the obs entry's own trace and metrics
#                   exports
#   7. scale     -- `repro scale 50000`: a 50,000-host world
#                   builds and runs two simulated seconds, and the
#                   ethcrypto memo fitted to it loses no signature
#                   between signing and delivery (`sig_evicted_early`)
#   8. sampler   -- scripts/profile_sample.py still parses (nothing else
#                   runs it, and a profiler is needed on the day it is
#                   least likely to have been looked at)
#   9. benchmark -- benchmark/ is its own workspace, so nothing above
#                   compiles it: `benchmark/run.sh --smoke` builds it
#                   against the current crates/ API and runs every
#                   workload at one-tenth size; afterwards neither
#                   Cargo.lock may have moved, and `git status` must read
#                   as it did before the first step
#  10. loc       -- scripts/loc.sh prints non-blank lines per crate; it
#                   gates nothing
#
# Speed is judged by benchmark/run.sh alone; nothing here times anything
# but the steps themselves.
#
# Everything runs offline: external deps are vendored under vendor/.
set -u
cd "$(dirname "$0")/.."

failures=0
tree_before=$(git status --porcelain)
step() {
    echo
    echo "==> $1"
    local name=$1 t0=$SECONDS
    shift
    if "$@"; then
        echo "    OK ($((SECONDS - t0)) s)"
    else
        echo "    FAILED: $name ($((SECONDS - t0)) s)"
        failures=$((failures + 1))
    fi
}

step "cargo fmt --check" cargo fmt --check

step "cargo clippy" cargo clippy --workspace --all-targets -- -D warnings

rustdoc() {
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q
}
step "cargo doc" rustdoc

step "detlint" cargo run -q -p detlint
step "cargo test" cargo test --workspace -q --no-fail-fast
# ethcrypto's kernels rest on "this carry cannot overflow" arguments. The
# debug run above checks them with overflow panics and debug_assert!; the
# benchmark and every artifact run release, where neither exists and the
# optimizer is free to differ -- so the oracles must pass there too.
step "ethcrypto (release)" cargo test -q --release -p ethcrypto
if [ "${CONFORMANCE_FULL:-0}" = "1" ]; then
    step "conformance differential (full 10^5 cases)" \
        cargo test -q --release -p conformance --test differential
fi
# What is checked in is what the code says: every registry entry is
# regenerated in memory (three campaigns, each simulated once) and
# byte-compared with results/ and EXPERIMENTS.md. The obs entry's
# wall-clock obs_profile.json is git-ignored and written, not compared.
# Its stdout (every entry's printed report) is not a CI artifact; the
# verdict and the names of differing files go to stderr.
repro_check() {
    cargo run -q --release -p bench --bin repro -- all --check >/dev/null
}
step "repro all --check" repro_check
# Does a 50,000-host world still build and run, with a memo big
# enough for it? (250,000 is the same command by hand.)
step "repro scale 50000" cargo run -q --release -p bench --bin repro -- scale 50000
# ast.parse, not py_compile: that would leave a __pycache__ behind and trip
# the tree-unchanged step below.
step "profile_sample.py parses" \
    python3 -c 'import ast,sys; ast.parse(open(sys.argv[1]).read())' scripts/profile_sample.py
# benchmark/ has its own Cargo.lock and path deps on crates/*, so a
# public-API change under crates/ breaks it without any step above
# noticing. The smoke run also fails if BENCHMARK.json drifted from
# `--describe`. Its stdout (the result JSON) is not a CI artifact.
benchmark_smoke() {
    benchmark/run.sh --smoke >/dev/null
}
step "benchmark smoke (stand-alone workspace)" benchmark_smoke
step "lock files unchanged by the builds" git diff --quiet -- Cargo.lock benchmark/Cargo.lock
tree_unchanged() {
    [ "$(git status --porcelain)" = "$tree_before" ]
}
step "git status as it was before the first step" tree_unchanged

# Not a gate: the non-blank line counts a CHANGES.md entry quotes.
echo
echo "==> scripts/loc.sh"
scripts/loc.sh

echo
echo "ci: total $SECONDS s"
if [ "$failures" -ne 0 ]; then
    echo "ci: $failures step(s) failed"
    exit 1
fi
echo "ci: all steps passed"
