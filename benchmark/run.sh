#!/usr/bin/env bash
# The benchmark's one command. Builds release/offline, then runs.
#
#   benchmark/run.sh [--seed N]      every workload: end-to-end, then per-layer
#   benchmark/run.sh --smoke         one-tenth size, < 30 s: correctness and metric names
#   benchmark/run.sh --check         the full set twice; set 2 must agree with set 1
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                    one run; the last stdout line is the JSON result
#
# Exits non-zero if the build fails or any operation failed.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# Share dependency artefacts with the repo's own target/ unless the caller
# chose a build directory.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
if [[ "${1:-}" != "--workload" ]]; then
    cargo fmt --check --manifest-path benchmark/Cargo.toml >&2
fi
exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
