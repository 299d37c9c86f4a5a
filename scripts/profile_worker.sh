#!/usr/bin/env bash
# Where one benchmark worker spends its host time: regenerates the sampled
# self/inclusive table of DESIGN.md § Performance, "Where host time goes".
#
#   scripts/profile_worker.sh [workload] [seed] [function] [untraced|setup]
#                                   default: crawl_steady 11, every sample,
#                                   untraced
#
# Builds benchmark/ with frame pointers and symbols into a target directory
# of its own (neither target/ nor benchmark/run.sh's build is disturbed),
# then runs ONE `--worker` process -- an untraced repetition, which is what
# benchmark/run.sh times -- under scripts/profile_sample.py: RIP + the frame
# chain sampled by ptrace at 400 Hz, symbols from nm. A third argument keeps
# only the samples under that function (`profile_sample.py --under`), e.g.
# `checkpoint_cycle 11 benchmark::worker::checkpoint`; pass it empty to keep
# every sample. A fourth argument is the worker's `--mode`: `setup` stops
# after the world is built, so the table is set-up alone (e.g. `scale_ramp
# 11 "" setup`). The worker's own record goes to stderr, the table to stdout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

workload="${1:-crawl_steady}"
seed="${2:-11}"
mode="${4:-untraced}"
target="${PROFILE_TARGET_DIR:-target/profile_worker}"

RUSTFLAGS="-C force-frame-pointers=yes -g" CARGO_TARGET_DIR="$target" \
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

# benchmark/src/worlds.rs `Spec::world_seed`: splitmix64 over the seed and
# the workload's position in WORKLOADS.
world_seed="$(python3 - "$workload" "$seed" <<'PY'
import sys
index = ["crawl_steady", "gossip_heavy", "scale_ramp", "checkpoint_cycle"].index(sys.argv[1])
m, g = (1 << 64) - 1, 0x9E3779B97F4A7C15
z = (int(sys.argv[2]) + index * g + g) & m
z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & m
z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & m
print(z ^ (z >> 31))
PY
)"

exec python3 scripts/profile_sample.py --hz 400 ${3:+--under "$3"} -- \
    "$target/release/benchmark" --worker "$workload" --world-seed "$world_seed" --mode "$mode"
