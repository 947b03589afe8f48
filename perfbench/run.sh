#!/usr/bin/env bash
# Build the `swarm` binary and the benchmark from source, then run the
# benchmark. Invoke from the repository root:
#
#   bash perfbench/run.sh --workload des --seed 988677 --seconds 35 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default: target); per-run artifacts
# (span dumps, run metadata, scratch cache directories) go under
# $CARGO_TARGET_DIR/perfbench.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f Cargo.toml || ! -d crates ]]; then
    echo "perfbench: $root is not a swarm checkout (no Cargo.toml or crates/)" >&2
    exit 2
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --bin swarm >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2

out="$CARGO_TARGET_DIR/perfbench"
mkdir -p "$out"
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --swarm "$CARGO_TARGET_DIR/release/swarm" --out-dir "$out" "$@"
