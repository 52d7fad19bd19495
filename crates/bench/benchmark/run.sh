#!/usr/bin/env bash
# Build the `vulfi` CLI and the benchmark from source, then run the
# benchmark with the given arguments (see README.md beside this file).
# Run from anywhere; paths resolve against the repository root.
set -euo pipefail
HERE="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ROOT="$(cd "$HERE/../../.." && pwd)"
# One target directory for both builds, so the benchmark finds the
# `vulfi` binary it serves studies with next to itself.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$ROOT/.bench_build}"
case "$CARGO_TARGET_DIR" in /*) ;; *) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;; esac
cargo build --release --offline --quiet --manifest-path "$ROOT/Cargo.toml" -p vulfi-cli >&2
cargo build --release --offline --quiet --manifest-path "$HERE/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
