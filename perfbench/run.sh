#!/usr/bin/env bash
# Builds the benchmark and the mpdpd daemon it starts, then runs it:
#
#   bash perfbench/run.sh --workload sweep_mc --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); scratch files go to .bench_run.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
cargo build --release --offline --quiet -p mpdp-mpdpd --bin mpdpd
exec "$CARGO_TARGET_DIR/release/perfbench" --mpdpd "$CARGO_TARGET_DIR/release/mpdpd" "$@"
