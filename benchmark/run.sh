#!/usr/bin/env bash
# Builds mvbench in release mode and runs it from the repository root.
#
#   benchmark/run.sh [--smoke] [--seed N] [--seconds S] [--out FILE]
#       Every workload, one process each, traced; the records merge into
#       one run file (default benchmark/out/run.json).
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       One workload in this process; the last line of output is the
#       JSON result.
#   benchmark/run.sh --compare A.json B.json
#       One verdict per (workload, end-to-end metric); exit 1 on `worse`.
#
# Build output goes to stderr. The build directory is $CARGO_TARGET_DIR,
# default .bench_build at the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release/mvbench"
case "${1:-}" in
    --workload | --compare | --all) exec "$bin" "$@" ;;
    *) exec "$bin" --all "$@" ;;
esac
