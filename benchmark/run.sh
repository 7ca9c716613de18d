#!/usr/bin/env bash
# Builds the daemon and the benchmark from source, then runs the benchmark.
#
#   benchmark/run.sh [--workload NAME] [--seed S] [--seconds N] [--trace [0|1]] [--out DIR]
#   benchmark/run.sh summarize DIR
#   benchmark/run.sh agree A B
#
# Without --workload every workload runs in turn. Build output goes to stderr;
# the last line of stdout is the JSON result. Artifacts go to
# $CARGO_TARGET_DIR (default: target/) and results to its soar-benchmark/.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
# One pool worker for the daemon and for the layer replay: on a 2-core host
# the load generator needs the other core, and a fork/join gather across two
# virtual CPUs made solve latency swing by up to 1.8x between runs.
export SOAR_POOL_THREADS=1
cargo build --release --offline --quiet -p soar --bin soar >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bench="$CARGO_TARGET_DIR/release/soar-benchmark"
case "${1:-}" in
  summarize | agree) exec "$bench" "$@" ;;
  *) exec "$bench" run --daemon "$CARGO_TARGET_DIR/release/soar" \
       --out "$CARGO_TARGET_DIR/soar-benchmark" "$@" ;;
esac
