#!/usr/bin/env bash
# The benchmark's documented entry: build the daemons and the harness,
# then run it.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   benchmark/run.sh [--workload all] [--append results.jsonl] [--trace 1]
#   benchmark/run.sh --quick
#   benchmark/run.sh compare a.jsonl b.jsonl
#
# See benchmark/README.md. Everything is built offline from this checkout
# into $CARGO_TARGET_DIR (default: the root workspace's target/), before
# any timing starts.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f Cargo.toml ] || [ ! -d crates ]; then
    echo "benchmark/run.sh: no symbio workspace at $root (the benchmark builds symbiod, fleetd and the crates from source)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"

# The server workloads drive the root-built daemons as child processes.
cargo build --release --offline -p symbio-serve -p symbio-fleet
# The harness is its own workspace, so the root Cargo.lock stays untouched.
cargo build --release --offline --manifest-path benchmark/Cargo.toml

bin="$CARGO_TARGET_DIR/release"
if [ "${1:-}" = "compare" ]; then
    exec "$bin/symbio-benchmark" "$@"
fi
exec "$bin/symbio-benchmark" "$@" --bin-dir "$bin" --out-dir benchmark/out
