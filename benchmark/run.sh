#!/usr/bin/env bash
# The benchmark's one command. Builds perfbench (offline, release, against
# benchmark/Cargo.lock) and runs it from the repository root:
#
#   benchmark/run.sh                       every workload; prints every metric,
#                                          writes benchmark/out/result.json
#   benchmark/run.sh --smoke               the same with tiny op counts (seconds)
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                          one workload; last line is one JSON object
#   benchmark/run.sh compare BASE.json NEW.json
#
# See benchmark/README.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --offline --release --manifest-path benchmark/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release/perfbench"

mode=suite
for arg in "$@"; do
    case "$arg" in
    compare) mode= ;;
    --workload) mode=run ;;
    esac
done
exec "$bin" $mode "$@"
