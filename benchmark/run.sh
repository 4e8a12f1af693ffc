#!/usr/bin/env bash
# Build the benchmark package (offline: the registry is unreachable) and
# run it. Arguments go to the binary unchanged:
#
#   benchmark/run.sh                      every workload, untraced then traced
#   benchmark/run.sh --quick              the same, 0.2 s per run (a smoke run)
#   benchmark/run.sh agree                the untraced set twice, compared
#   benchmark/run.sh --workload hot_read --seed 1 --seconds 10 --trace 0
#
# The binary pins itself to one CPU; outputs land in benchmark/out/.
set -euo pipefail
here=$(dirname "$0")
# The benchmark driver sets CARGO_TARGET_DIR; by hand, build beside the
# sources. A relative directory is relative to the working directory,
# for cargo and for the exec below alike.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
export NASD_BENCH_OUT="$here/out"
NASD_BENCH_RUSTC=$(rustc --version 2>/dev/null || echo unknown)
NASD_BENCH_COMMIT=$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)
export NASD_BENCH_RUSTC NASD_BENCH_COMMIT
exec "$CARGO_TARGET_DIR/release/nasd-benchmark" "$@"
