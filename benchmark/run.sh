#!/usr/bin/env bash
# Builds the mcached server and the benchmark, then runs the benchmark.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S]
#                    [--trace 0|1 | --traced] [--repeat K] [--quick]
#
# With no --workload every workload runs. Build output goes to
# $CARGO_TARGET_DIR (default: the repository's target/), results and
# traces to $CARGO_TARGET_DIR/benchmark/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# cargo reads a relative CARGO_TARGET_DIR against the caller's directory.
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Build chatter goes to stderr: stdout ends with the result line.
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p bench --bin mcached >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

commit=unknown
if [ -e "$root/.git" ]; then
    commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
fi

exec "$target/release/sysbench" \
    --mcached "$target/release/mcached" \
    --out-dir "$target/benchmark" \
    --commit "$commit" \
    --rustc "$(rustc -V 2>/dev/null || echo unknown)" \
    "$@"
