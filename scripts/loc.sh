#!/usr/bin/env bash
# Non-test code lines per crate: in every `src/**/*.rs` of a crate, the
# lines that are neither blank nor `//` comments, above the file's first
# unindented `#[cfg(test)]` or `#[cfg(all(test, ...))]` (its test module).
# An indented one gates a field or method inside the code, and an item
# under `#[cfg(any(test, ...))]` still builds outside tests: both count.
# Sizes a change; it is not a gate.
#
# Usage: scripts/loc.sh [crate-dir ...]   (default: every crates/*)

set -euo pipefail
cd "$(dirname "$0")/.."

[ $# -gt 0 ] || set -- crates/*
total=0
for dir in "$@"; do
    n=$(find "$dir/src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { code = 1 }
        /^#\[cfg\((all\()?test[,)]/ { code = 0 }
        code && !/^[[:space:]]*(\/\/|$)/ { n++ }
        END { print n + 0 }')
    printf '%6d  %s\n' "$n" "$dir/src"
    total=$((total + n))
done
printf '%6d  total\n' "$total"
