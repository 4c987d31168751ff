#!/usr/bin/env bash
# Full verification, offline: a check that every crate uses each of its
# [dependencies], the tier-1 command (release build, then
# every workspace member's tests; the root manifest is a virtual
# workspace, so plain `cargo test` runs them all, the wire smoke
# crates/bench/tests/mcslap_wire.rs among them), the
# stress and crash tiers, the system benchmark's oracle, the recovery and
# protocol oracles, and the bench smokes with their in-bench ratio gates.
# Leaves the tree clean: every output goes under target/.
#
# Usage: scripts/verify.sh [stress-seconds]   (default 10)

set -euo pipefail
cd "$(dirname "$0")/.."

STRESS_SECONDS="${1:-10}"

# Every [dependencies] entry of a member crate is used as a path
# (`name::`) somewhere in its src/, benches/ or tests/: a dependency
# nothing names only lengthens the build graph.
echo "==> no unused [dependencies]"
for manifest in crates/*/Cargo.toml; do
    dir=$(dirname "$manifest")
    srcs=()
    for d in src benches tests; do [ -d "$dir/$d" ] && srcs+=("$dir/$d"); done
    for dep in $(sed -n '/^\[dependencies\]/,/^\[/s/^\([A-Za-z0-9_-]*\) *[.=].*/\1/p' "$manifest"); do
        grep -rqE "\b${dep//-/_}::" "${srcs[@]}" || {
            echo "$manifest: [dependencies] entry '$dep' is named nowhere in its src/, benches/ or tests/"
            exit 1; }
    done
done

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

# Transaction shapes: single-worker Tables 1-4 are a pure function of the
# code paths taken, so any diff against the recorded output is a changed
# serialization profile, not noise. (tx_shapes.rs, in the workspace tests
# above, pins the same thing op by op, and tablecheck_golden.rs runs this
# comparison on the debug build.)
echo "==> reproduce tablecheck vs scripts/tablecheck.golden"
target/release/reproduce tablecheck 2>/dev/null | cmp - scripts/tablecheck.golden

# A single green pass of a parallelism-sensitive test proves little: loop
# the test binary itself, without cargo's per-run overhead. Each run gets
# two minutes (a passing one takes well under a second), so a deadlock
# fails the loop instead of hanging it.
# usage: loop200 <tm integration test> [test name filter]
loop200() {
    local bin
    bin=$(cargo test --offline -p tm --test "$1" --no-run 2>&1 \
        | sed -n 's/.*Executable.*(\(.*\))$/\1/p')
    for i in $(seq 1 200); do
        timeout 120 "$bin" ${2:+"$2"} > /dev/null 2>&1 || {
            [ $? -eq 124 ] && what="timed out" || what="failed"
            echo "$1${2:+::$2} $what on run $i of 200"; exit 1; }
    done
}

# A hot writer keeps the commit clock moving under a multi-word writer
# while readers demand uniform snapshots (eager and lazy).
echo "==> clock_opacity x200"
loop200 clock_opacity

# A stalled reader of x whose value-equal store to x must still conflict
# with the writer that interleaved (all three algorithms).
echo "==> write_fastlane x200"
loop200 write_fastlane

# Readers on the fast lane race a privatizer that plain-stores after its
# commit: a read-only commit whose snapshot the clock has passed must
# revalidate (eager and lazy).
echo "==> ro_fastlane x200"
loop200 ro_fastlane

# IT-Max switches ~92% of its transactions to serial-irrevocable mode in
# flight; a switcher that let go of the serial lock before taking it
# exclusively could commit reads staled by another's serial section (a
# refcount underflow panic in mcache). 20 runs per orec algorithm.
echo "==> mcslap it-max x20 (eager, lazy)"
for algo in eager lazy; do
    for i in $(seq 1 20); do
        timeout 120 target/release/mcslap --branch it-max -c 4 -x 20000 --value-size 1023 \
            --zipf 0.9 --algorithm "$algo" > /dev/null 2>&1 || {
            echo "mcslap it-max --algorithm $algo failed on run $i of 20"; exit 1; }
    done
done

echo "==> stress smoke (${STRESS_SECONDS}s: every row of testkit::stress::SCHEDULES over every algorithm/lock/CM combo, per seed)"
cargo run --release --offline -p testkit --bin stress -- --seconds "$STRESS_SECONDS"

# Chaos tier: the same schedules over the same 21-combo matrix with tm's
# deterministic fault injection armed (spurious aborts, delays, panics)
# and the same oracle on. Separate cargo invocations so the
# `chaos`/`fault`/`sync-count` features never unify into the plain build
# or the bench binaries.
echo "==> chaos tests (tm fault layer + chaos schedules + fault-path zero-alloc guard) and the sync budget (tm RMW-counting shim)"
cargo test -q --offline -p tm --features fault,sync-count
cargo test -q --offline -p testkit --features chaos

echo "==> chaos stress (5s, every schedule x combo, deterministic fault plan)"
cargo run --release --offline -p testkit --features chaos --bin stress -- --chaos --seconds 5

# System benchmark, quick mode: every sysbench workload once, each
# checked against its own oracle (failed must be 0). Read-only use of
# benchmark/ — it builds into its own target directory.
echo "==> sysbench quick (benchmark/run.sh --quick: 5 workloads, oracle-checked)"
bash benchmark/run.sh --quick

# Durability tier: the kill-at-random-commit harness. 36 seeded kill
# points sweep every (fsync policy x kill mode) combination, rotated over
# the six store paths (lock, IP, IP-NoLock, IT, IT-NoLock, IT + magazines)
# — each child is murdered by chaos injection inside the log writer at a
# seed-chosen append, and the parent replays the log against the exact
# oracle — plus one injected-EIO degradation case per policy. (Warm
# restarts of real processes: crates/bench/tests/recovery_wire.rs, above;
# timed recovery: sysbench dur_set_nofsync's set-up, above.) mccrash's
# exactness — recovered state == simulate(plan, fatal_op) — is also the
# end-to-end check that recovery's scan and fold mean what they meant.
echo "==> crash sweep (mccrash: 36 kill points x {always,every:8,off} x {before,mid,after} over 6 store paths + 3 chaos-fail arms)"
target/release/mccrash --sweep 36 --seed 1

# The recovery pipeline against the fold it replaced (kept under
# #[cfg(test)] as the oracle): 5 000 random damaged logs on a seed the
# workspace tests above do not use, and a compaction cut short at every
# frame boundary and inside every frame.
echo "==> recovery oracle (dur: differential fold x5000, interrupted-compaction sweep)"
TESTKIT_CASES=5000 TESTKIT_SEED=19 cargo test -q --offline -p mcache --lib -- \
    dur::tests::recover_matches_the_reference_fold \
    dur::tests::interrupted_compaction_recovers_the_same_live_set

# The request pipeline against the two protocol executors it replaced:
# 5 000 seeded mixed ASCII/binary pipelines, cut at seeded read
# boundaries, through the connection dispatcher on three branches; the
# transcript fingerprints for this seed were recorded before the collapse.
echo "==> protocol transcripts (net::conn: 5000 seeded pipelines x 3 branches vs recorded fingerprints)"
TESTKIT_CASES=5000 TESTKIT_SEED=23 cargo test -q --offline -p mcache --lib -- \
    net::conn::tests::transcripts_match_the_recorded_fingerprints

# Bench smokes. Each bench gates itself on RATIOS between arms it runs
# interleaved (stm_getpath: fast-lane/fulltx floor and multiget
# non-inversion; stm_durpath: the fsync-policy inversion), which hold
# across host noise epochs; an absolute fresh-vs-committed comparison does
# not on this host (EXPERIMENTS.md, "Absolute bench gate: verdict") and is
# not made. End-to-end regressions are sysbench's alternating pairs;
# zero-allocation is tm/tests/zero_alloc.rs and mcache/tests/write_path.rs.
# Reports land in target/testkit-bench/; the committed BENCH_*.json are
# recorded evidence a PR refreshes on purpose, never this script.
for smoke in \
    "stm_fastpath: word-granularity speedup + zero-alloc counts + contended-commit arms" \
    "stm_getpath: read-only fast lane + multiget batching" \
    "stm_setpath: mutation fast lane + store batching + slab magazines" \
    "stm_durpath: redo-log overhead per fsync policy + replay recovery"
do
    echo "==> bench smoke ($smoke)"
    TESTKIT_BENCH_SAMPLES="${TESTKIT_BENCH_SAMPLES:-15}" \
        TESTKIT_BENCH_DIR="$PWD/target/testkit-bench" \
        cargo bench --offline -p bench --bench "${smoke%%:*}"
done

echo "==> verify OK"
