#!/usr/bin/env bash
# Tier-1 verification, fully offline: release build, workspace tests,
# and a short deterministic stress sweep of the STM runtime.
#
# Usage: scripts/verify.sh [stress-seconds]   (default 10)

set -euo pipefail
cd "$(dirname "$0")/.."

STRESS_SECONDS="${1:-10}"

echo "==> cargo build --release --offline"
cargo build --workspace --release --offline

echo "==> cargo test -q --offline"
cargo test -q --workspace --offline

# Transaction shapes: single-worker Tables 1-4 are a pure function of the
# code paths taken, so any diff against the recorded output is a changed
# serialization profile, not noise. (tx_shapes.rs, in the workspace tests
# above, pins the same thing op by op.)
echo "==> tablecheck vs scripts/tablecheck.golden"
target/release/tablecheck 2>/dev/null | cmp - scripts/tablecheck.golden

# A single green pass of a parallelism-sensitive test proves little: loop
# the test binary itself, without cargo's per-run overhead.
# usage: loop200 <tm integration test> [test name filter]
loop200() {
    local bin
    bin=$(cargo test --offline -p tm --test "$1" --no-run 2>&1 \
        | sed -n 's/.*Executable.*(\(.*\))$/\1/p')
    for i in $(seq 1 200); do
        "$bin" ${2:+"$2"} > /dev/null 2>&1 || {
            echo "$1${2:+::$2} failed on run $i of 200"; exit 1; }
    done
}

# A hot writer keeps the commit clock moving under a multi-word writer
# while readers demand uniform snapshots (eager and lazy).
echo "==> clock_opacity x200"
loop200 clock_opacity

echo "==> stress smoke (${STRESS_SECONDS}s, every algorithm/lock/CM combo; mixed, read-mostly, write-heavy and contended-commit schedules per seed)"
cargo run --release --offline -p testkit --bin stress -- --seconds "$STRESS_SECONDS"

# Chaos tier: the same 21-combo matrix with tm's deterministic fault
# injection armed (spurious aborts, delays, panics) and the ticket oracle
# still on. Separate cargo invocations so the `chaos`/`fault`/`sync-count`
# features never unify into the plain build or the bench binaries.
echo "==> chaos tests (tm fault layer + chaos schedules + fault-path zero-alloc guard) and the sync budget (tm RMW-counting shim)"
cargo test -q --offline -p tm --features fault,sync-count
cargo test -q --offline -p testkit --features chaos

echo "==> chaos stress (5s, every combo, deterministic fault plan; all four schedules)"
cargo run --release --offline -p testkit --features chaos --bin stress -- --chaos --seconds 5

# Wire smoke: a real mcached on ephemeral TCP + UDP + Unix transports,
# mcslap workloads on every transport plus the two connection-scale
# scenarios (each asserts every response against the workload oracle
# and frame_errors=0 server-side), then a clean pipe-driven shutdown
# that must exit 0.
echo "==> wire smoke (mcached over loopback TCP/UDP/unix)"
WIRE_LOG="$PWD/target/mcached-smoke.log"
WIRE_CTL="$PWD/target/mcached-smoke.ctl"
WIRE_SOCK="$PWD/target/mcached-smoke.sock"
rm -f "$WIRE_CTL" "$WIRE_SOCK"
mkfifo "$WIRE_CTL"
target/release/mcached --port 0 --udp 0 --unix "$WIRE_SOCK" --threads 2 \
    < "$WIRE_CTL" > "$WIRE_LOG" 2>&1 &
WIRE_PID=$!
exec 9> "$WIRE_CTL" # hold the control pipe open until shutdown
for _ in $(seq 1 300); do grep -q '^LISTENING-UNIX' "$WIRE_LOG" && break; sleep 0.1; done
grep -q '^LISTENING-UNIX' "$WIRE_LOG"
WIRE_ADDR=$(awk '/^LISTENING /{print $2; exit}' "$WIRE_LOG")
WIRE_UDP=$(awk '/^LISTENING-UDP/{print $2; exit}' "$WIRE_LOG")
target/release/mcslap --tcp "$WIRE_ADDR" --execute-number 5000 --concurrency 4 \
    --read-ratio 90 --multiget 8
target/release/mcslap --tcp "$WIRE_ADDR" --execute-number 5000 --concurrency 4 \
    --read-ratio 50 --binary --multiget 4 --setq-pipeline 8
target/release/mcslap --unix "$WIRE_SOCK" --execute-number 3000 --concurrency 2 \
    --read-ratio 80
target/release/mcslap --udp "$WIRE_UDP" --execute-number 2000 --connections 2 \
    --read-ratio 90
target/release/mcslap --udp "$WIRE_UDP" --execute-number 500 --connections 2 \
    --keys 100 --value-size 4000   # multi-datagram responses
echo "==> connection-scale smoke (churn storm + fan-in)"
target/release/mcslap --tcp "$WIRE_ADDR" --churn 4 --execute-number 50 --keys 200
target/release/mcslap --tcp "$WIRE_ADDR" --fanin 200 --concurrency 4 \
    --execute-number 400 --keys 200
echo shutdown >&9
wait "$WIRE_PID"
exec 9>&-
rm -f "$WIRE_CTL"
grep -q 'frame_errors=0' "$WIRE_LOG"
echo "    wire smoke OK: $(tail -n 1 "$WIRE_LOG")"

# System benchmark, quick mode: every sysbench workload once, each
# checked against its own oracle (failed must be 0). Read-only use of
# benchmark/ — it builds into its own target directory.
echo "==> sysbench quick (benchmark/run.sh --quick: 5 workloads, oracle-checked)"
bash benchmark/run.sh --quick

# Durability tier: the kill-at-random-commit harness. 36 seeded kill
# points sweep every (fsync policy x kill mode) combination, rotated over
# the six store paths (lock, IP, IP-NoLock, IT, IT-NoLock, IT + magazines)
# — each child
# is murdered by chaos injection inside the log writer at a seed-chosen
# append, and the parent replays the log against the exact oracle — plus
# one injected-EIO degradation case per policy. Then a warm-restart
# round trip under mcslap verifies and times recovery end to end.
echo "==> crash sweep (mccrash: 36 kill points x {always,every:8,off} x {before,mid,after} over 6 store paths + 3 chaos-fail arms)"
target/release/mccrash --sweep 36 --seed 1

echo "==> warm restart smoke (mcslap --restart: load, seal, recover, verify)"
target/release/mcslap --restart --branch it-oncommit --keys 5000 --concurrency 2 \
    --dur-fsync every:32

echo "==> bench smoke (stm_fastpath: word-granularity speedup + zero-alloc counts + contended-commit arms)"
TESTKIT_BENCH_SAMPLES="${TESTKIT_BENCH_SAMPLES:-15}" \
    TESTKIT_BENCH_DIR="$PWD/target/testkit-bench" \
    cargo bench --offline -p bench --bench stm_fastpath

echo "==> bench smoke (stm_getpath: read-only fast lane + multiget batching)"
TESTKIT_BENCH_SAMPLES="${TESTKIT_BENCH_SAMPLES:-15}" \
    TESTKIT_BENCH_DIR="$PWD/target/testkit-bench" \
    cargo bench --offline -p bench --bench stm_getpath

echo "==> bench smoke (stm_setpath: mutation fast lane + store batching + slab magazines)"
TESTKIT_BENCH_SAMPLES="${TESTKIT_BENCH_SAMPLES:-15}" \
    TESTKIT_BENCH_DIR="$PWD/target/testkit-bench" \
    cargo bench --offline -p bench --bench stm_setpath

echo "==> bench smoke (stm_wirepath: in-process vs loopback GET/SET roundtrips)"
TESTKIT_BENCH_SAMPLES="${TESTKIT_BENCH_SAMPLES:-15}" \
    TESTKIT_BENCH_DIR="$PWD/target/testkit-bench" \
    cargo bench --offline -p bench --bench stm_wirepath

echo "==> bench smoke (stm_durpath: redo-log overhead per fsync policy + replay recovery)"
TESTKIT_BENCH_SAMPLES="${TESTKIT_BENCH_SAMPLES:-15}" \
    TESTKIT_BENCH_DIR="$PWD/target/testkit-bench" \
    cargo bench --offline -p bench --bench stm_durpath

echo "==> bench smoke (stm_netpath: connection lifecycle + fan-in GET)"
TESTKIT_BENCH_SAMPLES="${TESTKIT_BENCH_SAMPLES:-15}" \
    TESTKIT_BENCH_DIR="$PWD/target/testkit-bench" \
    cargo bench --offline -p bench --bench stm_netpath

# Offline regression gate, two tiers:
#
# 1. RATIO gates inside the benches themselves (stm_getpath asserts the
#    fast-lane/fulltx ratio floor and the multiget non-inversion). The
#    paired arms run interleaved, so these ratios are stable across host
#    noise epochs — they are the *tight* gate, and a failure above
#    already aborted this script.
# 2. This ABSOLUTE gate: the fresh run's MINIMUM vs the committed
#    BENCH_*.json baselines' MEDIAN (noise only ever adds time, so the
#    fresh min is the stable cost estimate while the baseline median
#    sits a noise margin above its own floor). Measured cross-epoch
#    drift on shared hosts reaches ~35% even on minima, so the
#    threshold is 50% — this tier only catches catastrophic (≳1.5x)
#    absolute regressions. Zero-alloc counters must stay exactly zero
#    regardless. Runs BEFORE the cp below so the fresh reports can
#    never gate against themselves.
echo "==> bench regression gate (fresh min vs committed baseline median, 50%)"
cargo run --release --offline -p testkit --bin bench_compare -- . target/testkit-bench --threshold 50

cp target/testkit-bench/BENCH_fastpath_*.json target/testkit-bench/BENCH_getpath_*.json \
   target/testkit-bench/BENCH_setpath_*.json target/testkit-bench/BENCH_wirepath_*.json \
   target/testkit-bench/BENCH_durpath_*.json target/testkit-bench/BENCH_netpath_*.json .

echo "==> verify OK"
