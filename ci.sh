#!/usr/bin/env bash
# CI gate: build, full test suite, lints, a differential-fuzz smoke run
# sharded across the machine's cores, and a serial-vs-parallel harness
# determinism check. Everything is offline and deterministic; any failure
# fails the script.
set -euo pipefail
cd "$(dirname "$0")"

JOBS="$(nproc 2>/dev/null || echo 1)"

cargo build --release --workspace
cargo test --workspace
cargo clippy --workspace --all-targets -- -D warnings
# svbench is a workspace of its own that reaches the compiler, simulator
# and server crates by path: build and test it here so a public-API change
# those crates make cannot break the benchmark unnoticed.
cargo test --release --manifest-path svbench/Cargo.toml
# The fuzzer sweeps every generator profile per seed — including the
# `predicated` profile (dense if-converted cmp+select chains), so each
# fuzz block below is also a 100+-seed predicated sweep.
cargo run --release -p sv-bench --bin fuzz -- --seeds 0..200 --fail-fast --jobs "$JOBS"

# Engine and executed-schedule gate. Every compiled case runs in order on
# both the fast pre-decoded engine and the reference interpreter, which
# must agree bit for bit. The slot-accurate VLIW executor also replays
# every compiled piece's flat layout cycle by cycle; its final state must
# be bit-identical to the reference engine and the measured steady-state
# cycles/iteration must equal the scheduled II (zero interlock stalls).
# Three layers: the equivalence suite (200 seeded loops x 7 strategies x
# 3 registry machines plus the benchmark kernels and the found-bug
# regressions), a 100-seed fuzz pass running both engine comparisons,
# and the full-registry sweep whose bytes are pinned by the
# table_executed.txt golden (any VIOLATION line fails the test).
cargo test --release -p sv-sim --test sched_exec_equiv
cargo run --release -p sv-bench --bin fuzz -- --seeds 0..100 --executed-selfcheck --fail-fast --jobs "$JOBS"
# The same executed gate swept over the select-capacity registry
# machines (selcheap/selslow), exercising shared select units at both
# extremes of latency and bandwidth.
cargo run --release -p sv-bench --bin fuzz -- --seeds 0..100 --executed-selfcheck --fail-fast --jobs "$JOBS" --machines examples/machines
cargo test --release -p sv-bench --test golden table_executed_matches_golden
echo "ci: executed schedules bit-identical at scheduled II (equiv suite + fuzz + registry sweep)"

# Optimality gate: the branch-and-bound oracle must prove a minimum II
# for every suite loop on the paper and vl4 machines within the default
# budget (zero `exhausted`), every proved schedule must sustain its II on
# the cycle-accurate executor, and the committed gap table — the loops
# where the exact search beats the KL heuristic — must not drift (the
# table_optimality.txt golden pins it byte for byte). A 100-seed fuzz
# block cross-checks oracle vs heuristic vs driver vs executed II on
# synthetic loops.
cargo run --release -p sv-bench --bin fuzz -- --seeds 0..100 --optimal-selfcheck --fail-fast --jobs "$JOBS"
cargo test --release -p sv-bench --test golden table_optimality_matches_golden
cargo test --release -p sv-core --test optimal
echo "ci: oracle proved every suite loop on paper+vl4; gap table unchanged"

# Compilation service gate: replay a fixed loadgen trace through svd
# twice against one disk cache. The second pass must serve >=90% from
# the cache and every non-stats response must be byte-identical.
SERVE="target/ci-serve"
rm -rf "$SERVE"
mkdir -p "$SERVE"
cargo run --release -q -p sv-bench --bin loadgen -- --emit-trace "$SERVE/trace.jsonl" --synth 8
cargo run --release -q -p sv-serve --bin svd -- --disk "$SERVE/cache" < "$SERVE/trace.jsonl" > "$SERVE/pass1.jsonl"
cargo run --release -q -p sv-serve --bin svd -- --disk "$SERVE/cache" < "$SERVE/trace.jsonl" > "$SERVE/pass2.jsonl"
diff <(grep -v '"cache":{' "$SERVE/pass1.jsonl") <(grep -v '"cache":{' "$SERVE/pass2.jsonl")
grep '"cache":{' "$SERVE/pass2.jsonl" \
  | sed 's/.*"mem_hits":\([0-9]*\),"disk_hits":\([0-9]*\),"misses":\([0-9]*\).*/\1 \2 \3/' \
  | awk '{ hits = $1 + $2; total = hits + $3;
           if (total == 0 || hits / total < 0.9) {
             printf "ci: serve replay hit rate %d/%d below 90%%\n", hits, total; exit 1
           }
           printf "ci: serve replay pass 2 served %d/%d from cache\n", hits, total }'
echo "ci: serve replay byte-identical across cache-cold and cache-warm passes"

# Service cache gate (v4): every bound compares numbers one run measures
# against each other, so host load cannot fail it. The warm-over-cold
# speedup must reach 0.6 of the speedup BENCH_serve.json recorded in its
# own run, the warm hit rate must be >= 0.99 with every warm body
# byte-identical to its cold one, and the committed-overload phase must
# fire the server-hinted retry path with a give-up rate <= 0.5.
cargo run --release -q -p sv-bench --bin loadgen -- --out target/ci-serve/BENCH_serve.json --check BENCH_serve.json
echo "ci: loadgen cache speedup + hit rate + overload-retry gate passed"

# Sharding gate: one loadgen trace replayed over TCP through a single
# svd and through a router over two svd shards (ephemeral ports, each
# request routed by its v2 canonical key hash). Every compile response
# must be byte-identical across all three runs — single, routed-cold,
# routed-warm: routing is cache locality, never semantics — and the warm
# routed pass must serve >=90% from the shards' caches (the per-shard
# stats prove the keyspace split sticks).
SHARD="target/ci-shard"
rm -rf "$SHARD"
mkdir -p "$SHARD"
SVD="target/release/svd"
LOADGEN="target/release/loadgen"
wait_port() {
  for _ in $(seq 100); do [ -s "$1" ] && return 0; sleep 0.1; done
  echo "ci: timed out waiting for $1"; return 1
}
# A failed replay or diff exits the script; never leave daemons behind.
SHARD_PIDS=()
trap 'kill "${SHARD_PIDS[@]}" 2>/dev/null || true' EXIT
"$LOADGEN" --emit-trace "$SHARD/trace.jsonl" --synth 8
grep -v '"verb":"stats"' "$SHARD/trace.jsonl" | grep -v '"verb":"shutdown"' > "$SHARD/core.jsonl"
"$SVD" --tcp 127.0.0.1:0 --port-file "$SHARD/single.port" 2> "$SHARD/single.log" &
SHARD_PIDS+=($!)
wait_port "$SHARD/single.port"
"$LOADGEN" --replay "$SHARD/trace.jsonl" --server "$(cat "$SHARD/single.port")" > "$SHARD/single.jsonl"
"$SVD" --tcp 127.0.0.1:0 --port-file "$SHARD/s1.port" 2> "$SHARD/s1.log" &
SHARD_PIDS+=($!)
"$SVD" --tcp 127.0.0.1:0 --port-file "$SHARD/s2.port" 2> "$SHARD/s2.log" &
SHARD_PIDS+=($!)
wait_port "$SHARD/s1.port"
wait_port "$SHARD/s2.port"
"$SVD" --tcp 127.0.0.1:0 --route "$(cat "$SHARD/s1.port"),$(cat "$SHARD/s2.port")" \
  --port-file "$SHARD/router.port" 2> "$SHARD/router.log" &
SHARD_PIDS+=($!)
wait_port "$SHARD/router.port"
"$LOADGEN" --replay "$SHARD/core.jsonl" --server "$(cat "$SHARD/router.port")" > "$SHARD/rout_cold.jsonl"
"$LOADGEN" --replay "$SHARD/core.jsonl" --server "$(cat "$SHARD/router.port")" > "$SHARD/rout_warm.jsonl"
echo '{"verb":"stats","id":1}' > "$SHARD/stats.jsonl"
"$LOADGEN" --replay "$SHARD/stats.jsonl" --server "$(cat "$SHARD/s1.port")" > "$SHARD/s1.stats"
"$LOADGEN" --replay "$SHARD/stats.jsonl" --server "$(cat "$SHARD/s2.port")" > "$SHARD/s2.stats"
echo '{"verb":"shutdown","id":2}' > "$SHARD/shut.jsonl"
"$LOADGEN" --replay "$SHARD/shut.jsonl" --server "$(cat "$SHARD/router.port")" > /dev/null
wait
trap - EXIT
diff <(grep -v '"cache":{' "$SHARD/single.jsonl" | grep -v '"shutdown"') "$SHARD/rout_cold.jsonl"
diff "$SHARD/rout_cold.jsonl" "$SHARD/rout_warm.jsonl"
cat "$SHARD/s1.stats" "$SHARD/s2.stats" \
  | sed 's/.*"mem_hits":\([0-9]*\),"disk_hits":\([0-9]*\),"misses":\([0-9]*\).*/\1 \2 \3/' \
  | awk '{ hits += $1 + $2; misses += $3 }
         END { total = hits + misses;
               if (total == 0 || 2 * hits / total < 0.9) {
                 printf "ci: sharded warm pass hit rate %d/%d below 90%%\n", hits, total / 2; exit 1
               }
               printf "ci: sharded warm pass served %d/%d from the shard caches\n", hits, total / 2 }'
echo "ci: 2-shard router byte-identical to single instance (cold and warm passes)"

# Chaos gate: seeded fault-injection soak over the full serving stack
# (disk faults, torn writes, compile panics, drainer deaths, stalls,
# connection drops, greedy client bursts). Asserts exactly-once
# responses — including across concurrently submitting fair-share
# clients — byte-identity of every ok against a fault-free control,
# daemon liveness, and crash-safe cache recovery, with per-class
# injection coverage across the soak.
cargo run --release -q -p sv-bench --bin chaos -- --seeds 0..200
echo "ci: chaos soak held every invariant across 200 seeds"

# Cache-key stability gate: one run naming the registered `paper` machine
# warms a disk cache and emits the resolved canonical spec; the spec is
# deliberately mangled (reversed lines, comment header, `=` spacing and
# trailing-whitespace noise) and a second run sends it inline with every
# request. Equal machines must yield equal request keys, so the second
# run's *cold* phase must serve >=99% from the first run's cache.
KEYSTAB="target/ci-keystab"
rm -rf "$KEYSTAB"
mkdir -p "$KEYSTAB"
cargo run --release -q -p sv-bench --bin loadgen -- --machine paper \
  --disk "$KEYSTAB/cache" --emit-machine-spec "$KEYSTAB/paper.spec" \
  --out "$KEYSTAB/BENCH_named.json"
{ echo "# mangled copy of the canonical paper spec"; \
  sed 's/ = /=/; s/$/ /' "$KEYSTAB/paper.spec" | tac; } > "$KEYSTAB/mangled.spec"
cargo run --release -q -p sv-bench --bin loadgen -- \
  --machine-spec "$KEYSTAB/mangled.spec" --disk "$KEYSTAB/cache" \
  --min-cold-hits 0.99 --out "$KEYSTAB/BENCH_inline.json"
echo "ci: named-vs-inline machine runs share one disk cache (request-key stability)"

# The harness determinism contract: sharding compilations over workers
# must not change a single output byte.
OUT="target/ci-determinism"
mkdir -p "$OUT"
cargo run --release -q -p sv-bench --bin table2 -- --jobs 1 > "$OUT/table2.serial.txt"
cargo run --release -q -p sv-bench --bin table2 -- --jobs 4 > "$OUT/table2.jobs4.txt"
diff -u "$OUT/table2.serial.txt" "$OUT/table2.jobs4.txt"
echo "ci: table2 byte-identical at --jobs 1 vs --jobs 4"

# Simulator performance gate: a fresh simbench run must cover the same
# cases as BENCH_sim.json, and per case its sched/reference and
# fast/reference ratios, divided by the baseline's, must have a median
# within 1 +- 0.25. Ratios of engines timed in one run cancel host load;
# absolute ns/iter are recorded as diagnostics only.
mkdir -p target/ci-bench
cargo run --release -p sv-bench --bin simbench -- --out target/ci-bench/BENCH_sim.json --check BENCH_sim.json
echo "ci: simbench engine ratios within bounds of the committed baseline"

echo "ci: all gates passed"
