#!/usr/bin/env bash
# Tier-1 gate plus lint/format checks. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release
cargo test -q
cargo test --workspace -q
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --check
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

# Trace smoke: a tuned run must emit JSONL that validates against the
# published schema (--check exits non-zero otherwise) plus a Chrome trace.
trace_tmp="$(mktemp -d)"
trap 'rm -rf "$trace_tmp"' EXIT
cargo run --release -q -p arcs-bench --bin arcs-sim -- \
    trace --workload sp.B --cap 80 --strategy nelder-mead --timesteps 6 \
    --out "$trace_tmp/sp.trace.jsonl" --chrome "$trace_tmp/sp.trace.chrome.json" --check
test -s "$trace_tmp/sp.trace.jsonl"
test -s "$trace_tmp/sp.trace.chrome.json"

# Perf-regression gate smoke: the simulator is deterministic, so the same
# fixed-seed cell run twice must produce identical analysis reports and
# pass `compare` at a 0% threshold. Any nondeterminism, trace drift, or
# analysis regression fails here.
cargo run --release -q -p arcs-bench --bin arcs-sim -- \
    trace --workload sp.B --cap 80 --strategy nelder-mead --timesteps 6 \
    --out "$trace_tmp/sp.trace2.jsonl"
cargo run --release -q -p arcs-bench --bin arcs-sim -- \
    report "$trace_tmp/sp.trace.jsonl" --format json --out "$trace_tmp/base.json"
cargo run --release -q -p arcs-bench --bin arcs-sim -- \
    report "$trace_tmp/sp.trace2.jsonl" --format json --out "$trace_tmp/cand.json"
mkdir -p results
cargo run --release -q -p arcs-bench --bin arcs-sim -- \
    compare "$trace_tmp/base.json" "$trace_tmp/cand.json" \
    --fail-on 0 --out results/bench_smoke.json
test -s results/bench_smoke.json
# The gate must also *fire*: the same cell throttled to 60 W is clearly
# slower, so comparing it against the 80 W baseline has to exit nonzero.
cargo run --release -q -p arcs-bench --bin arcs-sim -- \
    trace --workload sp.B --cap 60 --strategy nelder-mead --timesteps 6 \
    --out "$trace_tmp/sp.slow.jsonl"
cargo run --release -q -p arcs-bench --bin arcs-sim -- \
    report "$trace_tmp/sp.slow.jsonl" --format json --out "$trace_tmp/slow.json"
if cargo run --release -q -p arcs-bench --bin arcs-sim -- \
    compare "$trace_tmp/base.json" "$trace_tmp/slow.json" --fail-on 5 \
    > /dev/null 2>&1; then
    echo "compare gate failed to flag a regression" >&2
    exit 1
fi

# Energy-objective gate smoke: the same fixed-seed cell scored by energy,
# run twice, must produce identical reports and pass `compare --objective
# energy` at a 0% threshold.
cargo run --release -q -p arcs-bench --bin arcs-sim -- \
    trace --workload sp.B --cap 80 --strategy nelder-mead --timesteps 6 \
    --objective energy --out "$trace_tmp/sp.energy.jsonl"
cargo run --release -q -p arcs-bench --bin arcs-sim -- \
    trace --workload sp.B --cap 80 --strategy nelder-mead --timesteps 6 \
    --objective energy --out "$trace_tmp/sp.energy2.jsonl"
cargo run --release -q -p arcs-bench --bin arcs-sim -- \
    report "$trace_tmp/sp.energy.jsonl" --format json --out "$trace_tmp/ebase.json"
cargo run --release -q -p arcs-bench --bin arcs-sim -- \
    report "$trace_tmp/sp.energy2.jsonl" --format json --out "$trace_tmp/ecand.json"
cargo run --release -q -p arcs-bench --bin arcs-sim -- \
    compare "$trace_tmp/ebase.json" "$trace_tmp/ecand.json" \
    --objective energy --fail-on 0 --out results/bench_energy_smoke.json
test -s results/bench_energy_smoke.json
# The objective gate must also *fire*. Cap-throttling leaves package
# energy nearly flat in this power model (power ≈ cap, time ∝ 1/cap), so
# the throttled cell regresses on energy-delay product, not raw energy:
# same joules drawn over a visibly longer run. Re-scoring the 60 W cell
# against the 80 W baseline by EDP has to exit nonzero.
cargo run --release -q -p arcs-bench --bin arcs-sim -- \
    trace --workload sp.B --cap 60 --strategy nelder-mead --timesteps 6 \
    --objective energy --out "$trace_tmp/sp.energy.slow.jsonl"
cargo run --release -q -p arcs-bench --bin arcs-sim -- \
    report "$trace_tmp/sp.energy.slow.jsonl" --format json --out "$trace_tmp/eslow.json"
if cargo run --release -q -p arcs-bench --bin arcs-sim -- \
    compare "$trace_tmp/ebase.json" "$trace_tmp/eslow.json" \
    --objective edp --fail-on 5 > /dev/null 2>&1; then
    echo "objective compare gate failed to flag an EDP regression" >&2
    exit 1
fi

# Scheduling-policy portfolio cell: on the Monte-Carlo workload the
# adaptive ladder must actually fire and land between the fixed-policy
# extremes (--check exits nonzero unless adaptive switched, is within 10%
# of the best fixed policy, and beats the worst by ≥10%) — and the ladder
# decisions are deterministic, so two same-spec adaptive traces must be
# byte-identical.
cargo run --release -q -p arcs-bench --bin arcs-sim -- \
    schedule --workload mc.B --cap 115 --check \
    --out "$trace_tmp/sched_a.jsonl" | tee "$trace_tmp/sched.txt"
grep -q "mc/cycle_tracking: static -> trapezoid" "$trace_tmp/sched.txt"
cargo run --release -q -p arcs-bench --bin arcs-sim -- \
    schedule --workload mc.B --cap 115 \
    --out "$trace_tmp/sched_b.jsonl" > /dev/null
cmp "$trace_tmp/sched_a.jsonl" "$trace_tmp/sched_b.jsonl"

# Chaos smoke: the paper-facing fault scenario (ARCS-Online LULESH at
# 60 W under flaky-rapl) must self-heal and complete (--check exits
# nonzero if no fault fired), and the fault schedule is part of the
# determinism contract — the injected count is pinned.
cargo run --release -q -p arcs-bench --bin arcs-sim -- \
    chaos --workload lulesh --cap 60 --plan flaky-rapl --seed 7 \
    --timesteps 40 --check | tee "$trace_tmp/chaos.txt"
grep -q "injected 216 fault(s)" "$trace_tmp/chaos.txt"
# The negative contract must also *fire*: without an error budget a
# hard RAPL outage is a typed run error, so the command exits nonzero.
if cargo run --release -q -p arcs-bench --bin arcs-sim -- \
    chaos --workload sp.B --cap 70 --plan rapl-outage --seed 3 \
    --timesteps 20 --budget none > /dev/null 2>&1; then
    echo "unbudgeted rapl-outage failed to surface as an error" >&2
    exit 1
fi
# Determinism: two same-seed chaos runs must write byte-identical traces.
cargo run --release -q -p arcs-bench --bin arcs-sim -- \
    chaos --workload lulesh --cap 60 --plan flaky-rapl --seed 7 \
    --timesteps 40 --out "$trace_tmp/chaos_a.jsonl" > /dev/null
cargo run --release -q -p arcs-bench --bin arcs-sim -- \
    chaos --workload lulesh --cap 60 --plan flaky-rapl --seed 7 \
    --timesteps 40 --out "$trace_tmp/chaos_b.jsonl" > /dev/null
cmp "$trace_tmp/chaos_a.jsonl" "$trace_tmp/chaos_b.jsonl"

# Broker smoke: a live arcs-serve on loopback, 3 jobs from 2 tenants at a
# fixed seed, drained by the load generator's shutdown; the trace must
# show every admitted job completed and Σ allocated caps ≤ budget at
# every reallocation point (`verify` exits nonzero otherwise).
serve_port=47613
cargo run --release -q -p arcs-serve --bin arcs-serve -- \
    --port "$serve_port" --nodes 2 --machine crill --budget 300 \
    --trace "$trace_tmp/broker.trace.jsonl" &
serve_pid=$!
for _ in $(seq 1 50); do
    if (exec 3<>"/dev/tcp/127.0.0.1/$serve_port") 2>/dev/null; then
        exec 3>&- 3<&-
        break
    fi
    sleep 0.2
done
cargo run --release -q -p arcs-serve --bin arcs-serve-loadgen -- \
    --connect "127.0.0.1:$serve_port" --jobs 3 --tenants 2 --seed 11 \
    --reject-every 0 --fault-every 0
wait "$serve_pid"
cargo run --release -q -p arcs-serve --bin arcs-serve-loadgen -- \
    verify "$trace_tmp/broker.trace.jsonl" | tee "$trace_tmp/broker.txt"
grep -q "3 submitted, 3 scheduled, 3 completed, 0 rejected" "$trace_tmp/broker.txt"
grep -q "budget conserved" "$trace_tmp/broker.txt"

# Telemetry plane smoke: a live server on loopback, 3 jobs from 2
# tenants, then the `stats` op must return well-formed JSON whose
# telemetry snapshot shows every placement in the queue-wait histogram,
# and `arcs-serve-top --once --check-budget` must confirm Σ allocated
# watts ≤ budget from both the live `watch` stream and a replay.
telemetry_port=47614
cargo run --release -q -p arcs-serve --bin arcs-serve -- \
    --port "$telemetry_port" --nodes 2 --machine crill --budget 300 \
    --trace "$trace_tmp/telemetry.trace.jsonl" &
telemetry_pid=$!
for _ in $(seq 1 50); do
    if (exec 3<>"/dev/tcp/127.0.0.1/$telemetry_port") 2>/dev/null; then
        exec 3>&- 3<&-
        break
    fi
    sleep 0.2
done
exec 3<>"/dev/tcp/127.0.0.1/$telemetry_port"
printf '{"op":"submit","tenant":"acme","workload":"sp.S","timesteps":4,"weight":2}\n' >&3; read -r _ <&3
printf '{"op":"submit","tenant":"umbrella","workload":"cg.S","timesteps":4}\n' >&3; read -r _ <&3
printf '{"op":"submit","tenant":"acme","workload":"ep.S","timesteps":4}\n' >&3; read -r _ <&3
stats_line=""
for _ in $(seq 1 50); do
    printf '{"op":"stats"}\n' >&3; read -r stats_line <&3
    if grep -q '"completed":3' <<< "$stats_line"; then break; fi
    sleep 0.2
done
echo "$stats_line" > "$trace_tmp/stats.json"
grep -q '"ok":true' "$trace_tmp/stats.json"
grep -q '"queue_wait":{"count":3' "$trace_tmp/stats.json"
printf '{"op":"metrics"}\n' >&3; read -r metrics_line <&3
grep -q 'serve_queue_wait_s_bucket' <<< "$metrics_line"
# One live frame over `watch`; --check-budget exits nonzero if any frame
# allocates more than the budget.
cargo run --release -q -p arcs-serve --bin arcs-serve-top -- \
    --connect "127.0.0.1:$telemetry_port" --once --format json --check-budget \
    > "$trace_tmp/top_live.json"
grep -q '"budget_w":300' "$trace_tmp/top_live.json"
printf '{"op":"shutdown"}\n' >&3; read -r _ <&3
exec 3>&- 3<&-
wait "$telemetry_pid"

# Replay dashboard golden: reconstructing the dashboard from the pinned
# v5 broker fixture is a pure function of the file — run it twice and
# both outputs must match the checked-in golden byte-for-byte.
for i in 1 2; do
    cargo run --release -q -p arcs-serve --bin arcs-serve-top -- \
        --replay tests/fixtures/trace_v5_broker.jsonl --once --format json \
        --check-budget > "$trace_tmp/top_replay_$i.json"
    cmp "$trace_tmp/top_replay_$i.json" tests/fixtures/serve_top_v5.golden.json
done

# Admission control must *fire*: the in-process loadgen plants jobs whose
# floor cap tops the whole budget and fails unless they were rejected —
# and unless zero admitted jobs were lost, the budget held at every
# reallocation, and the tenant fairness ratio stayed in bounds.
cargo run --release -q -p arcs-serve --bin arcs-serve-loadgen -- \
    --jobs 200 --tenants 4 --nodes 4 --budget 400 --seed 42 \
    --out "$trace_tmp/loadgen_a.jsonl" | tee "$trace_tmp/loadgen.txt"
grep -q "loadgen: PASS" "$trace_tmp/loadgen.txt"
# Determinism: the same seed must write a byte-identical broker trace.
cargo run --release -q -p arcs-serve --bin arcs-serve-loadgen -- \
    --jobs 200 --tenants 4 --nodes 4 --budget 400 --seed 42 \
    --out "$trace_tmp/loadgen_b.jsonl" > /dev/null
cmp "$trace_tmp/loadgen_a.jsonl" "$trace_tmp/loadgen_b.jsonl"

# Broker chaos: 1000 jobs under the node-flap preset with a bounded
# admission queue. The loadgen exits nonzero unless every submitted job
# reached a terminal state (zero lost), at least one node failed AND one
# victim was requeued (the chaos must actually bite), shedding fired,
# and Σ allocations never topped the budget — and the same seed must
# still write a byte-identical trace with the fault schedule on.
cargo run --release -q -p arcs-serve --bin arcs-serve-loadgen -- \
    --jobs 1000 --tenants 4 --nodes 4 --budget 400 --seed 42 \
    --node-faults node-flap:7 --shed-target 64 \
    --out "$trace_tmp/chaos_a.jsonl" | tee "$trace_tmp/chaos.txt"
grep -q "loadgen: PASS" "$trace_tmp/chaos.txt"
cargo run --release -q -p arcs-serve --bin arcs-serve-loadgen -- \
    --jobs 1000 --tenants 4 --nodes 4 --budget 400 --seed 42 \
    --node-faults node-flap:7 --shed-target 64 \
    --out "$trace_tmp/chaos_b.jsonl" > /dev/null
cmp "$trace_tmp/chaos_a.jsonl" "$trace_tmp/chaos_b.jsonl"

# Crash recovery over the wire: run a journaled arcs-serve under node
# faults, kill it mid-run (no draining shutdown), restart with --recover,
# and the recovered server must answer stats with the pre-kill counters
# and carry the CheckpointRecovered lineage marker in its new journal.
recover_port=47615
cargo run --release -q -p arcs-serve --bin arcs-serve -- \
    --port "$recover_port" --nodes 2 --machine crill --budget 300 \
    --node-faults node-flap:7 --journal "$trace_tmp/broker.journal.jsonl" &
recover_pid=$!
for _ in $(seq 1 50); do
    if (exec 3<>"/dev/tcp/127.0.0.1/$recover_port") 2>/dev/null; then
        exec 3>&- 3<&-
        break
    fi
    sleep 0.2
done
exec 3<>"/dev/tcp/127.0.0.1/$recover_port"
printf '{"op":"submit","tenant":"acme","workload":"sp.S","timesteps":6}\n' >&3; read -r _ <&3
printf '{"op":"submit","tenant":"umbrella","workload":"cg.S","timesteps":6}\n' >&3; read -r _ <&3
printf '{"op":"stats"}\n' >&3; read -r pre_kill <&3
exec 3>&- 3<&-
# `cargo run` wraps the server in a parent process: kill the whole
# command line, or the orphaned broker keeps the journal growing.
pkill -9 -f "arcs-serve --port $recover_port --nodes" || true
kill -9 "$recover_pid" 2>/dev/null || true
wait "$recover_pid" 2>/dev/null || true
pre_submitted="$(grep -o '"submitted":[0-9]*' <<< "$pre_kill" | head -1)"
test -n "$pre_submitted"
# A fresh port for the restart: the killed listener may leave the old
# one in TIME_WAIT.
recover_port2=47616
cargo run --release -q -p arcs-serve --bin arcs-serve -- \
    --port "$recover_port2" --recover "$trace_tmp/broker.journal.jsonl" \
    --journal "$trace_tmp/broker.journal2.jsonl" &
recover_pid=$!
for _ in $(seq 1 50); do
    if (exec 3<>"/dev/tcp/127.0.0.1/$recover_port2") 2>/dev/null; then
        exec 3>&- 3<&-
        break
    fi
    sleep 0.2
done
exec 3<>"/dev/tcp/127.0.0.1/$recover_port2"
printf '{"op":"stats"}\n' >&3; read -r post_recover <&3
grep -q "$pre_submitted" <<< "$post_recover"
printf '{"op":"shutdown"}\n' >&3; read -r _ <&3
exec 3>&- 3<&-
wait "$recover_pid"
grep -q "CheckpointRecovered" "$trace_tmp/broker.journal2.jsonl"
