#!/usr/bin/env bash
# Fast smoke run (< ~2 minutes on a laptop): proves the workspace builds
# and that TIM+ works end-to-end on small inputs, following the
# kick-tires/full split of the ruler artifact scripts.
#
#   ./scripts/kick-tires.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "Starting Kick Tires"

rm -rf out/kick-tires
mkdir -p out/kick-tires

echo "== build (release) =="
cargo build --release --workspace

echo "== smoke test: Tim + TimPlus end-to-end =="
cargo test -q --release --test smoke

echo "== quickstart example (TIM+ on a 5k-node BA graph) =="
cargo run --release --example quickstart | tee out/kick-tires/quickstart.txt

echo "== CLI round trip: generate -> stats -> select -> evaluate =="
TIM=target/release/tim
GRAPH=out/kick-tires/ba_small.txt
"$TIM" generate ba --out "$GRAPH" --n 2000 --param 4 --seed 1
"$TIM" stats "$GRAPH" | tee out/kick-tires/stats.txt
# --quiet prints exactly one seed label per line.
"$TIM" select "$GRAPH" -k 10 --algo tim+ --model ic --weights wc --eps 0.3 --seed 7 --quiet \
    | tee out/kick-tires/select.txt
SEEDS=$(paste -sd, out/kick-tires/select.txt)
echo "selected seeds: $SEEDS"
"$TIM" evaluate "$GRAPH" --seeds "$SEEDS" --model ic --weights wc --runs 2000 --seed 7 \
    | tee out/kick-tires/evaluate.txt

echo "== snapshot: binary graph round trip =="
SNAP=out/kick-tires/ba_small.timg
"$TIM" snapshot "$GRAPH" --out "$SNAP" | tee out/kick-tires/snapshot.txt
"$TIM" stats "$SNAP" > /dev/null   # transparent .timg input

echo "== query engine: warm pool answers == fresh select =="
POOL=out/kick-tires/ba_small.timp
SESSION=out/kick-tires/session.txt
{
    echo "ping"
    echo "select 10"
    echo "select 5"
    echo "eval $SEEDS"
    echo "marginal $(head -1 out/kick-tires/select.txt) $(sed -n 2p out/kick-tires/select.txt)"
    echo "select 3 fast"
} > "$SESSION"
"$TIM" query "$SNAP" --pool "$POOL" -k 10 --eps 0.3 --seed 7 < "$SESSION" \
    | tee out/kick-tires/query.txt
# The k=10 query answer must be byte-identical to the fresh select run.
sed -n 2p out/kick-tires/query.txt | sed 's/^seeds: //' | tr ' ' '\n' \
    > out/kick-tires/query_seeds.txt
diff out/kick-tires/select.txt out/kick-tires/query_seeds.txt \
    && echo "warm-pool seeds byte-identical to fresh select: OK"

echo "== server: tim serve answers == tim query answers =="
# Ephemeral port; the bound address appears on stdout as "listening on …".
"$TIM" serve "$SNAP" --addr 127.0.0.1:0 --pool "$POOL" -k 10 --eps 0.3 --seed 7 \
    > out/kick-tires/serve.addr 2> out/kick-tires/serve.log &
SERVE_PID=$!
trap 'kill $SERVE_PID 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do
    grep -q '^listening on ' out/kick-tires/serve.addr 2>/dev/null && break
    sleep 0.1
done
ADDR=$(sed -n 's/^listening on //p' out/kick-tires/serve.addr)
echo "server at $ADDR (pid $SERVE_PID)"
"$TIM" client --addr "$ADDR" < "$SESSION" | tee out/kick-tires/serve_answers.txt
# Two more concurrent scripted clients: every session must agree.
"$TIM" client --addr "$ADDR" < "$SESSION" > out/kick-tires/serve_answers2.txt &
C2=$!
"$TIM" client --addr "$ADDR" < "$SESSION" > out/kick-tires/serve_answers3.txt &
C3=$!
wait $C2 $C3
kill $SERVE_PID 2>/dev/null || true
wait $SERVE_PID 2>/dev/null || true
trap - EXIT
diff out/kick-tires/query.txt out/kick-tires/serve_answers.txt \
    && echo "tim serve byte-identical to tim query: OK"
diff out/kick-tires/serve_answers.txt out/kick-tires/serve_answers2.txt
diff out/kick-tires/serve_answers.txt out/kick-tires/serve_answers3.txt \
    && echo "concurrent client sessions byte-identical: OK"

echo "== event-loop server: epoll core answers == tim query answers =="
# Same snapshot and session through the epoll serving core, with idle
# reaping and admission control armed: the transcript must not change.
"$TIM" serve "$SNAP" --addr 127.0.0.1:0 --pool "$POOL" -k 10 --eps 0.3 --seed 7 \
    --event-loop --idle-timeout 30 --max-conns 256 \
    > out/kick-tires/evloop.addr 2> out/kick-tires/evloop.log &
EV_PID=$!
trap 'kill $EV_PID 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do
    grep -q '^listening on ' out/kick-tires/evloop.addr 2>/dev/null && break
    sleep 0.1
done
EV_ADDR=$(sed -n 's/^listening on //p' out/kick-tires/evloop.addr)
echo "event-loop server at $EV_ADDR (pid $EV_PID)"
"$TIM" client --addr "$EV_ADDR" --timeout 60 < "$SESSION" \
    > out/kick-tires/evloop_answers.txt
# A second pair of concurrent sessions, pipelined through one core.
"$TIM" client --addr "$EV_ADDR" --timeout 60 < "$SESSION" > out/kick-tires/evloop_answers2.txt &
E2=$!
"$TIM" client --addr "$EV_ADDR" --timeout 60 < "$SESSION" > out/kick-tires/evloop_answers3.txt &
E3=$!
wait $E2 $E3
kill $EV_PID 2>/dev/null || true
wait $EV_PID 2>/dev/null || true
trap - EXIT
diff out/kick-tires/query.txt out/kick-tires/evloop_answers.txt \
    && echo "event-loop serve byte-identical to tim query: OK"
diff out/kick-tires/evloop_answers.txt out/kick-tires/evloop_answers2.txt
diff out/kick-tires/evloop_answers.txt out/kick-tires/evloop_answers3.txt \
    && echo "concurrent event-loop sessions byte-identical: OK"

echo "== multi-graph serve: two-graph use/batch session == two single-graph replays =="
GRAPH2=out/kick-tires/ws_small.txt
"$TIM" generate ws --out "$GRAPH2" --n 1500 --param 6 --seed 2
# Per-graph query scripts (labels 0..n-1 exist in both graphs).
QA=out/kick-tires/mg_queries_a.txt
QB=out/kick-tires/mg_queries_b.txt
printf 'select 5\nselect 8\neval 0,1,2\nmarginal 0,1 2\nselect 4 fast\nping\n' > "$QA"
printf 'select 6\nselect 3\neval 0,1,2\nmarginal 0,1 2\nselect 2 fast\nping\n' > "$QB"
# One server, two named graphs; the second half of the session is batched.
MGSESSION=out/kick-tires/mg_session.txt
{
    echo "use ba"
    cat "$QA"
    echo "use ws"
    echo "batch $(wc -l < "$QB")"
    cat "$QB"
} > "$MGSESSION"
"$TIM" serve --graph ba="$SNAP" --graph ws="$GRAPH2" --addr 127.0.0.1:0 \
    -k 10 --eps 0.3 --seed 7 \
    > out/kick-tires/mg_serve.addr 2> out/kick-tires/mg_serve.log &
MG_PID=$!
trap 'kill $MG_PID 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do
    grep -q '^listening on ' out/kick-tires/mg_serve.addr 2>/dev/null && break
    sleep 0.1
done
MG_ADDR=$(sed -n 's/^listening on //p' out/kick-tires/mg_serve.addr)
echo "multi-graph server at $MG_ADDR (pid $MG_PID)"
"$TIM" client --addr "$MG_ADDR" < "$MGSESSION" | tee out/kick-tires/mg_answers.txt
# A scripted session with an error response must make tim client fail.
if printf 'bogus\n' | "$TIM" client --addr "$MG_ADDR" > /dev/null 2>&1; then
    echo "tim client ignored an error response" >&2
    exit 1
fi
echo "tim client exits nonzero on error responses: OK"
kill $MG_PID 2>/dev/null || true
wait $MG_PID 2>/dev/null || true
trap - EXIT
# Ground truth: each graph replayed alone through tim query (one engine,
# no catalog switching, no batching) — the session must match exactly.
{
    echo "using ba"
    "$TIM" query "$SNAP"  -k 10 --eps 0.3 --seed 7 --quiet < "$QA"
    echo "using ws"
    "$TIM" query "$GRAPH2" -k 10 --eps 0.3 --seed 7 --quiet < "$QB"
} > out/kick-tires/mg_expected.txt
diff out/kick-tires/mg_expected.txt out/kick-tires/mg_answers.txt \
    && echo "two-graph use/batch session byte-identical to single-graph replays: OK"

echo "== warm-state tenancy: two-phase restart drill =="
POOLDIR=out/kick-tires/pools
rm -rf "$POOLDIR"
# Phase 1 (cold): serve with write-back, replay the session, check the
# counters admit the cold build, then kill the process.
"$TIM" serve "$SNAP" --addr 127.0.0.1:0 --pool-dir "$POOLDIR" --persist-pools --admin \
    -k 10 --eps 0.3 --seed 7 \
    > out/kick-tires/warm1.addr 2> out/kick-tires/warm1.log &
W1=$!
trap 'kill $W1 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do
    grep -q '^listening on ' out/kick-tires/warm1.addr 2>/dev/null && break
    sleep 0.1
done
ADDR1=$(sed -n 's/^listening on //p' out/kick-tires/warm1.addr)
echo "cold server at $ADDR1 (pid $W1), pools in $POOLDIR"
"$TIM" client --addr "$ADDR1" --timeout 60 < "$SESSION" > out/kick-tires/restart_cold.txt
printf 'select 10\nstats pools\n' | "$TIM" client --addr "$ADDR1" --timeout 60 \
    | tee out/kick-tires/restart_cold_pools.txt | grep -q 'builds=1 loads=0' \
    && echo "cold phase sampled its pool (builds=1): OK"
kill $W1 2>/dev/null || true
wait $W1 2>/dev/null || true
trap - EXIT
test -n "$(find "$POOLDIR" -name '*.timp' 2>/dev/null)" \
    && echo "pool spilled to the store before the kill: OK"
# Phase 2 (warm): restart against the same store, read-through only. The
# transcript must be byte-for-byte identical with zero pool builds.
"$TIM" serve "$SNAP" --addr 127.0.0.1:0 --pool-dir "$POOLDIR" --admin \
    -k 10 --eps 0.3 --seed 7 \
    > out/kick-tires/warm2.addr 2> out/kick-tires/warm2.log &
W2=$!
trap 'kill $W2 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do
    grep -q '^listening on ' out/kick-tires/warm2.addr 2>/dev/null && break
    sleep 0.1
done
ADDR2=$(sed -n 's/^listening on //p' out/kick-tires/warm2.addr)
echo "warm server at $ADDR2 (pid $W2)"
"$TIM" client --addr "$ADDR2" --timeout 60 < "$SESSION" > out/kick-tires/restart_warm.txt
diff out/kick-tires/restart_cold.txt out/kick-tires/restart_warm.txt \
    && echo "restart transcripts byte-identical: OK"
printf 'select 10\nstats pools\n' | "$TIM" client --addr "$ADDR2" --timeout 60 \
    | tee out/kick-tires/restart_warm_pools.txt | grep -q 'builds=0 loads=1' \
    && echo "warm phase loaded from the store, zero rebuilds: OK"
# Runtime tenancy: attach the ws graph live, query it, detach it again —
# every answer must be a non-error (tim client asserts that itself).
printf 'attach ws-live=%s\nuse ws-live\nselect 4\nstats\ndetach ws-live\nselect 2\npersist\n' "$GRAPH2" \
    | "$TIM" client --addr "$ADDR2" --timeout 60 \
    | tee out/kick-tires/attach_detach.txt
grep -q '^attached ws-live$' out/kick-tires/attach_detach.txt
grep -q '^detached ws-live$' out/kick-tires/attach_detach.txt \
    && echo "runtime attach/detach with drain: OK"
kill $W2 2>/dev/null || true
wait $W2 2>/dev/null || true
trap - EXIT

echo "== out-of-core pools: --mmap-pools restart == cold transcript =="
# Phase 3 (mapped): restart once more with --mmap-pools — the v2 spill
# restores as a zero-copy read-only mapping instead of a heap decode.
# Same transcript to the byte, zero builds, and the counters must show
# the mapped path served it (mmap_opens + verifies, not heap_loads).
"$TIM" serve "$SNAP" --addr 127.0.0.1:0 --pool-dir "$POOLDIR" --mmap-pools --admin \
    -k 10 --eps 0.3 --seed 7 \
    > out/kick-tires/warm3.addr 2> out/kick-tires/warm3.log &
W3=$!
trap 'kill $W3 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do
    grep -q '^listening on ' out/kick-tires/warm3.addr 2>/dev/null && break
    sleep 0.1
done
ADDR3=$(sed -n 's/^listening on //p' out/kick-tires/warm3.addr)
echo "mapped-pool server at $ADDR3 (pid $W3)"
"$TIM" client --addr "$ADDR3" --timeout 60 < "$SESSION" > out/kick-tires/restart_mapped.txt
diff out/kick-tires/restart_cold.txt out/kick-tires/restart_mapped.txt \
    && echo "--mmap-pools transcript byte-identical to the cold run: OK"
printf 'select 10\nstats pools\n' | "$TIM" client --addr "$ADDR3" --timeout 60 \
    | tee out/kick-tires/restart_mapped_pools.txt | grep -q 'builds=0 loads=1' \
    && echo "mapped phase loaded from the store, zero rebuilds: OK"
grep -q 'mmap_opens=1 verifies=1 heap_loads=0' out/kick-tires/restart_mapped_pools.txt \
    && echo "restore went through the mmap path (mmap_opens=1, heap_loads=0): OK"
kill $W3 2>/dev/null || true
wait $W3 2>/dev/null || true
trap - EXIT

echo "== out-of-core: v2 snapshot served via mmap == heap transcript =="
# Bake the WC probabilities into a page-aligned v2 snapshot, then run the
# same scripted session through the heap loader (--weights keep) and the
# zero-copy mmap backing (--mmap). The transcripts must be byte-identical.
SNAP2=out/kick-tires/ba_small.v2.timg
"$TIM" snapshot "$GRAPH" --out "$SNAP2" --format v2 --weights wc \
    | tee out/kick-tires/snapshot_v2.txt
"$TIM" query "$SNAP2" -k 10 --eps 0.3 --seed 7 --weights keep < "$SESSION" \
    > out/kick-tires/oc_heap.txt
"$TIM" query "$SNAP2" -k 10 --eps 0.3 --seed 7 --mmap < "$SESSION" \
    > out/kick-tires/oc_mmap.txt
diff out/kick-tires/oc_heap.txt out/kick-tires/oc_mmap.txt \
    && echo "mmap-backed answers byte-identical to heap answers: OK"
# Serve the mapped graph and replay the session through a live client too.
"$TIM" serve "$SNAP2" --addr 127.0.0.1:0 --mmap -k 10 --eps 0.3 --seed 7 \
    > out/kick-tires/oc_serve.addr 2> out/kick-tires/oc_serve.log &
OC_PID=$!
trap 'kill $OC_PID 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do
    grep -q '^listening on ' out/kick-tires/oc_serve.addr 2>/dev/null && break
    sleep 0.1
done
OC_ADDR=$(sed -n 's/^listening on //p' out/kick-tires/oc_serve.addr)
echo "mmap-backed server at $OC_ADDR (pid $OC_PID)"
"$TIM" client --addr "$OC_ADDR" --timeout 60 < "$SESSION" \
    > out/kick-tires/oc_serve_answers.txt
kill $OC_PID 2>/dev/null || true
wait $OC_PID 2>/dev/null || true
trap - EXIT
diff out/kick-tires/oc_heap.txt out/kick-tires/oc_serve_answers.txt \
    && echo "mmap-backed serve byte-identical to heap query: OK"

echo "== sharded selection: --select-threads 4 transcript == serial transcript =="
# Same snapshot, same session, selection sharded across 4 workers (and
# once with 0 = all cores): the thread count may only change latency —
# the transcripts must be byte-identical to the serial query run.
"$TIM" query "$SNAP2" -k 10 --eps 0.3 --seed 7 --weights keep --select-threads 4 < "$SESSION" \
    > out/kick-tires/sharded_query.txt
diff out/kick-tires/oc_heap.txt out/kick-tires/sharded_query.txt \
    && echo "--select-threads 4 query byte-identical to serial: OK"
"$TIM" query "$SNAP2" -k 10 --eps 0.3 --seed 7 --weights keep --select-threads 0 < "$SESSION" \
    > out/kick-tires/sharded_query_auto.txt
diff out/kick-tires/oc_heap.txt out/kick-tires/sharded_query_auto.txt \
    && echo "--select-threads 0 (all cores) byte-identical to serial: OK"
# And through a live server over the mmap backing.
"$TIM" serve "$SNAP2" --addr 127.0.0.1:0 --mmap --select-threads 4 -k 10 --eps 0.3 --seed 7 \
    > out/kick-tires/sharded_serve.addr 2> out/kick-tires/sharded_serve.log &
SH_PID=$!
trap 'kill $SH_PID 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do
    grep -q '^listening on ' out/kick-tires/sharded_serve.addr 2>/dev/null && break
    sleep 0.1
done
SH_ADDR=$(sed -n 's/^listening on //p' out/kick-tires/sharded_serve.addr)
echo "sharded-selection server at $SH_ADDR (pid $SH_PID)"
"$TIM" client --addr "$SH_ADDR" --timeout 60 < "$SESSION" \
    > out/kick-tires/sharded_serve_answers.txt
kill $SH_PID 2>/dev/null || true
wait $SH_PID 2>/dev/null || true
trap - EXIT
diff out/kick-tires/oc_serve_answers.txt out/kick-tires/sharded_serve_answers.txt \
    && echo "--select-threads 4 serve byte-identical to serial serve: OK"

echo "== unknown flags are rejected =="
# A removed option or a misspelt flag must fail loudly (exit 2), never be
# silently ignored.
for flags in "--select-strategy lazy" "--select-threds 4"; do
    if "$TIM" query "$SNAP2" $flags < /dev/null 2> out/kick-tires/unknown_flag.log; then
        echo "tim query accepted $flags" >&2
        exit 1
    fi
    grep -q '^error: unknown flag' out/kick-tires/unknown_flag.log \
        && echo "tim query $flags rejected: OK"
done

echo "== experiment driver (quick): Figure 4 phase breakdown =="
cargo run --release -p tim_bench --bin experiments -- fig4 --quick --scale 0.2 \
    | tee out/kick-tires/fig4_quick.txt

echo
echo "Kick Tires passed; artifacts in out/kick-tires/"
