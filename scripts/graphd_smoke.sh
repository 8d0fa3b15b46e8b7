#!/usr/bin/env bash
# graphd boot/query/shed/drain smoke test, run by the graphd-smoke CI job.
#
# Boots the daemon on a generated road graph with a deliberately tiny
# admission envelope (one run slot, one queue seat), then checks the five
# serving behaviors end to end: readiness, a correct query, fast load
# shedding under saturation (429 + Retry-After), repeated-identical-query
# absorption by the cache + coalescer (exactly one engine run), live
# observability (/metrics run + engine-round counters advanced by the query
# phase, /debug/queries trace export), live mutation (/update batches advance
# the graph epoch; identical queries re-run instead of serving the stale
# cached answer, and mid-flight queries keep answering; 300 reweight batches
# in a row are all acked 200 with nothing left to compact), durability (kill
# -9 mid-service, restart over the same -data-dir, and every acked /update is
# still answered while a rejected one stays gone), and a clean SIGTERM
# drain.
set -euo pipefail

workdir=$(mktemp -d)
pid=""
cleanup() {
  [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

echo "== generate graphs"
go run ./cmd/graphgen -kind road -rows 400 -cols 400 -seed 1 -o "$workdir/road.bin"
# A tiny directed weighted path for the mutation phase (road grids are
# symmetric, which livegraph serves read-only): 0 -> 1 (w 5) -> 2 (w 10).
printf '0 1 5\n1 2 10\n' >"$workdir/line.wel"

echo "== build and boot graphd (1 slot, 1 queue seat, mutable, durable)"
go build -o "$workdir/graphd" ./cmd/graphd
boot_graphd() {
  "$workdir/graphd" -graph road="$workdir/road.bin" -graph line="$workdir/line.wel" \
    -addr 127.0.0.1:18090 \
    -max-concurrent 1 -queue-depth 1 -default-budget 10s -mutable \
    -data-dir "$workdir/data" -wal-sync always \
    -batch-window 250ms -batch-max-lanes 16 &
  pid=$!
}
wait_ready() {
  local ready=""
  for _ in $(seq 1 100); do
    if [ "$(curl -s -o /dev/null -w '%{http_code}' http://127.0.0.1:18090/readyz || true)" = "200" ]; then
      ready=yes
      break
    fi
    sleep 0.2
  done
  [ -n "$ready" ] || { echo "graphd never became ready" >&2; exit 1; }
}
boot_graphd

echo "== wait for readiness"
wait_ready

echo "== single query answers"
body='{"algo":"sssp","graph":"road","src":0,"delta":64}'
resp=$(curl -s -d "$body" http://127.0.0.1:18090/query)
echo "$resp"
echo "$resp" | grep -q '"reached":' || { echo "query response missing result" >&2; exit 1; }
echo "$resp" | grep -q '"error"' && { echo "query unexpectedly errored" >&2; exit 1; }

echo "== saturation sheds with 429 + Retry-After"
# Each query gets a distinct src: identical bodies would coalesce into one
# shared run (tested below) instead of contending for the single slot.
mkdir -p "$workdir/headers"
curl_pids=()
for i in $(seq 1 40); do
  sat_body="{\"algo\":\"sssp\",\"graph\":\"road\",\"src\":$((i * 97)),\"delta\":64}"
  curl -s -o /dev/null -D "$workdir/headers/$i" -w '%{http_code}\n' \
    -d "$sat_body" http://127.0.0.1:18090/query >>"$workdir/codes" &
  curl_pids+=($!)
done
# Wait for the curls only — a bare `wait` would also wait on graphd itself.
wait "${curl_pids[@]}"
sort "$workdir/codes" | uniq -c
grep -q '^200$' "$workdir/codes" || { echo "no query succeeded under saturation" >&2; exit 1; }
grep -q '^429$' "$workdir/codes" || { echo "saturation produced no 429 shed" >&2; exit 1; }
# Every shed response must carry Retry-After.
for h in "$workdir"/headers/*; do
  if grep -q '^HTTP/[0-9.]* 429' "$h" && ! grep -qi '^retry-after:' "$h"; then
    echo "429 without Retry-After in $h" >&2
    cat "$h" >&2
    exit 1
  fi
done

echo "== cache + coalesce absorb 20 identical queries into one engine run"
runs_before=$(curl -s http://127.0.0.1:18090/statusz | grep -o '"runs":[0-9]*' | cut -d: -f2)
cbody='{"algo":"sssp","graph":"road","src":7777,"delta":64}'
curl_pids=()
for i in $(seq 1 20); do
  curl -s -d "$cbody" http://127.0.0.1:18090/query >>"$workdir/repeat_resps" &
  curl_pids+=($!)
done
wait "${curl_pids[@]}"
# All 20 answered, correctly and identically: one distinct reached count,
# one distinct max_value, no errors.
[ "$(grep -c '"reached":' "$workdir/repeat_resps")" -eq 20 ] \
  || { echo "not every repeated query answered" >&2; exit 1; }
grep -q '"error"' "$workdir/repeat_resps" && { echo "repeated query errored" >&2; exit 1; }
for field in reached max_value; do
  distinct=$(grep -o "\"$field\":[0-9]*" "$workdir/repeat_resps" | sort -u | wc -l)
  [ "$distinct" -eq 1 ] || { echo "repeated queries disagree on $field" >&2; exit 1; }
done
# Exactly one engine run produced all 20 answers...
statusz=$(curl -s http://127.0.0.1:18090/statusz)
runs_after=$(echo "$statusz" | grep -o '"runs":[0-9]*' | cut -d: -f2)
runs_delta=$((runs_after - runs_before))
[ "$runs_delta" -eq 1 ] \
  || { echo "20 identical queries cost $runs_delta engine runs, want 1" >&2; exit 1; }
# ...and the statusz counters attribute at least half to the cache/coalescer.
hits=$(echo "$statusz" | grep -o '"hits":[0-9]*' | cut -d: -f2)
coalesced=$(echo "$statusz" | grep -o '"coalesced":[0-9]*' | cut -d: -f2)
absorbed=$((hits + coalesced))
[ "$absorbed" -ge 10 ] \
  || { echo "cache+coalesce served only $absorbed of 19 repeats (hits=$hits coalesced=$coalesced)" >&2; exit 1; }
echo "repeats absorbed: $absorbed (cache hits=$hits, coalesced=$coalesced), engine runs=+$runs_delta"

echo "== /metrics scrapes with non-zero run and engine-round counters"
curl -s http://127.0.0.1:18090/metrics >"$workdir/metrics"
# Prometheus exposition shape: HELP/TYPE headers present.
grep -q '^# TYPE qexec_stage_duration_seconds histogram$' "$workdir/metrics" \
  || { echo "/metrics missing qexec stage histogram TYPE header" >&2; exit 1; }
# The query phase above must have advanced the run-stage histogram...
run_count=$(sed -n 's/^qexec_stage_duration_seconds_count{stage="run"} //p' "$workdir/metrics")
[ -n "$run_count" ] && [ "$run_count" -ge 1 ] \
  || { echo "run-stage histogram count is '${run_count:-missing}', want >= 1" >&2; exit 1; }
# ...and the engine's per-(algo, strategy) round histogram for sssp/road.
round_count=$(sed -n 's/^engine_round_duration_seconds_count{algo="sssp",graph="road",strategy="[a-z_]*"} //p' "$workdir/metrics" | head -1)
[ -n "$round_count" ] && [ "$round_count" -ge 1 ] \
  || { echo "engine round histogram count is '${round_count:-missing}', want >= 1" >&2; exit 1; }
# Runs counted by (algo, strategy) with ok status.
grep -q '^engine_runs_total{algo="sssp",graph="road",status="ok",strategy="' "$workdir/metrics" \
  || { echo "/metrics missing engine_runs_total for sssp/road" >&2; exit 1; }
# Outcome and shed counters reflect the phases above.
grep -q '^qexec_outcomes_total{code="ok"} ' "$workdir/metrics" \
  || { echo "/metrics missing ok outcome counter" >&2; exit 1; }
shed_total=$(sed -n 's/^qexec_shed_total //p' "$workdir/metrics")
[ -n "$shed_total" ] && [ "$shed_total" -ge 1 ] \
  || { echo "saturation phase recorded no sheds in /metrics (got '${shed_total:-missing}')" >&2; exit 1; }
echo "metrics: run_count=$run_count round_count=$round_count shed_total=$shed_total"

echo "== batch window merges 16 different-src lazy queries into multi-lane runs"
lanes_before=$(curl -s http://127.0.0.1:18090/metrics | sed -n 's/^qexec_batch_lanes_total //p')
lanes_before=${lanes_before:-0}
curl_pids=()
for i in $(seq 1 16); do
  bbody="{\"algo\":\"sssp\",\"graph\":\"road\",\"src\":$((i * 131 + 3)),\"delta\":64,\"strategy\":\"lazy\"}"
  curl -s -d "$bbody" http://127.0.0.1:18090/query >>"$workdir/batch_resps" &
  curl_pids+=($!)
done
wait "${curl_pids[@]}"
[ "$(grep -c '"reached":' "$workdir/batch_resps")" -eq 16 ] \
  || { echo "not every batched query answered" >&2; exit 1; }
grep -q '"error"' "$workdir/batch_resps" && { echo "batched query errored" >&2; exit 1; }
curl -s http://127.0.0.1:18090/metrics >"$workdir/metrics_batch"
lanes_after=$(sed -n 's/^qexec_batch_lanes_total //p' "$workdir/metrics_batch")
batch_runs=$(sed -n 's/^qexec_batch_runs_total //p' "$workdir/metrics_batch")
lanes_delta=$(( ${lanes_after:-0} - lanes_before ))
[ "$lanes_delta" -ge 2 ] \
  || { echo "batch stage carried only $lanes_delta lanes, want >= 2 (runs=${batch_runs:-0})" >&2; exit 1; }
[ "${batch_runs:-0}" -ge 1 ] \
  || { echo "batch stage executed no multi-source run" >&2; exit 1; }
echo "batch phase: +$lanes_delta lanes over $batch_runs multi-source runs"
# Two identical concurrent lazy queries are one lane with two waiters: the
# window they open closes with a single occupant, and exactly one of them is
# the coalesced waiter.
solo_before=$(sed -n 's/^qexec_batch_solo_total //p' "$workdir/metrics_batch")
windows_before=$(sed -n 's/^qexec_batch_windows_total //p' "$workdir/metrics_batch")
tbody='{"algo":"sssp","graph":"road","src":77777,"delta":64,"strategy":"lazy"}'
curl -s -d "$tbody" http://127.0.0.1:18090/query >"$workdir/twin_a" &
twin_pid=$!
curl -s -d "$tbody" http://127.0.0.1:18090/query >"$workdir/twin_b"
wait "$twin_pid"
cat "$workdir/twin_a" "$workdir/twin_b" >"$workdir/twins"
[ "$(grep -c '"reached":160000' "$workdir/twins")" -eq 2 ] \
  || { echo "identical lazy pair not both answered: $(cat "$workdir/twins")" >&2; exit 1; }
[ "$(grep -c '"coalesced":true' "$workdir/twins")" -eq 1 ] \
  || { echo "identical lazy pair: want exactly one coalesced reply: $(cat "$workdir/twins")" >&2; exit 1; }
curl -s http://127.0.0.1:18090/metrics >"$workdir/metrics_twins"
solo_delta=$(( $(sed -n 's/^qexec_batch_solo_total //p' "$workdir/metrics_twins") - ${solo_before:-0} ))
windows_delta=$(( $(sed -n 's/^qexec_batch_windows_total //p' "$workdir/metrics_twins") - ${windows_before:-0} ))
[ "$windows_delta" -eq 1 ] && [ "$solo_delta" -eq 1 ] \
  || { echo "identical lazy pair opened $windows_delta windows ($solo_delta solo), want one window closing with one lane" >&2; exit 1; }
echo "twin phase: one lane, one coalesced waiter"

echo "== mutate while querying: epoch advances, no stale cached answers"
lbody='{"algo":"sssp","graph":"line","src":0,"vertices":[2]}'
# Pre-batch: dist(0->2) = 5 + 10 = 15 at epoch 0; ask twice so the second
# answer is served from the epoch-0 cache entry.
for i in 1 2; do
  resp=$(curl -s -d "$lbody" http://127.0.0.1:18090/query)
  echo "$resp" | grep -q '"2":15' || { echo "pre-batch query $i: want dist 15, got: $resp" >&2; exit 1; }
  echo "$resp" | grep -q '"epoch":0' || { echo "pre-batch query $i not at epoch 0: $resp" >&2; exit 1; }
done
# Reweight 1->2 to 9 while identical queries are in flight; every in-flight
# answer must be a clean epoch-consistent one (15 at epoch 0 or 14 at 1).
curl_pids=()
for i in $(seq 1 8); do
  curl -s -d "$lbody" http://127.0.0.1:18090/query >>"$workdir/mutate_resps" &
  curl_pids+=($!)
done
up=$(curl -s -d '{"graph":"line","ops":[{"op":"reweight","src":1,"dst":2,"w":9}]}' \
  http://127.0.0.1:18090/update)
echo "$up" | grep -q '"epoch":1' || { echo "update did not advance to epoch 1: $up" >&2; exit 1; }
wait "${curl_pids[@]}"
[ "$(grep -c '"strategy"' "$workdir/mutate_resps")" -eq 8 ] \
  || { echo "not every mid-flight query answered" >&2; exit 1; }
grep -q '"error"' "$workdir/mutate_resps" && { echo "mid-flight query errored during mutation" >&2; exit 1; }
while read -r line; do
  echo "$line" | grep -Eq '"2":15.*"epoch":0|"epoch":0.*"2":15|"2":14.*"epoch":1|"epoch":1.*"2":14' \
    || { echo "mid-flight answer not epoch-consistent: $line" >&2; exit 1; }
done <"$workdir/mutate_resps"
# Post-batch: the identical query must NOT serve the stale epoch-0 cache
# entry — it re-runs against epoch 1 and sees the new weight.
resp=$(curl -s -d "$lbody" http://127.0.0.1:18090/query)
echo "$resp" | grep -q '"2":14' || { echo "post-batch query still sees old weight: $resp" >&2; exit 1; }
echo "$resp" | grep -q '"epoch":1' || { echo "post-batch query not at epoch 1: $resp" >&2; exit 1; }
# A second batch drops the weight to 3: epoch 2, dist 8.
up=$(curl -s -d '{"graph":"line","ops":[{"op":"reweight","src":1,"dst":2,"w":3}]}' \
  http://127.0.0.1:18090/update)
echo "$up" | grep -q '"epoch":2' || { echo "second update did not reach epoch 2: $up" >&2; exit 1; }
resp=$(curl -s -d "$lbody" http://127.0.0.1:18090/query)
echo "$resp" | grep -q '"2":8' || { echo "query after second batch: want dist 8, got: $resp" >&2; exit 1; }
# /metrics reflects the epoch advance and the applied batches.
curl -s http://127.0.0.1:18090/metrics >"$workdir/metrics2"
grep -q '^livegraph_epoch{graph="line"} 2$' "$workdir/metrics2" \
  || { echo "/metrics does not show epoch 2 for line" >&2; exit 1; }
batches=$(sed -n 's/^livegraph_batches_total{graph="line"} //p' "$workdir/metrics2")
[ "${batches:-0}" -eq 2 ] || { echo "livegraph_batches_total is '${batches:-missing}', want 2" >&2; exit 1; }
echo "mutation phase: epoch 0 -> 2, cached epoch-0 answer correctly bypassed"

echo "== 300 reweight batches in a row: every one acked, nothing to compact"
# Every ack is a complete epoch, so no backlog builds: no 429 at any point,
# and the weight planes recycle instead of being copied per batch.
for i in $(seq 1 300); do
  code=$(curl -s -o /dev/null -w '%{http_code}' \
    -d "{\"graph\":\"line\",\"ops\":[{\"op\":\"reweight\",\"src\":0,\"dst\":1,\"w\":$((1 + i % 50))}]}" \
    http://127.0.0.1:18090/update)
  [ "$code" = "200" ] || { echo "reweight batch $i answered $code, want 200" >&2; exit 1; }
done
# Leave 0->1 at its original weight for the phases below.
up=$(curl -s -d '{"graph":"line","ops":[{"op":"reweight","src":0,"dst":1,"w":5}]}' \
  http://127.0.0.1:18090/update)
echo "$up" | grep -q '"epoch":303' || { echo "after 301 more batches: want epoch 303, got: $up" >&2; exit 1; }
line_status=$(curl -s http://127.0.0.1:18090/statusz | grep -o '{"name":"line"[^}]*}')
echo "$line_status" | grep -q '"compactions":0' \
  || { echo "statusz reports compactions on line: $line_status" >&2; exit 1; }
recycled=$(curl -s http://127.0.0.1:18090/metrics | sed -n 's/^livegraph_planes_recycled_total{graph="line"} //p')
[ "${recycled:-0}" -ge 290 ] \
  || { echo "livegraph_planes_recycled_total is '${recycled:-missing}', want >= 290" >&2; exit 1; }
echo "reweight loop: 301 batches acked, compactions 0, planes recycled $recycled"

echo "== /debug/queries exports structured traces"
curl -s http://127.0.0.1:18090/debug/queries >"$workdir/queries"
grep -q '"enabled":true' "$workdir/queries" \
  || { echo "/debug/queries not enabled" >&2; exit 1; }
grep -q '"algo":"sssp"' "$workdir/queries" \
  || { echo "/debug/queries carries no sssp trace" >&2; exit 1; }
grep -q '"stages":' "$workdir/queries" \
  || { echo "/debug/queries traces carry no stage timings" >&2; exit 1; }

echo "== kill -9 mid-service, restart, recover acked state"
# A rejected batch must never reach the log: out-of-range src, 400.
bad=$(curl -s -o /dev/null -w '%{http_code}' \
  -d '{"graph":"line","ops":[{"op":"add","src":99,"dst":0,"w":1}]}' http://127.0.0.1:18090/update)
[ "$bad" = "400" ] || { echo "invalid update got $bad, want 400" >&2; exit 1; }
# Crash hard: no drain, no flush beyond what each ack already fsynced.
kill -9 "$pid"
wait "$pid" 2>/dev/null || true
boot_graphd
wait_ready
# Acked state is back: line recovered to epoch 303 with the w=3 reweight
# (dist 0->2 = 5 + 3 = 8); the rejected batch left no trace.
resp=$(curl -s -d "$lbody" http://127.0.0.1:18090/query)
echo "$resp" | grep -q '"2":8' || { echo "post-crash query: want dist 8, got: $resp" >&2; exit 1; }
echo "$resp" | grep -q '"epoch":303' || { echo "post-crash query not at epoch 303: $resp" >&2; exit 1; }
# /statusz reports the recovery and the per-graph durability section.
statusz=$(curl -s http://127.0.0.1:18090/statusz)
echo "$statusz" | grep -q '"recovery":{' || { echo "statusz missing recovery section" >&2; exit 1; }
echo "$statusz" | grep -q '"durability":{' || { echo "statusz missing durability section" >&2; exit 1; }
# /metrics carries the WAL + recovery series.
curl -s http://127.0.0.1:18090/metrics >"$workdir/metrics3"
grep -q '^recovered_epoch{graph="line"} 303$' "$workdir/metrics3" \
  || { echo "/metrics missing recovered_epoch 303 for line" >&2; exit 1; }
recovery_s=$(sed -n 's/^recovery_duration_seconds{graph="line"} //p' "$workdir/metrics3")
[ -n "$recovery_s" ] || { echo "/metrics missing recovery_duration_seconds for line" >&2; exit 1; }
echo "kill -9 drill: 303 batches replayed, recovery_duration_seconds=$recovery_s"
grep -q '^wal_appends_total{graph="line"} ' "$workdir/metrics3" \
  || { echo "/metrics missing wal_appends_total for line" >&2; exit 1; }
# Mutations keep working past the recovered epoch; crash and recover again
# to prove the WAL keeps extending across incarnations.
up=$(curl -s -d '{"graph":"line","ops":[{"op":"reweight","src":1,"dst":2,"w":7}]}' \
  http://127.0.0.1:18090/update)
echo "$up" | grep -q '"epoch":304' || { echo "post-recovery update did not reach epoch 304: $up" >&2; exit 1; }
kill -9 "$pid"
wait "$pid" 2>/dev/null || true
boot_graphd
wait_ready
resp=$(curl -s -d "$lbody" http://127.0.0.1:18090/query)
echo "$resp" | grep -q '"2":12' || { echo "second post-crash query: want dist 12, got: $resp" >&2; exit 1; }
echo "$resp" | grep -q '"epoch":304' || { echo "second post-crash query not at epoch 304: $resp" >&2; exit 1; }
echo "durability phase: two kill -9 crashes, both recovered to the acked epoch"

echo "== SIGTERM drains cleanly"
kill -TERM "$pid"
rc=0
wait "$pid" || rc=$?
pid=""
[ "$rc" -eq 0 ] || { echo "graphd exited $rc on SIGTERM" >&2; exit 1; }

echo "graphd smoke: OK"
