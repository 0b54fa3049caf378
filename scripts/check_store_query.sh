#!/bin/sh
# Store-query contract: every result the background scheduler lands in
# the -store must come back from GET /v1/results/{key} byte-identical
# to a fresh POST /v1/measure response for the same spec — across any
# number of restarts, the store is a cache of the measurement contract,
# never a fork of it.
#
# Boots netemud with a result store and a one-shot sweep job, waits for
# the scheduler's sweep-done event on /v1/sweeps/stream (the hub
# replays its event log to late subscribers, so short polling reads are
# race-free), then for every stored record diffs the stored body
# against a POST of the record's canonical spec to a second netemud
# without a store — a node that has never seen the spec, so its answer
# is a fresh simulation, not the memo or the store echoing the record.
# Finally asserts the /metrics conservation law covers the new read
# endpoints and that the store section accounts for exactly the
# scheduled points.
#
# Usage:  scripts/check_store_query.sh
#
# Environment:
#   PORT  localhost port for the store node (default 18098); the fresh
#         node listens on PORT+1
set -eu
cd "$(dirname "$0")/.."
port="${PORT:-18098}"
base="http://127.0.0.1:$port"
fresh="http://127.0.0.1:$((port + 1))"

bin="$(mktemp -d)"
pids=""
trap 'for p in $pids; do kill "$p" 2>/dev/null || true; done; rm -rf "$bin"' EXIT
go build -o "$bin/netemud" ./cmd/netemud

cat > "$bin/sweeps.json" <<'EOF'
[{"name":"ci-oneshot","sweep":{
  "base":{"kind":"lambda","machine":{"family":"Mesh","dim":2,"size":16},"seed":3},
  "points":[{},
            {"machine":{"family":"Mesh","dim":2,"size":36}},
            {"machine":{"family":"Mesh","dim":2,"size":64}}]}}]
EOF

"$bin/netemud" -addr "127.0.0.1:$port" -concurrency 2 \
    -store "$bin/store" -sweeps "$bin/sweeps.json" &
pids="$pids $!"
"$bin/netemud" -addr "127.0.0.1:$((port + 1))" -concurrency 2 &
pids="$pids $!"
for url in "$base" "$fresh"; do
    for _ in $(seq 1 50); do
        curl -sf "$url/healthz" >/dev/null 2>&1 && break
        sleep 0.2
    done
done

done=0
for _ in $(seq 1 60); do
    if curl -sN --max-time 2 "$base/v1/sweeps/stream" 2>/dev/null | grep -q "event: sweep-done"; then
        done=1
        break
    fi
    sleep 0.5
done
[ "$done" = 1 ] || { echo "scheduler never published sweep-done" >&2; exit 1; }
echo "scheduled sweep completed (observed over /v1/sweeps/stream)"

# Every stored record, as "key spec" lines: the canonical string minus
# its runspec/v1/ prefix is compact JSON (no spaces), and POSTing it
# back is exactly the request the store key was derived from.
curl -sf "$base/v1/results?kind=lambda" > "$bin/results.json"
python3 - "$bin/results.json" > "$bin/records.txt" <<'EOF'
import json, sys
page = json.load(open(sys.argv[1]))
if page["count"] != 3:
    raise SystemExit("expected 3 stored results, got %d: %s" % (page["count"], page))
for m in page["results"]:
    prefix = "runspec/v1/"
    if not m["canonical"].startswith(prefix):
        raise SystemExit("unexpected canonical form: %s" % m["canonical"])
    print(m["key"], m["canonical"][len(prefix):])
EOF

n=0
while read -r key spec; do
    curl -sf "$base/v1/results/$key" > "$bin/stored.json"
    curl -sf -X POST -d "$spec" "$fresh/v1/measure" > "$bin/fresh.json"
    diff "$bin/stored.json" "$bin/fresh.json"
    n=$((n + 1))
done < "$bin/records.txt"
curl -sf "$fresh/metrics" > "$bin/fresh-metrics.json"
python3 - "$bin/fresh-metrics.json" "$n" <<'EOF'
import json, sys
m, n = json.load(open(sys.argv[1])), int(sys.argv[2])
if m["executions"] != n or m["endpoints"]["/v1/measure"]["by_status"] != {"200": n}:
    raise SystemExit("fresh node: %d simulations, /v1/measure statuses %s for %d records; its answers were not fresh"
                     % (m["executions"], m["endpoints"]["/v1/measure"]["by_status"], n))
EOF
echo "store-query parity ok: $n stored results byte-identical to a fresh node's /v1/measure"

curl -sf "$base/v1/meta" >/dev/null
curl -sf "$base/metrics" > "$bin/metrics.json"
python3 - "$bin/metrics.json" <<'EOF'
import json, sys
m = json.load(open(sys.argv[1]))
eps = m["endpoints"]
for want in ("/v1/results", "/v1/meta"):
    if want not in eps:
        raise SystemExit("endpoint %s missing from /metrics: %s" % (want, sorted(eps)))
total = sum(ep["requests"] for ep in eps.values())
statuses = sum(n for ep in eps.values() for n in ep["by_status"].values())
if not (total == statuses == m["requests"]):
    raise SystemExit("conservation broken: requests=%d endpoints=%d statuses=%d"
                     % (m["requests"], total, statuses))
st = m["store"]
if st["records"] != 3 or st["append_errors"] != 0:
    raise SystemExit("store section off: %s" % st)
if m["scheduled_points"] != 3 or m["scheduled_errors"] != 0:
    raise SystemExit("scheduler counters off: points=%d errors=%d"
                     % (m["scheduled_points"], m["scheduled_errors"]))
EOF
echo "metrics conservation holds across the read endpoints (store records=3, scheduled points=3)"
