#!/bin/sh
# Sweep-parity contract: a POST /v1/sweep response must be byte-for-byte
# the concatenation of the individual POST /v1/measure responses for its
# merged points. Boots two netemuds, runs each sweep on the first and
# replays every point individually on the second, and diffs. The second
# node has never seen the specs, so its answers are fresh simulations over
# its own artifact cache, not the first node's memo echoing the sweep; the
# script fails if that node reports any memo hit. The sweeps cover three
# rates and a second machine size over one mesh family, a beta sweep, an
# open-loop sweep that interleaves faulted and fault-free points on a Mesh
# and a DeBruijn machine (faulted runs share the cached engine with
# fault-free ones), and a fault-curve sweep.
#
# Usage:  scripts/check_sweep_parity.sh
#
# Environment:
#   PORT  localhost port for the sweep node (default 18099); the replay
#         node listens on PORT+1
set -eu
cd "$(dirname "$0")/.."
port="${PORT:-18099}"
base="http://127.0.0.1:$port"
fresh="http://127.0.0.1:$((port + 1))"

bin="$(mktemp -d)"
pids=""
trap 'for p in $pids; do kill "$p" 2>/dev/null || true; done; rm -rf "$bin"' EXIT
go build -o "$bin/netemud" ./cmd/netemud

"$bin/netemud" -addr "127.0.0.1:$port" -concurrency 2 &
pids="$pids $!"
"$bin/netemud" -addr "127.0.0.1:$((port + 1))" -concurrency 2 &
pids="$pids $!"
for url in "$base" "$fresh"; do
    for _ in $(seq 1 50); do
        curl -sf "$url/healthz" >/dev/null 2>&1 && break
        sleep 0.2
    done
done

check_sweep() {
    name="$1"; sweep="$2"; shift 2
    curl -sf -X POST -d "$sweep" "$base/v1/sweep" > "$bin/sweep.$name"
    : > "$bin/individual.$name"
    for spec in "$@"; do
        curl -sf -X POST -d "$spec" "$fresh/v1/measure" >> "$bin/individual.$name"
    done
    diff "$bin/sweep.$name" "$bin/individual.$name"
    echo "sweep parity ok: $name ($# points)"
}

check_sweep open-loop \
    '{"base":{"kind":"open-loop","machine":{"family":"Mesh","dim":2,"size":64},"rate":2,"ticks":80,"seed":5},"points":[{},{"rate":4},{"rate":6},{"machine":{"family":"Mesh","dim":2,"size":144}}]}' \
    '{"kind":"open-loop","machine":{"family":"Mesh","dim":2,"size":64},"rate":2,"ticks":80,"seed":5}' \
    '{"kind":"open-loop","machine":{"family":"Mesh","dim":2,"size":64},"rate":4,"ticks":80,"seed":5}' \
    '{"kind":"open-loop","machine":{"family":"Mesh","dim":2,"size":64},"rate":6,"ticks":80,"seed":5}' \
    '{"kind":"open-loop","machine":{"family":"Mesh","dim":2,"size":144},"rate":2,"ticks":80,"seed":5}'

check_sweep beta \
    '{"base":{"kind":"beta","machine":{"family":"DeBruijn","size":16},"load_factors":[2,4],"trials":1,"seed":3},"points":[{},{"seed":4},{"strategy":"valiant"}]}' \
    '{"kind":"beta","machine":{"family":"DeBruijn","size":16},"load_factors":[2,4],"trials":1,"seed":3}' \
    '{"kind":"beta","machine":{"family":"DeBruijn","size":16},"load_factors":[2,4],"trials":1,"seed":4}' \
    '{"kind":"beta","machine":{"family":"DeBruijn","size":16},"load_factors":[2,4],"trials":1,"strategy":"valiant","seed":3}'

F='edges:0.1@t20,nodes:2@t40,heal@t60'
check_sweep faulted-open-loop \
    '{"base":{"kind":"open-loop","machine":{"family":"Mesh","dim":2,"size":64},"rate":3,"ticks":80,"seed":7},"points":[{},{"faults":"'"$F"'"},{"seed":8},{"faults":"nodes:3@t30","seed":8},{"machine":{"family":"DeBruijn","size":64}},{"machine":{"family":"DeBruijn","size":64},"faults":"'"$F"'"},{"machine":{"family":"DeBruijn","size":64},"seed":8}]}' \
    '{"kind":"open-loop","machine":{"family":"Mesh","dim":2,"size":64},"rate":3,"ticks":80,"seed":7}' \
    '{"kind":"open-loop","machine":{"family":"Mesh","dim":2,"size":64},"rate":3,"ticks":80,"faults":"'"$F"'","seed":7}' \
    '{"kind":"open-loop","machine":{"family":"Mesh","dim":2,"size":64},"rate":3,"ticks":80,"seed":8}' \
    '{"kind":"open-loop","machine":{"family":"Mesh","dim":2,"size":64},"rate":3,"ticks":80,"faults":"nodes:3@t30","seed":8}' \
    '{"kind":"open-loop","machine":{"family":"DeBruijn","size":64},"rate":3,"ticks":80,"seed":7}' \
    '{"kind":"open-loop","machine":{"family":"DeBruijn","size":64},"rate":3,"ticks":80,"faults":"'"$F"'","seed":7}' \
    '{"kind":"open-loop","machine":{"family":"DeBruijn","size":64},"rate":3,"ticks":80,"seed":8}'

check_sweep fault-curve \
    '{"base":{"kind":"fault-curve","machine":{"family":"Mesh","dim":2,"size":36},"fault_fracs":[0,0.2],"ticks":60,"seed":3},"points":[{},{"seed":4},{"machine":{"family":"DeBruijn","size":32}}]}' \
    '{"kind":"fault-curve","machine":{"family":"Mesh","dim":2,"size":36},"fault_fracs":[0,0.2],"ticks":60,"seed":3}' \
    '{"kind":"fault-curve","machine":{"family":"Mesh","dim":2,"size":36},"fault_fracs":[0,0.2],"ticks":60,"seed":4}' \
    '{"kind":"fault-curve","machine":{"family":"DeBruijn","size":32},"fault_fracs":[0,0.2],"ticks":60,"seed":3}'

curl -sf "$fresh/metrics" > "$bin/fresh-metrics.json"
python3 - "$bin/fresh-metrics.json" <<'EOF'
import json, sys
m = json.load(open(sys.argv[1]))
if m["memo_hits"] != 0:
    raise SystemExit("replay node answered %d points from its memo; the replays were not fresh" % m["memo_hits"])
EOF
echo "replay node served every point fresh (memo_hits=0)"
