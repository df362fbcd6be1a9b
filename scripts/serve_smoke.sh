#!/usr/bin/env bash
# Serving smoke test: boots rfidserve on a random port, runs two queries
# over /v1/query — each response must end in a "status":"ok" footer whose
# row_count is the number of rows its chunks carried — scrapes /metrics,
# then SIGTERM-drains the server and requires a clean exit. Liveness
# only: served throughput and latency are measured by benchmark/run.sh
# (`make perf`). CI runs this via `make serve-smoke`.
set -euo pipefail
cd "$(dirname "$0")/.."

SCALE="${SCALE:-1}"

tmp=$(mktemp -d)
SERVER_PID=""
cleanup() {
  [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/rfidserve" ./cmd/rfidserve

"$tmp/rfidserve" -addr 127.0.0.1:0 -addr-file "$tmp/addr" \
  -scale "$SCALE" -query-parallelism 1 -drain-timeout 20s &
SERVER_PID=$!

for _ in $(seq 1 100); do
  [ -s "$tmp/addr" ] && break
  kill -0 "$SERVER_PID" 2>/dev/null || { echo "serve_smoke: server died during startup" >&2; exit 1; }
  sleep 0.1
done
[ -s "$tmp/addr" ] || { echo "serve_smoke: server never bound" >&2; exit 1; }
ADDR=$(cat "$tmp/addr")
echo "serve_smoke: server at $ADDR"

# query <request body>: one /v1/query call. The footer must be ok and its
# row_count must equal the rows received: each chunk line is
# {"rows":[[...],...]}, so its rows are its '[' count minus one (the
# smoke queries' values hold no brackets).
query() {
  local out="$tmp/response" footer want chunks brackets
  curl -sf "http://$ADDR/v1/query" -d "$1" >"$out"
  footer=$(tail -n 1 "$out")
  case "$footer" in
    *'"status":"ok"'*) ;;
    *) echo "serve_smoke: $1: footer is not ok: $footer" >&2; exit 1 ;;
  esac
  want=$(grep -o '"row_count":[0-9]*' <<<"$footer" | grep -o '[0-9]*$')
  chunks=$(grep -c '^{"rows":' "$out" || true)
  brackets=$(grep '^{"rows":' "$out" | grep -o '\[' | wc -l)
  if [ "$((brackets - chunks))" != "$want" ]; then
    echo "serve_smoke: $1: received $((brackets - chunks)) rows, footer says $want" >&2
    exit 1
  fi
  echo "serve_smoke: $want rows, footer ok: $1"
}

query '{"sql":"SELECT biz_loc, count(*) AS n FROM caser GROUP BY biz_loc ORDER BY n DESC"}'
query '{"sql":"SELECT epc, rtime, reader FROM caser ORDER BY rtime, epc LIMIT 1000","strategy":"dirty"}'

curl -sf "http://$ADDR/metrics" >"$tmp/metrics"
grep -q '^repro_queries_total{outcome="ok"} 2$' "$tmp/metrics" || {
  echo "serve_smoke: /metrics does not count the two ok queries" >&2
  exit 1
}
echo "serve_smoke: /metrics ok"

# Graceful drain: SIGTERM must flip readiness, finish in-flight queries,
# and exit 0 within the drain window.
kill -TERM "$SERVER_PID"
for _ in $(seq 1 100); do
  kill -0 "$SERVER_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$SERVER_PID" 2>/dev/null; then
  echo "serve_smoke: server did not drain within 10s" >&2
  exit 1
fi
wait "$SERVER_PID"
SERVER_PID=""
echo "serve_smoke: ok"
