#!/usr/bin/env bash
# Serving smoke test: boots rfidserve on a random port, drives it with
# the rfidbench load generator (open-loop arrivals at a target QPS),
# asserts zero 5xx / transport / stream errors and a live /metrics
# exposition, then SIGTERM-drains the server and requires a clean exit.
# The load generator prints its service-level result (served QPS,
# p50/p95/p99 latency); its JSON report goes to a temp file unless OUT
# names a path to keep. This is a smoke test — benchmark/run.sh is what
# measures the service. CI runs this via `make serve-smoke`.
set -euo pipefail
cd "$(dirname "$0")/.."

QPS="${QPS:-20}"
DUR="${DUR:-3s}"
SCALE="${SCALE:-1}"

tmp=$(mktemp -d)
OUT="${OUT:-$tmp/loadgen.json}"
SERVER_PID=""
cleanup() {
  [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/rfidserve" ./cmd/rfidserve
go build -o "$tmp/rfidbench" ./cmd/rfidbench

"$tmp/rfidserve" -addr 127.0.0.1:0 -addr-file "$tmp/addr" \
  -scale "$SCALE" -max-concurrent 8 -query-parallelism 1 -drain-timeout 20s &
SERVER_PID=$!

for _ in $(seq 1 100); do
  [ -s "$tmp/addr" ] && break
  kill -0 "$SERVER_PID" 2>/dev/null || { echo "serve_smoke: server died during startup" >&2; exit 1; }
  sleep 0.1
done
[ -s "$tmp/addr" ] || { echo "serve_smoke: server never bound" >&2; exit 1; }
ADDR=$(cat "$tmp/addr")
echo "serve_smoke: server at $ADDR"

"$tmp/rfidbench" -exp loadgen -url "http://$ADDR" \
  -qps "$QPS" -dur "$DUR" -out "$OUT" -fail-on-5xx

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
