#!/bin/sh
# Smoke test for the balarchd daemon: build it, start it, and run the SDK
# smoke checker (cmd/clientsmoke) against it — /healthz liveness, /readyz
# readiness, the paper's §1 analyze example, the sweep memo, the typed
# error envelope, the X-Request-ID and W3C trace-id echoes, the trace=1
# Server-Timing profile, a mixed /v1/batch and a sweep job against a
# throwaway store directory — then shut the daemon down cleanly. The
# checks run through the public client package, so this also smoke-tests
# the SDK itself. Runs in CI after the unit suite; also runnable locally:
# ./ci/smoke.sh
set -eu

PORT="${SMOKE_PORT:-18080}"
BASE="http://127.0.0.1:$PORT"
BIN="$(mktemp -d)/balarchd"

echo "smoke: building balarchd"
go build -o "$BIN" ./cmd/balarchd

"$BIN" -addr "127.0.0.1:$PORT" -parallel 2 -store-dir "$(mktemp -d)" &
PID=$!
trap 'kill "$PID" 2>/dev/null || true' EXIT

echo "smoke: running clientsmoke against $BASE"
go run ./cmd/clientsmoke -url "$BASE" -wait 5s

echo "smoke: graceful shutdown"
kill -TERM "$PID"
i=0
while kill -0 "$PID" 2>/dev/null; do
  i=$((i + 1))
  if [ "$i" -ge 100 ]; then
    echo "smoke: daemon did not exit on SIGTERM" >&2
    exit 1
  fi
  sleep 0.1
done
trap - EXIT

echo "smoke: OK"
