#!/usr/bin/env bash
# Fleet-trace smoke: the span stream of a real multi-process scenariod
# run must be a faithful second account of the run. Drive a quick
# matrix slice through a server + two worker processes, then fold the
# run ledger's fleet-trace/v1 span records with `cliquetrace fleet`,
# which exits nonzero unless the spans reconcile exactly against the
# canonical report (per-cell outcomes, attempt counts, lease grants —
# DESIGN.md §15) — and prints the throughput accounting and critical
# path it derives on the way. The live server's /metrics must agree
# with that offline account: its lease_granted count must equal the
# attempts cliquetrace fleet reads from the ledger. The in-process twin
# is internal/scenariod/fleet_test.go; CI runs both.
#
#   scripts/fleet_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
pids=()
cleanup() {
  ((${#pids[@]})) && kill "${pids[@]}" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/scenariod" ./cmd/scenariod
go build -o "$tmp/scenariorun" ./cmd/scenariorun
go build -o "$tmp/cliquetrace" ./cmd/cliquetrace

"$tmp/scenariod" serve -addr 127.0.0.1:0 -ledger-dir "$tmp/led" >"$tmp/serve.log" 2>&1 &
pids+=($!)
url=""
for _ in $(seq 1 100); do
  url="$(grep -o 'http://[0-9.:]*' "$tmp/serve.log" | head -1 || true)"
  [[ -n "$url" ]] && break
  sleep 0.1
done
[[ -n "$url" ]] || { echo "server never came up"; cat "$tmp/serve.log"; exit 1; }

for w in 1 2; do
  "$tmp/scenariod" worker -server "$url" -name "smoke-w$w" -poll 10ms \
    >"$tmp/worker-$w.log" 2>&1 &
  pids+=($!)
done

# ~8 small cells across two workers; -submit waits for the report.
"$tmp/scenariorun" -quick -seed 5 -families gnp,components \
  -protocols triangle,connectivity -engines par4 -sizes 16,24 \
  -submit "$url" -out "$tmp/report.json" >/dev/null

granted="$(curl -fsS "$url/metrics" |
  awk '$1 == "scenariod_lease_events_total{event=\"lease_granted\"}" { print $2 }')"

ledger="$(ls "$tmp"/led/run-*.jsonl)"
echo "== cliquetrace fleet $ledger"
"$tmp/cliquetrace" fleet "$ledger" | tee "$tmp/fleet.txt"
attempts="$(sed -n 's/^run: .* attempts=\([0-9]*\) .*/\1/p' "$tmp/fleet.txt")"
if [[ -z "$granted" || "$granted" != "$attempts" ]]; then
  echo "live /metrics lease_granted=${granted:-missing}, ledger attempts=${attempts:-missing}"
  exit 1
fi
echo "fleet smoke ok: spans reconciled against the canonical report; /metrics lease_granted=$granted matches"
