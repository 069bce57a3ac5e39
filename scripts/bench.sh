#!/usr/bin/env bash
# Record the performance trajectory: run the engine, circuit-evaluation,
# GF(2) matmul, semiring-kernel and experiment benchmarks with allocation
# stats and emit BENCH_<date>.json next to the repo root, then fold in
# the full E15 naive-vs-cube MM record at n=64 ("e15_semiring_mm"), the
# full E16 sketch-vs-broadcast connectivity record at n=256
# ("e16_sketch_connectivity"), the E17 fault-recovery records at n=64
# ("e17_fault_recovery") and
# the quick scenario matrix summary ("scenario_matrix"; full cell
# records land in SCENARIOS_<date>.json; schema in DESIGN.md §8), the
# multicore scaling curve ("engine_scaling": 1/2/4/8-worker ns and
# speedups for the engine and scenario-shard paths; see DESIGN.md §13)
# the tracing tax ("trace_overhead": none/recorder/ndjson legs of
# BenchmarkTraceOverhead with overhead ratios; see DESIGN.md §14) and
# the service throughput sweep ("fleet_throughput": 1/2/4/8-worker
# end-to-end cells/sec through scenariod; see DESIGN.md §15).
# Compare files across PRs to see the trend (ns/op and allocs/op per
# benchmark, cells and divergences per matrix, the MM cost crossover).
#
#   scripts/bench.sh             # default: 3x per benchmark
#   BENCHTIME=10x scripts/bench.sh
#   BENCHFILTER='BenchmarkRun' scripts/bench.sh   # engine only
#   BENCHFILTER='CircuitEval|Mul' scripts/bench.sh  # eval engines only
#   SCENARIOS=0 scripts/bench.sh # skip the scenario matrix
#   E15=0 scripts/bench.sh       # skip the full E15 MM ablation
#   E16=0 scripts/bench.sh       # skip the full E16 sketch ablation
#   E17=0 scripts/bench.sh       # skip the E17 fault-recovery records
#   SCENARIOD=0 scripts/bench.sh # skip the scenariod cache ablation
set -euo pipefail

cd "$(dirname "$0")/.."
date="$(date +%Y%m%d)"
out="BENCH_${date}.json"
benchtime="${BENCHTIME:-3x}"
filter="${BENCHFILTER:-.}"

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

go test -run xxx -bench "$filter" -benchtime "$benchtime" -benchmem \
  ./internal/core/ ./internal/bits/ ./internal/f2/ ./internal/semiring/ ./internal/sketch/ ./internal/scenario/ ./internal/obs/ ./internal/routing/ ./internal/scenariod/ . 2>&1 | tee "$tmp"

# Convert `go test -bench` lines into a JSON array of
# {name, iterations, ns_per_op, bytes_per_op, allocs_per_op}.
awk -v date="$date" '
BEGIN { print "[" }
/^Benchmark/ {
  name = $1; iters = $2; ns = $3; bytes = ""; allocs = ""
  for (i = 3; i <= NF; i++) {
    if ($(i+1) == "ns/op")     ns = $i
    if ($(i+1) == "B/op")      bytes = $i
    if ($(i+1) == "allocs/op") allocs = $i
  }
  if (n++) printf ",\n"
  printf "  {\"date\": \"%s\", \"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s",
         date, name, iters, ns
  if (bytes != "")  printf ", \"bytes_per_op\": %s", bytes
  if (allocs != "") printf ", \"allocs_per_op\": %s", allocs
  printf "}"
}
END { print "\n]" }
' "$tmp" > "$out"

# Fold the multicore scaling curve ("engine_scaling"): the engine worker
# sweep (gossip + broadcast fan-out at N=256, BenchmarkEngineScaling) and
# the scenario shard sweep (BenchmarkShardScaling), with speedups
# relative to one worker. Parsed from the main bench output above, so it
# records the same run, not a second one. Real scaling needs
# GOMAXPROCS >= 4 (the CI multicore job); a 1-CPU run still records the
# curve, and the gomaxprocs field tells readers how to interpret it.
fold_scaling() {
  local scaling
  scaling="$(awk '
    /^Benchmark(EngineScaling|ShardScaling)\// {
      n = split($1, a, "/")
      shape = (a[1] ~ /ShardScaling/) ? "scenario" : a[2]
      w = a[n]; sub(/^(w|shards)=/, "", w); sub(/-.*$/, "", w)
      ns[shape "_w" w] = $3; seen[shape] = 1; ws[w] = 1
    }
    END {
      out = ""
      for (shape in seen) {
        for (w in ws)
          if ((shape "_w" w) in ns)
            out = out sprintf("\"%s_w%s_ns\": %s, ", shape, w, ns[shape "_w" w])
        if ((shape "_w1") in ns)
          for (w in ws)
            if (w != 1 && (shape "_w" w) in ns)
              out = out sprintf("\"%s_speedup_w%s\": %.2f, ",
                                shape, w, ns[shape "_w1"] / ns[shape "_w" w])
      }
      sub(/, $/, "", out)
      print out
    }' "$tmp")"
  [[ -z "$scaling" ]] && return 0
  append_record "{\"date\": \"${date}\", \"name\": \"engine_scaling\", \"gomaxprocs\": $(nproc 2>/dev/null || echo 1), ${scaling}}"
  echo "folded engine scaling curve into $out"
}

# append_record adds one JSON object to the top-level array in $out,
# inserting the separating comma only when a record precedes it — every
# record carries a "name" key, so its presence is the emptiness test
# (the bare array prints as "[", a blank line, "]", which makes
# line-based probing fragile). sed '$d' strips the closing bracket
# (a negative head -c would be GNU-only).
append_record() {
  local record="$1" sep=","
  grep -q '"name"' "$out" || sep=""
  sed '$d' "$out" > "$out.tmp" && mv "$out.tmp" "$out"
  printf '%s\n  %s\n]\n' "$sep" "$record" >> "$out"
}

# Fold the tracing tax ("trace_overhead"): the three legs of
# BenchmarkTraceOverhead (a gossip of Proc bodies at N=256 on the
# sequential engine, 12 rounds of fan-out 4 where engine_scaling's runs
# 20 rounds of fan-out 8, so the "none" leg is a series of its own and
# the ≤1%-overhead-when-disabled tripwire for the nil-Sink engine), with
# recorder/ndjson wall and alloc overheads relative to none. Parsed
# from the main bench output above, so it records the same run.
fold_trace() {
  local trace
  trace="$(awk '
    /^BenchmarkTraceOverhead\// {
      split($1, a, "/")
      leg = a[2]; sub(/-.*$/, "", leg)
      ns[leg] = $3
      for (i = 3; i <= NF; i++)
        if ($(i+1) == "allocs/op") allocs[leg] = $i
    }
    END {
      out = ""
      for (leg in ns) {
        out = out sprintf("\"%s_ns\": %s, ", leg, ns[leg])
        if (leg in allocs) out = out sprintf("\"%s_allocs\": %s, ", leg, allocs[leg])
      }
      if ("none" in ns)
        for (leg in ns)
          if (leg != "none")
            out = out sprintf("\"%s_overhead\": %.3f, ", leg, ns[leg] / ns["none"])
      sub(/, $/, "", out)
      print out
    }' "$tmp")"
  [[ -z "$trace" ]] && return 0
  append_record "{\"date\": \"${date}\", \"name\": \"trace_overhead\", ${trace}}"
  echo "folded trace overhead legs into $out"
}

# Fold the service throughput sweep ("fleet_throughput"): the 1/2/4/8
# resident-worker legs of BenchmarkFleetThroughput (submit -> lease ->
# execute -> stream over an 8-cell quick slice), with end-to-end cells
# per second and speedups relative to one worker. Parsed from the main
# bench output above. As with engine_scaling, real scaling needs
# GOMAXPROCS >= the worker count; the gomaxprocs field says which.
fold_fleet() {
  local fleet
  fleet="$(awk '
    /^BenchmarkFleetThroughput\// {
      split($1, a, "/")
      w = a[2]; sub(/^w=/, "", w); sub(/-.*$/, "", w)
      ns[w] = $3; ws[w] = 1
      for (i = 3; i <= NF; i++)
        if ($(i+1) == "cells/s") cps[w] = $i
    }
    END {
      out = ""
      for (w in ws) {
        out = out sprintf("\"w%s_ns\": %s, ", w, ns[w])
        if (w in cps) out = out sprintf("\"w%s_cells_per_sec\": %s, ", w, cps[w])
      }
      if ("1" in cps)
        for (w in ws)
          if (w != 1 && (w in cps))
            out = out sprintf("\"speedup_w%s\": %.2f, ", w, cps[w] / cps["1"])
      sub(/, $/, "", out)
      print out
    }' "$tmp")"
  [[ -z "$fleet" ]] && return 0
  append_record "{\"date\": \"${date}\", \"name\": \"fleet_throughput\", \"cells\": 8, \"gomaxprocs\": $(nproc 2>/dev/null || echo 1), ${fleet}}"
  echo "folded fleet throughput sweep into $out"
}

fold_scaling
fold_trace
fold_fleet

# Run the full E15 semiring MM ablation (the quick sweep stops at n=16;
# the acceptance point is n=64) and fold its n=64 record line into the
# bench file: naive vs cube rounds/bits and the rounds·bits cost ratio.
if [[ "${E15:-1}" == "1" ]]; then
  e15="$(go run ./cmd/cliquebench -exp E15 | grep '^E15RECORD n=64 ' | tail -1)"
  if [[ -n "$e15" ]]; then
    fields="$(sed 's/^E15RECORD //' <<< "$e15" \
      | tr ' ' '\n' | awk -F= '{printf "\"%s\": %s, ", $1, $2}' | sed 's/, $//')"
    append_record "{\"date\": \"${date}\", \"name\": \"e15_semiring_mm\", ${fields}}"
    echo "folded E15 n=64 record into $out"
  fi
fi

# Run the full E16 sketch-connectivity ablation (the quick sweep stops
# at n=64; the acceptance point is n=256) and fold its n=256 record into
# the bench file: sketch vs broadcast-Borůvka rounds/bits/phases and the
# rounds·bits cost ratio.
if [[ "${E16:-1}" == "1" ]]; then
  e16="$(go run ./cmd/cliquebench -exp E16 | grep '^E16RECORD n=256 ' | tail -1)"
  if [[ -n "$e16" ]]; then
    fields="$(sed 's/^E16RECORD //' <<< "$e16" \
      | tr ' ' '\n' | awk -F= '{printf "\"%s\": %s, ", $1, $2}' | sed 's/, $//')"
    append_record "{\"date\": \"${date}\", \"name\": \"e16_sketch_connectivity\", ${fields}}"
    echo "folded E16 n=256 record into $out"
  fi
fi

# Run the full E17 fault-injection experiment and fold its n=64
# recovery records into the bench file: one record per drop rate, with
# the framed-stack phases/rounds/bits against the clean run and the
# bit overhead where recovery engages (outcome=ok) — so hardening cost
# is tracked over time alongside raw performance. String-valued fields
# (model, outcome) are quoted; numbers pass through bare.
if [[ "${E17:-1}" == "1" ]]; then
  while IFS= read -r line; do
    [[ -z "$line" ]] && continue
    fields="$(sed 's/^E17RECORD //' <<< "$line" \
      | tr ' ' '\n' | awk -F= '{
          if ($2 ~ /^-?[0-9]+(\.[0-9]+)?$/) printf "\"%s\": %s, ", $1, $2
          else printf "\"%s\": \"%s\", ", $1, $2
        }' | sed 's/, $//')"
    append_record "{\"date\": \"${date}\", \"name\": \"e17_fault_recovery\", ${fields}}"
  done <<< "$(go run ./cmd/cliquebench -exp E17 | grep '^E17RECORD n=64 ')"
  echo "folded E17 n=64 records into $out"
fi

# Run the quick scenario matrix and append its summary counts to the
# bench record, so one file tracks both performance and differential
# coverage over time.
if [[ "${SCENARIOS:-1}" == "1" ]]; then
  scen="SCENARIOS_${date}.json"
  go run ./cmd/scenariorun -quick -out "$scen"
  summary="$(awk '/"summary": \{/,/\}/' "$scen" \
    | grep -E '"(cells|divergences|total_rounds|total_bits)":' \
    | tr -d ' ' | tr -d ',' | paste -sd, -)"
  append_record "{\"date\": \"${date}\", \"name\": \"scenario_matrix\", ${summary}, \"detail\": \"${scen}\"}"
fi

# scenariod oracle-cache ablation ("scenariod_cache"): run an
# oracle-heavy matrix slice twice through a scenariod service sharing
# one content-addressed cache directory. The cold run computes and
# stores every oracle leg and generated graph; the warm run serves them
# hash-verified from disk, so its wall time records what the cache buys
# (and reports_identical pins that it buys nothing but time — the two
# canonical reports must be byte-identical).
if [[ "${SCENARIOD:-1}" == "1" ]]; then
  sd_tmp="$(mktemp -d)"
  go build -o "$sd_tmp/scenariod" ./cmd/scenariod
  go build -o "$sd_tmp/scenariorun" ./cmd/scenariorun
  "$sd_tmp/scenariod" serve -addr 127.0.0.1:0 -ledger-dir "$sd_tmp/led" \
    >"$sd_tmp/serve.log" 2>&1 &
  sd_pid=$!
  sd_url=""
  for _ in $(seq 1 100); do
    sd_url="$(grep -o 'http://[0-9.:]*' "$sd_tmp/serve.log" | head -1 || true)"
    [[ -n "$sd_url" ]] && break
    sleep 0.1
  done
  "$sd_tmp/scenariod" worker -server "$sd_url" -cache "$sd_tmp/cache" -poll 10ms \
    >"$sd_tmp/worker.log" 2>&1 &
  sd_wpid=$!
  sd_spec=(-quick -seed 1 -families gnp,components -protocols apsp -engines par4 -sizes 48,64)
  t0="$(date +%s%N)"
  "$sd_tmp/scenariorun" "${sd_spec[@]}" -submit "$sd_url" -out "$sd_tmp/cold.json" >/dev/null
  t1="$(date +%s%N)"
  "$sd_tmp/scenariorun" "${sd_spec[@]}" -submit "$sd_url" -out "$sd_tmp/warm.json" >/dev/null
  t2="$(date +%s%N)"
  kill "$sd_pid" "$sd_wpid" 2>/dev/null || true
  cold_ms=$(( (t1 - t0) / 1000000 ))
  warm_ms=$(( (t2 - t1) / 1000000 ))
  speedup="$(awk -v c="$cold_ms" -v w="$warm_ms" 'BEGIN { printf "%.2f", (w > 0) ? c / w : 0 }')"
  identical=false
  cmp -s "$sd_tmp/cold.json" "$sd_tmp/warm.json" && identical=true
  append_record "{\"date\": \"${date}\", \"name\": \"scenariod_cache\", \"cells\": 4, \"cold_ms\": ${cold_ms}, \"warm_ms\": ${warm_ms}, \"speedup\": ${speedup}, \"reports_identical\": ${identical}}"
  echo "folded scenariod cache ablation into $out (cold=${cold_ms}ms warm=${warm_ms}ms speedup=${speedup}x identical=${identical})"
  rm -rf "$sd_tmp"
fi

echo "wrote $out"
