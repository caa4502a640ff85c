#!/usr/bin/env bash
# A/B comparison of two mobius-perf binaries on one workload.
#
#   scripts/ab.sh PARENT_BIN CHANGE_BIN WORKLOAD PAIRS [SEED]
#
# Runs PAIRS alternating pairs of end-to-end runs, the parent first in each
# pair, at SEED (default 42) and AB_SECONDS seconds per run (default 15, the
# benchmark's run length). Prints every run's end-to-end metrics and failed
# ops, then per metric the median of each side, the parent's quartiles, the
# change/parent ratio of the medians and how many pairs the change won
# (higher throughput, lower everything else), and the failed-op totals.
#
# The script builds nothing: build each side first, for example
#   CARGO_TARGET_DIR=/tmp/ab-change cargo build --release --offline \
#       --manifest-path mobius-perf/Cargo.toml
# and, since that build rewrites a stale mobius-perf/Cargo.lock, restore it
# with `git checkout mobius-perf/Cargo.lock` before committing.
set -euo pipefail

if [ $# -lt 4 ] || [ $# -gt 5 ]; then
  echo "usage: $0 PARENT_BIN CHANGE_BIN WORKLOAD PAIRS [SEED]" >&2
  exit 2
fi
parent="$1"
change="$2"
workload="$3"
pairs="$4"
seed="${5:-42}"
seconds="${AB_SECONDS:-15}"
metrics=(setup_s throughput_ops_s latency_p50_ms latency_p90_ms peak_rss_mb)

for bin in "$parent" "$change"; do
  if [ ! -x "$bin" ]; then
    echo "$0: $bin is not an executable" >&2
    exit 2
  fi
done
case "$pairs" in
  '' | *[!0-9]* | 0)
    echo "$0: PAIRS must be a positive integer, got '$pairs'" >&2
    exit 2
    ;;
esac

# run SIDE BIN: one end-to-end run; prints "SIDE failed=N metric=value ...".
# The values come from the JSON object on the last line of the run's stdout.
run() {
  local out json line m v
  # A run with failed ops exits 1 but still prints its result.
  out="$("$2" --workload "$workload" --seed "$seed" --seconds "$seconds")" || true
  json="$(printf '%s\n' "$out" | tail -n 1)"
  case "$json" in
    '{"correct":'*) ;;
    *)
      echo "$0: $1 run printed no result" >&2
      exit 1
      ;;
  esac
  line="$1 failed=$(printf '%s' "$json" | sed -n 's/.*"failed":\([0-9]*\).*/\1/p')"
  for m in "${metrics[@]}"; do
    v="$(printf '%s' "$json" | sed -n "s/.*\"$m\":{\"value\":\([^,}]*\).*/\1/p")"
    line="$line $m=${v:-nan}"
  done
  echo "$line"
}

results=""
for i in $(seq 1 "$pairs"); do
  for side in parent change; do
    if [ "$side" = parent ]; then bin="$parent"; else bin="$change"; fi
    line="$(run "$side" "$bin")"
    echo "pair $i $line"
    results="$results$line"$'\n'
  done
done

# Per metric: each side's median, the parent's quartiles, the change/parent
# ratio of the medians and the pairs the change won (ties win nothing).
printf '%s' "$results" | awk -v names="${metrics[*]}" '
  # quantile(side, m, q): linear interpolation between the sorted values.
  function quantile(side, m, q,   n, i, j, t, a, pos, lo) {
    n = count[side]
    for (i = 1; i <= n; i++) a[i] = val[side, m, i]
    for (i = 2; i <= n; i++)
      for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
    pos = 1 + (n - 1) * q
    lo = int(pos)
    return lo < n ? a[lo] + (pos - lo) * (a[lo + 1] - a[lo]) : a[n]
  }
  {
    side = $1
    k = ++count[side]
    for (f = 2; f <= NF; f++) {
      split($f, kv, "=")
      val[side, kv[1], k] = kv[2] + 0
      if (kv[1] == "failed") failed[side] += kv[2]
    }
  }
  END {
    nm = split(names, ms, " ")
    printf "%-18s %12s %12s %12s %12s %7s %5s\n", "metric", "parent q1", "parent med", \
      "parent q3", "change med", "ratio", "wins"
    for (i = 1; i <= nm; i++) {
      m = ms[i]
      higher = m == "throughput_ops_s"
      wins = 0
      for (k = 1; k <= count["change"]; k++) {
        p = val["parent", m, k]; c = val["change", m, k]
        if (higher ? c > p : c < p) wins++
      }
      p = quantile("parent", m, 0.5); c = quantile("change", m, 0.5)
      printf "%-18s %12.6g %12.6g %12.6g %12.6g %7.3f %2d/%-2d\n", m, \
        quantile("parent", m, 0.25), p, quantile("parent", m, 0.75), c, \
        p != 0 ? c / p : 0, wins, count["change"]
    }
    printf "failed ops: parent %d, change %d\n", failed["parent"], failed["change"]
  }'
