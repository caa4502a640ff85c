#!/usr/bin/env bash
# Tier-1 verification gate: release build, full test suite, and lints.
#
# This is the check CI runs and the one every PR must keep green. Strict
# validation (flow conservation, schedule constraints, ZeRO traffic
# identity) is exercised by the workspace integration tests, so a plain
# `cargo test` already runs the invariant layer.
set -euo pipefail
cd "$(dirname "$0")/.."

# stage NAME prints the "==> NAME" header on stdout and starts timing NAME;
# the stage before it ends there and its wall time goes to stderr, so the
# stdout of a run is the same whatever the machine.
now_ms() { echo $(( $(date +%s%N) / 1000000 )); }
secs() { printf '%d.%03d s' $(( $1 / 1000 )) $(( $1 % 1000 )); }
verify_start_ms="$(now_ms)"
stage_name=""
stage() {
  local t
  t="$(now_ms)"
  if [ -n "$stage_name" ]; then
    echo "    $(secs $(( t - stage_start_ms )))  $stage_name" >&2
  fi
  stage_name="$1"
  stage_start_ms="$t"
  echo "==> $1"
}

stage "cargo build --release"
cargo build --release

stage "cargo test -q --workspace"
# Every member crate's unit tests and doctests, not only the root
# package's integration tests.
cargo test -q --workspace

stage "mobius-perf tests (reference-checked smoke run of every workload)"
# The benchmark is a package of its own, so `cargo test --workspace` skips it.
# Its smoke run checks every op against mobius-perf/reference.txt,
# including train-ckpt's sink and checkpoint digests, so a checkpointed
# run whose bytes drift fails here and not only in the benchmark.
cargo test -q --offline --manifest-path mobius-perf/Cargo.toml

stage "cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

stage "mobius-lint (determinism, layering, units & obs-registry gate)"
# Hard gate: any unsuppressed D001-D007/D009 finding, a reason-less allow
# (D000), or a stale one (D008) fails the build. See DESIGN.md § Static
# analysis. The scan is timed via the WallSecs diagnostics escape: the
# binary prints `mobius-lint: wall-secs N` on stderr, which surfaces here
# without touching stdout (the deterministic finding stream).
cargo run --release -q -p mobius-lint -- --format human

stage "cargo fmt --all -- --check"
cargo fmt --all -- --check

stage "cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet

stage "example smoke runs (quickstart, topology_explorer)"
cargo run --release -q --example quickstart >/dev/null
cargo run --release -q --example topology_explorer >/dev/null

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
bench() { cargo run --release -q -p mobius-bench -- "$@"; }
run_cli() { cargo run --release -q -p mobius-repro --bin mobius-cli -- "$@"; }

# same_bytes NAME WHY CMD... runs CMD twice, each time with a fresh output
# file appended as its last argument, and fails with "FAIL: WHY" unless the
# two files are byte-identical. The first run's file stays at
# "$tmpdir/NAME.json" for the gates that follow.
same_bytes() {
  local name="$1" why="$2"
  shift 2
  "$@" "$tmpdir/$name.json" >/dev/null 2>&1
  "$@" "$tmpdir/$name-rerun.json" >/dev/null 2>&1
  cmp "$tmpdir/$name.json" "$tmpdir/$name-rerun.json" || {
    echo "FAIL: $why" >&2
    exit 1
  }
}

stage "fault-injection determinism gate (two seeded runs, byte-identical JSON)"
same_bytes resilience "identically seeded resilience runs diverged" \
  bench resilience --quick --seed 42 --json

stage "cluster-scaling determinism gate (two seeded runs, byte-identical JSON)"
same_bytes scaling "identically seeded scaling runs diverged" \
  bench scaling --quick --seed 42 --json

stage "recovery determinism gate (two seeded runs, byte-identical JSON)"
same_bytes recovery "identically seeded recovery runs diverged" \
  bench recovery --quick --seed 42 --json

stage "solver-perf determinism gate (two seeded runs, byte-identical JSON)"
same_bytes solver_perf "identically seeded solver-perf runs diverged" \
  bench solver_perf --deterministic --seed 42 --json

if [ "${UPDATE_BASELINE:-0}" = "1" ]; then
  stage "regenerating BENCH_solver.json (UPDATE_BASELINE=1)"
  bench solver_perf --quick --seed 42 --json BENCH_solver.json >/dev/null
fi

stage "serve determinism gate (two seeded load-generator runs, byte-identical JSON)"
same_bytes serve "identically seeded serve load-generator runs diverged" \
  bench serve --seed 42 --json

if [ "${UPDATE_BASELINE:-0}" = "1" ]; then
  stage "regenerating BENCH_serve.json (UPDATE_BASELINE=1)"
  cp "$tmpdir/serve.json" BENCH_serve.json
fi

stage "attribution determinism gate (two analyzed runs, byte-identical JSON)"
same_bytes attribution "identical analyzed runs diverged" \
  run_cli step --model gpt2 --topo 2+2 --system mobius --strict --analyze-out

if [ "${UPDATE_GOLDEN:-0}" = "1" ]; then
  stage "regenerating tests/golden/attribution_cli.json (UPDATE_GOLDEN=1)"
  cp "$tmpdir/attribution.json" tests/golden/attribution_cli.json
fi

stage "attribution golden gate (vs tests/golden/attribution_cli.json)"
# The committed attribution JSON pins the analyze engine's output bytes —
# critical path, blame, utilization, and what-if bounds. Regenerate with
# UPDATE_GOLDEN=1 after an intentional engine or executor change.
cmp "$tmpdir/attribution.json" tests/golden/attribution_cli.json || {
  echo "FAIL: attribution JSON drifted from the committed golden" >&2
  echo "      (rerun with UPDATE_GOLDEN=1 to regenerate after intentional changes)" >&2
  exit 1
}

# crash_resume_gate CMD SINKS TAG STEPS CRASH ARGS... runs `CMD ARGS` for
# STEPS steps with a checkpoint every 2, once uninterrupted and once crashed
# at step CRASH then resumed. The crashed run must exit 6, and for each sink
# in the space-separated SINKS (trace, metrics, analyze) the concatenated
# chunks of the two segments must equal the uninterrupted run's bytes
# exactly. The uninterrupted run's checkpoints stay in "$ck/TAG/ref".
ck="$tmpdir/ckpt"
mkdir -p "$ck"
# sinks DIR NAME SINKS prints the output flag of each sink of one run.
sinks() {
  local s
  for s in $3; do echo "--$s-out $1/$2-$s.json"; done
}
crash_resume_gate() {
  local cmd="$1" list="$2" tag="$3" steps="$4" crash="$5" rc=0 s
  shift 5
  local d="$ck/$tag"
  mkdir -p "$d"
  run_cli "$cmd" "$@" --steps "$steps" --checkpoint-every 2 \
    --checkpoint-out "$d/ref" $(sinks "$d" ref "$list") >/dev/null
  run_cli "$cmd" "$@" --faults "crash:$crash" --steps "$steps" --checkpoint-every 2 \
    --checkpoint-out "$d/crash" $(sinks "$d" c1 "$list") >/dev/null 2>&1 || rc=$?
  [ "$rc" -eq 6 ] || {
    echo "FAIL: $tag: injected crash must exit 6, got $rc" >&2
    exit 1
  }
  run_cli "$cmd" "$@" --faults "crash:$crash" --steps "$steps" --checkpoint-every 2 \
    --checkpoint-out "$d/crash" --resume "$d/crash" $(sinks "$d" c2 "$list") >/dev/null
  for s in $list; do
    cat "$d/c1-$s.json" "$d/c2-$s.json" > "$d/stitched-$s.json"
    cmp "$d/stitched-$s.json" "$d/ref-$s.json" || {
      echo "FAIL: $tag crash+resume $s chunks diverged from the uninterrupted run" >&2
      exit 1
    }
  done
}

stage "crash-resume gate (single server: stitched chunks byte-identical)"
# The checkpoint subsystem's headline contract: crash a run at step 5,
# resume it, and the concatenated trace/metrics/analysis chunks of the two
# segments equal the uninterrupted reference's bytes exactly.
crash_resume_gate step "trace metrics analyze" gpt2 6 5 --model gpt2 --topo 2+2 --system mobius

stage "paper-scale planning determinism gate (8B crash-resume, two 15B metrics runs)"
# On Table 3 presets the MIP stops at its fixed node budget, so a resumed
# invocation re-solves to the same plan and record, and two identical
# steps write the same metrics bytes.
crash_resume_gate step "trace metrics analyze" paper8b 4 3 --model 8b --topo 2+2 --system mobius
same_bytes paper15b "identical 15B 4+4 steps wrote different metrics" \
  run_cli step --model 15b --topo 4+4 --metrics-out

stage "crash-resume gate (cluster: stitched chunks byte-identical)"
# `cluster` writes no metrics (it rejects --metrics-out), so only its trace
# and analysis chunks are stitched.
crash_resume_gate cluster "trace analyze" cluster 4 3 \
  --model gpt2 --topo 2+2 --servers 2 --system mobius

newest_ckpt="$ck/gpt2/ref/$(ls "$ck/gpt2/ref" | sort | tail -1)"
if [ "${UPDATE_GOLDEN:-0}" = "1" ]; then
  stage "regenerating tests/golden/checkpoint_gpt2.mckpt (UPDATE_GOLDEN=1)"
  cp "$newest_ckpt" tests/golden/checkpoint_gpt2.mckpt
fi

stage "checkpoint golden gate (vs tests/golden/checkpoint_gpt2.mckpt)"
# The committed checkpoint pins the on-disk wire format bytes — magic,
# version, payload field order, float formatting, FNV checksum. Regenerate
# with UPDATE_GOLDEN=1 after an intentional format or executor change.
cmp "$newest_ckpt" tests/golden/checkpoint_gpt2.mckpt || {
  echo "FAIL: checkpoint bytes drifted from the committed golden" >&2
  echo "      (rerun with UPDATE_GOLDEN=1 to regenerate after intentional changes)" >&2
  exit 1
}

stage "solver-perf baseline gate (counter diff vs BENCH_solver.json)"
# Direction-aware: work counters (B&B nodes, partition rebuilds) may only
# shrink, reuse counters may only grow, checksums must match exactly. The
# delta table is printed either way; regressions fail the build. Regenerate
# the committed baseline with UPDATE_BASELINE=1 after intentional changes.
bench solver_perf --check BENCH_solver.json --seed 42 || {
  echo "FAIL: solver counters regressed vs BENCH_solver.json" >&2
  exit 1
}

stage "serve baseline gate (counter diff vs BENCH_serve.json)"
# Direction-aware: the plan-cache hit rate and warm-seed count may only
# grow, misses/evictions/latency percentiles may only shrink, and the
# response-stream checksum must match exactly. Regenerate the committed
# baseline with UPDATE_BASELINE=1 after intentional changes.
bench serve --check BENCH_serve.json --seed 42 || {
  echo "FAIL: serve counters regressed vs BENCH_serve.json" >&2
  exit 1
}

stage "verify OK"
echo "    total $(secs $(( $(now_ms) - verify_start_ms )))" >&2
