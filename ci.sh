#!/usr/bin/env bash
# CI entry point. Mirrors what a hosted workflow would run; keep this
# the single source of truth for "is the tree green" — the GitHub
# workflow (.github/workflows/ci.yml) is a thin caller.
#
# Usage: ./ci.sh [--quick]
#   --quick   PR-time mode: skip the full release workspace build, the
#             examples compile check and the perfbench stage (the test
#             build and the release bench bins still cover those crates).
set -euo pipefail
cd "$(dirname "$0")"

QUICK=0
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK=1 ;;
    *)
      echo "ci.sh: unknown argument '$arg' (usage: ./ci.sh [--quick])" >&2
      exit 2
      ;;
  esac
done

# Name the failing stage: a bare `set -e` exit says nothing about which
# cargo invocation died, which made red CI runs needlessly slow to read.
STAGE="startup"
stage() {
  STAGE="$1"
  echo "== $STAGE"
}
# (the kill reaps the serve-smoke daemon if a gate fails while it is
# up — otherwise the orphan outlives the script and holds CI open)
trap 'echo "ci.sh: FAILED in stage \"$STAGE\"" >&2; kill "${SERVE_PID:-}" 2>/dev/null || true' ERR

# Determinism: never let a CI run silently rewrite Cargo.lock (the
# registry is offline here, but --locked keeps the invariant explicit
# and matches what a hosted runner should do).
LOCKED=--locked

if [[ "$QUICK" -eq 0 ]]; then
  stage "tier-1 build: release"
  cargo build --release "$LOCKED"
fi

stage "workspace tests (strict superset of the tier-1 'cargo test -q')"
cargo test --workspace -q "$LOCKED"

stage "formatting"
cargo fmt --check

stage "docs (rustdoc, warnings are errors)"
# Part of the quick path: the Scenario API is documentation-driven
# (scenario files are written against the rustdoc schema), so broken
# intra-doc links or malformed docs fail CI, in every workspace crate.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q "$LOCKED"

stage "clippy (warnings are errors)"
cargo clippy --workspace --all-targets "$LOCKED" -- -D warnings

if [[ "$QUICK" -eq 0 ]]; then
  stage "examples compile"
  cargo build --examples "$LOCKED"
fi

stage "bench bins build: release"
cargo build --release -p bench --bins "$LOCKED"
cargo build --release -p serve --bins "$LOCKED"

stage "fuzz smoke"
# Differential six-governor fuzzing over the fixed-seed campaign (see
# docs/FUZZING.md): zero invariant violations, and the report must be
# byte-identical regardless of how the cases are sharded across
# workers — the determinism contract the whole subsystem rests on.
# (The committed regression corpus itself replays under `cargo test`
# via the fuzz_regressions test above.)
FUZZ_DIR=target/fuzz-smoke
rm -rf "$FUZZ_DIR"
mkdir -p "$FUZZ_DIR"
FUZZ_CASES=200
[[ "$QUICK" -eq 1 ]] && FUZZ_CASES=32
./target/release/scenario_fuzz --seed 0xC0FFEE --cases "$FUZZ_CASES" \
  --json "$FUZZ_DIR/campaign.json"
./target/release/scenario_fuzz --seed 0xC0FFEE --cases 32 --shards 1 \
  --json "$FUZZ_DIR/shard1.json"
./target/release/scenario_fuzz --seed 0xC0FFEE --cases 32 --shards 4 \
  --json "$FUZZ_DIR/shard4.json"
cmp "$FUZZ_DIR/shard1.json" "$FUZZ_DIR/shard4.json"

stage "scenario file check"
# Any cell is runnable from a checked-in scenario file without
# recompiling; the committed expected artifact pins the contract that
# a scenario file reproduces its grid cell bit for bit from JSON
# alone (the output lands outside $SMOKE_DIR so the aggregate glob
# below never picks it up).
SCEN_DIR=target/scenario-check
rm -rf "$SCEN_DIR"
mkdir -p "$SCEN_DIR"
# (--no-store: this stage gates the computation itself, so it must
# never be satisfied from a cache, and must not pollute the default
# store root.)
cargo run --release -q -p bench "$LOCKED" --bin fig2 -- \
  --scenario scenarios/fig2-uts-default.json --no-store \
  --json "$SCEN_DIR/fig2-uts-default.json" >/dev/null
cargo run --release -q -p bench "$LOCKED" --bin bench_diff -- \
  --exact scenarios/fig2-uts-default.expected.json "$SCEN_DIR/fig2-uts-default.json"
# The oracle governor from a file: the committed scenario carries the
# operating-point table inline, and its artifact must be bit-identical
# to the fig10 smoke grid's derived-table Oracle cell.
cargo run --release -q -p bench "$LOCKED" --bin fig10 -- \
  --scenario scenarios/fig10-heat-oracle.json --no-store \
  --json "$SCEN_DIR/fig10-heat-oracle.json" >/dev/null
cargo run --release -q -p bench "$LOCKED" --bin bench_diff -- \
  --exact scenarios/fig10-heat-oracle.expected.json "$SCEN_DIR/fig10-heat-oracle.json"

stage "bench smoke"
# Every figure/table bin runs its reduced grid and writes a typed JSON
# artifact plus a .timing sidecar (wall-clock + stepped/total quanta —
# the bins also print a before/after stepping-rate line: under the old
# pure quantum loop every virtual quantum was an engine step);
# grid_aggregate re-parses each artifact (schema gate) and emits the
# candidate trajectory point with the timing folded into `meta`.
SMOKE_DIR=target/bench-smoke
SMOKE_STORE=target/bench-smoke-store
rm -rf "$SMOKE_DIR" "$SMOKE_STORE"
mkdir -p "$SMOKE_DIR"
BINS="fig2 fig3 fig10 fig11 table1 table2 table3 ablation residency debug_report"
# The cold pass runs the built binaries directly (no cargo-run shim:
# the warm-cache ratio below compares this wall-clock against a cached
# re-run, so both passes must measure the bins, not cargo startup) and
# populates a fresh result store.
COLD_START=$(date +%s%N)
for bin in $BINS; do
  stage "bench smoke: $bin (cold)"
  "./target/release/$bin" \
    --smoke --store "$SMOKE_STORE" --json "$SMOKE_DIR/$bin.json" >/dev/null
done
COLD_NS=$(($(date +%s%N) - COLD_START))
stage "bench smoke: grid shard invariance"
# The grid counterpart of the fuzz stage's shard cmp: one grid on one
# thread and on four must write identical bytes. fig10's smoke grid
# covers single-node, 2-node replicated, 4-node BSP, mixed-fleet,
# Oracle and PidUncore cells. (Written outside $SMOKE_DIR, so the
# aggregate glob below never picks the copies up.)
SHARD_DIR=target/grid-shards
rm -rf "$SHARD_DIR"
mkdir -p "$SHARD_DIR"
for shards in 1 4; do
  ./target/release/fig10 --smoke --no-store --shards "$shards" \
    --json "$SHARD_DIR/shard$shards.json" >/dev/null
done
cmp "$SHARD_DIR/shard1.json" "$SHARD_DIR/shard4.json"
stage "bench smoke: validate + aggregate"
# (the *.json glob expands before the aggregate file exists, and the
# .timing sidecars end in .timing, so exactly the ten bin artifacts match)
#
# The fast-forward floors keep the analytic advances engaged — a
# regression to per-quantum stepping leaves every artifact byte
# unchanged, so only these counters can catch it. fig3 is all pinned
# frequencies (its busy steady state fast-forwards almost entirely:
# thousands-fold). ablation's floor is deliberately below the PR's
# 10x target: three of its cells run the per-quantum PID uncore
# governor, which by the controller contract can never grant busy
# capacity (no closed-form fixed point), so the grid-level ratio is
# structurally bounded near 2.5x at smoke scale. residency carries the
# 256-node fleet cell, whose barrier/exchange-dominated timelines each
# node's idle stretch must keep fast-forwarding (Lockstep passed into
# the cluster's idle loop would step them all).
cargo run --release -q -p bench "$LOCKED" --bin grid_aggregate -- \
  --out "$SMOKE_DIR/BENCH_smoke.json" \
  --require-fast-forward fig3=8 --require-fast-forward ablation=2 \
  --require-fast-forward residency=5 \
  "$SMOKE_DIR"/*.json

stage "bench smoke: trajectory diff (informational)"
# Tolerance-band view of how far this tree moved the committed
# trajectory point — never fails CI; the exact gate below decides.
cargo run --release -q -p bench "$LOCKED" --bin bench_diff -- \
  BENCH_smoke.json "$SMOKE_DIR/BENCH_smoke.json" || true

stage "bench smoke: trajectory gate"
# The committed BENCH_smoke.json is the perf-trajectory data point. Its
# `grids` metrics are deterministic virtual quantities, so any drift
# means the change moved a number — commit the regenerated file
# alongside the change that moved it (that is how the trajectory
# accrues points). The run-dependent `meta.timing` section is excluded
# from the gate, which is what lets the committed point carry
# wall-clock metadata without going stale every run.
GATE_RC=0
cargo run --release -q -p bench "$LOCKED" --bin bench_diff -- \
  --exact BENCH_smoke.json "$SMOKE_DIR/BENCH_smoke.json" || GATE_RC=$?
if [[ "$GATE_RC" -eq 1 ]]; then
  cp "$SMOKE_DIR/BENCH_smoke.json" BENCH_smoke.json
  echo "ci.sh: BENCH_smoke.json drifted from the committed trajectory point;" >&2
  echo "       the regenerated file has been copied over it — commit it with" >&2
  echo "       the change that moved it." >&2
  false
elif [[ "$GATE_RC" -ne 0 ]]; then
  # Exit 2 = unreadable/wrong-schema baseline, not drift: keep the
  # committed file as evidence and surface bench_diff's own error.
  echo "ci.sh: bench_diff could not compare the trajectory points (rc=$GATE_RC)" >&2
  false
fi

stage "bench smoke: warm cache"
# The whole suite again against the store the cold pass just
# populated. Three gates: every grid 100% hits (a single miss means a
# cell's identity or the code fingerprint is unstable between
# identical invocations), byte-identical artifacts (a hit must
# reproduce the miss path exactly), and >=10x grid wall-clock (the
# point of the store; a broken load path that silently recomputes
# passes the first two gates but not this one). The ratio is taken
# over the per-grid wall-clock the aggregates record in meta.timing —
# at smoke scale the end-to-end suite time is dominated by ten
# process startups in both passes, so it stays informational.
WARM_DIR=target/bench-warm
rm -rf "$WARM_DIR"
mkdir -p "$WARM_DIR"
WARM_START=$(date +%s%N)
for bin in $BINS; do
  "./target/release/$bin" \
    --smoke --store "$SMOKE_STORE" --json "$WARM_DIR/$bin.json" >/dev/null
done
WARM_NS=$(($(date +%s%N) - WARM_START))
for bin in $BINS; do
  ./target/release/bench_diff --exact "$SMOKE_DIR/$bin.json" "$WARM_DIR/$bin.json"
done
HIT_FLAGS=()
for bin in $BINS; do
  HIT_FLAGS+=(--require-hit-rate "$bin=1")
done
./target/release/grid_aggregate --out "$WARM_DIR/BENCH_smoke.json" \
  "${HIT_FLAGS[@]}" "$WARM_DIR"/*.json
sum_wall_ms() { awk '/"wall_ms"/ {gsub(/,/, ""); s += $2} END {print s}' "$1"; }
COLD_MS=$(sum_wall_ms "$SMOKE_DIR/BENCH_smoke.json")
WARM_MS=$(sum_wall_ms "$WARM_DIR/BENCH_smoke.json")
echo "warm cache: grids cold ${COLD_MS} ms, warm ${WARM_MS} ms;" \
  "suite end-to-end cold $((COLD_NS / 1000000)) ms, warm $((WARM_NS / 1000000)) ms"
if ! awk -v c="$COLD_MS" -v w="$WARM_MS" 'BEGIN { exit !(w > 0 && c >= 10 * w) }'; then
  echo "ci.sh: warm grids ran less than 10x faster than cold (${COLD_MS} ms vs ${WARM_MS} ms)" >&2
  false
fi

stage "serve smoke"
# The daemon against the store the smoke passes just warmed: every
# checked-in scenario file must be served entirely from the store
# (100% hits — the daemon never touches the simulator), each artifact
# byte-identical to the committed expected artifact (the same bytes
# the batch `--scenario --json` path writes), and a graceful
# `shutdown` must drain the daemon to a 0 exit. This is the serving
# half of the cache contract the warm-cache stage gates for the bins.
SERVE_DIR=target/serve-smoke
rm -rf "$SERVE_DIR"
mkdir -p "$SERVE_DIR"
# Pre-warm through the *batch* path: not every scenario cell is in the
# grid-warmed store (fig10-heat-oracle carries its operating-point
# table inline, so its identity differs from the fig10 grid's
# derive-form Oracle cell — identical artifact bytes, distinct store
# key). One `--scenario --store` run per file commits whatever the
# grids did not, and turns the all-hits gate below into the sharing
# contract itself: the daemon must hit entries committed by the grid
# pass (fig2) and by the batch scenario path (fig10) alike.
for scen in scenarios/*.json; do
  [[ "$scen" == *.expected.json ]] && continue
  # regression-* files are the fuzz corpus (tests/fuzz_regressions.rs),
  # not figure scenarios: no bin prefix, no expected artifact, and
  # synthetic workloads are store-refused by design.
  [[ "$scen" == scenarios/regression-* ]] && continue
  name=$(basename "$scen" .json)
  "./target/release/${name%%-*}" --scenario "$scen" --store "$SMOKE_STORE" \
    --json "$SERVE_DIR/warm-$name.json" >/dev/null
done
PORT_FILE="$SERVE_DIR/addr"
./target/release/cuttlefish-serve serve \
  --addr 127.0.0.1:0 --store "$SMOKE_STORE" --port-file "$PORT_FILE" \
  > "$SERVE_DIR/daemon.log" 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do
  [[ -f "$PORT_FILE" ]] && break
  sleep 0.05
done
if [[ ! -f "$PORT_FILE" ]]; then
  echo "ci.sh: daemon never wrote its port file; log:" >&2
  cat "$SERVE_DIR/daemon.log" >&2
  false
fi
SERVE_ADDR=$(cat "$PORT_FILE")
for scen in scenarios/*.json; do
  [[ "$scen" == *.expected.json ]] && continue
  [[ "$scen" == scenarios/regression-* ]] && continue
  name=$(basename "$scen" .json)
  stage "serve smoke: $name"
  ./target/release/cuttlefish-serve submit "$scen" \
    --addr "$SERVE_ADDR" --wait --json "$SERVE_DIR/$name.json"
  cmp "scenarios/$name.expected.json" "$SERVE_DIR/$name.json"
done
stage "serve smoke: all hits + graceful shutdown"
./target/release/cuttlefish-serve stats --addr "$SERVE_ADDR" --require-all-hits
./target/release/cuttlefish-serve shutdown --addr "$SERVE_ADDR"
wait "$SERVE_PID"
SERVE_PID=

stage "smoke store: verify + stats"
# Audit every entry the smoke passes committed: the cold grids, the
# --scenario pre-warm and the daemon. `verify` exits 1 on any entry
# that fails to decode, sits under the wrong filename or fails its
# result digest.
./target/release/store verify --store "$SMOKE_STORE"
./target/release/store stats --store "$SMOKE_STORE"

if [[ "$QUICK" -eq 0 ]]; then
  stage "full-scale oracle gate"
  # Paper §5's central claim at CUTTLEFISH_SCALE=1.0: the online search
  # must land within a small energy gap of the static oracle. A few
  # seconds in release mode and deterministic, so a red gap fails CI.
  cargo test --release -q -p bench "$LOCKED" --test oracle_gate -- --ignored

  stage "perfbench: unit tests"
  # The benchmark of record (BENCHMARK.json) and the workspace's one
  # timing instrument: a workspace of its own, built under target/ like
  # the rest. No --locked: perfbench/Cargo.lock is generated, not
  # committed.
  PERFBENCH=(--release -q --offline --manifest-path perfbench/Cargo.toml
    --target-dir target/perfbench)
  cargo test "${PERFBENCH[@]}"
  # One short untraced run per workload: every op must match its golden
  # digest. perfbench exits 0 even when ops fail, so the gate reads the
  # result line (the last line of stdout). Then one traced paper-eval
  # run: its traced passes re-drive every cell through perfbench's span
  # decorators, and a cell whose simulated bits differ from the
  # untraced pass counts as failed.
  for run in "paper-eval 0" "fleet 0" "fuzz 0" "warm-serve 0" "paper-eval 1"; do
    read -r workload trace <<<"$run"
    stage "perfbench: $workload --trace $trace"
    RESULT=$(cargo run "${PERFBENCH[@]}" -- \
      --workload "$workload" --seconds 1 --trace "$trace" | tail -n 1)
    echo "$RESULT"
    if ! grep -q '"correct":true' <<<"$RESULT" ||
      ! grep -Eq '"failed":0[,}]' <<<"$RESULT"; then
      echo "ci.sh: perfbench $workload --trace $trace failed its output checks" >&2
      false
    fi
  done
fi

echo "CI green."
