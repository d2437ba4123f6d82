#!/usr/bin/env bash
# Hermetic CI gate: every step runs offline against the in-repo substrate
# (no crates.io access — the workspace has zero external dependencies).
#
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> rustdoc (deny warnings)"
# A deleted or private item left behind in an intra-doc link is a broken
# link in the published docs; clippy does not check them.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps -q

echo "==> test oracle stays dev-only (no normal dependency edge reaches tts-dcsim-oracle)"
# The frozen heap engine is a dev-dependency of the tests and benches
# that compare against it. The inverted normal-edge tree of a crate that
# nothing ships with is the crate alone; any further line names a
# production crate that links the oracle.
oracle_tree="$(cargo tree --offline --workspace -e normal -i tts-dcsim-oracle)"
if [ "$(printf '%s\n' "$oracle_tree" | head -n 1 | cut -d' ' -f1)" != tts-dcsim-oracle ] \
  || [ "$(printf '%s\n' "$oracle_tree" | wc -l)" -ne 1 ]; then
  echo "oracle guard: a normal dependency edge reaches tts-dcsim-oracle:"
  printf '%s\n' "$oracle_tree"
  exit 1
fi

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace

echo "==> cargo test -q --offline"
cargo test -q --offline --workspace

echo "==> bench targets compile"
cargo bench --offline --no-run -q

echo "==> perfbench builds and self-tests"
# perfbench is a workspace of its own, so nothing above compiles it; an
# API change in the crates it uses would otherwise surface only when the
# benchmark runs.
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

echo "==> examples (build and run all seven, each must exit 0)"
# clippy --all-targets and cargo test compile examples/ but never run
# them; a panicking example would otherwise ship green.
cargo build --release --offline --examples -q
for src in examples/*.rs; do
  ex="$(basename "$src" .rs)"
  "target/release/examples/$ex" > /dev/null || { echo "example $ex failed"; exit 1; }
done

echo "==> smoke benches (thermal_solver, fig7_blockage, fig12_throughput)"
# Ten samples apiece (the harness's fixed count): enough to catch a
# hot-path regression or panic, cheap enough to run on every push. The
# thermal_solver report is kept and gated against BENCH_baseline.json
# below.
TMPDIR_CI="$(mktemp -d)"
trap 'rm -rf "$TMPDIR_CI"' EXIT
TTS_BENCH_OUT="$TMPDIR_CI/thermal_solver.json" \
  cargo bench --offline -q -p tts-bench --bench thermal_solver
cargo bench --offline -q -p tts-bench --bench fig7_blockage
cargo bench --offline -q -p tts-bench --bench fig12_throughput

echo "==> metrics sidecar smoke (fig7, fig11 and fig12, byte-identical across thread counts)"
# The observability layer must not perturb determinism: the same run at
# 1 and 4 workers has to produce byte-identical sidecars, and the
# sidecar must parse through the in-repo JSON layer (repro also
# round-trips it before writing; a parse failure aborts the run).
REPRO=target/release/repro
REPRO_ABS="$(pwd)/$REPRO"

# bench_gate <report> <baseline> <pct> <label>: fails if any benchmark in
# both files regressed more than <pct> %. Exit 3 means a report/baseline
# was absent or malformed: the gate degrades to a warning instead of
# masquerading as a perf regression or a crash.
bench_gate() {
  local rc=0
  "$REPRO" bench-check "$1" "$2" "$3" || rc=$?
  if [ "$rc" -eq 3 ]; then
    echo "ci.sh: WARNING: $4 skipped (no usable baseline; exit 3)"
  elif [ "$rc" -ne 0 ]; then
    exit "$rc"
  fi
}

TTS_THREADS=1 "$REPRO" fig7 --metrics "$TMPDIR_CI/fig7.t1.json" > /dev/null
TTS_THREADS=4 "$REPRO" fig7 --metrics "$TMPDIR_CI/fig7.t4.json" > /dev/null
cmp "$TMPDIR_CI/fig7.t1.json" "$TMPDIR_CI/fig7.t4.json"
# fig11's and fig12's sidecars replay their melting-point sweep's winner
# from serial code; fig12's also holds the shared no-wax arm to the same
# bytes at any worker count.
TTS_THREADS=1 "$REPRO" fig11 --metrics "$TMPDIR_CI/fig11.t1.json" > /dev/null
TTS_THREADS=4 "$REPRO" fig11 --metrics "$TMPDIR_CI/fig11.t4.json" > /dev/null
cmp "$TMPDIR_CI/fig11.t1.json" "$TMPDIR_CI/fig11.t4.json"
TTS_THREADS=1 "$REPRO" fig12 --metrics "$TMPDIR_CI/fig12.t1.json" > /dev/null
TTS_THREADS=4 "$REPRO" fig12 --metrics "$TMPDIR_CI/fig12.t4.json" > /dev/null
cmp "$TMPDIR_CI/fig12.t1.json" "$TMPDIR_CI/fig12.t4.json"

echo "==> front door (unknown artifacts and flags exit 2)"
# repro parses its flags through the experiment schemas; bad input is a
# usage error, never a silently ignored selector or flag.
expect_usage_error() {
  local rc=0
  "$REPRO" "$@" > /dev/null 2>&1 || rc=$?
  [ "$rc" -eq 2 ] || { echo "front door: repro $* exited $rc, want 2"; exit 1; }
}
expect_usage_error nosuch
expect_usage_error fig7 --bogus 1

echo "==> golden record (repro all --write at 1 thread reproduces results/*.json and EXPERIMENTS.md)"
# The committed record is a golden file. A full regeneration must
# rewrite every results/*.json byte for byte, and EXPERIMENTS.md except
# its wall-clock timing line. Later steps compare 4-thread runs to it.
mkdir "$TMPDIR_CI/all"
(cd "$TMPDIR_CI/all" && TTS_THREADS=1 "$REPRO_ABS" all --write > /dev/null)
for f in "$TMPDIR_CI"/all/results/*.json; do
  cmp "results/$(basename "$f")" "$f"
done
for f in results/*.json; do
  [ -e "$TMPDIR_CI/all/$f" ] || { echo "golden record: repro all --write did not write $f"; exit 1; }
done
timing='^\*Total regeneration time: '
diff <(grep -v "$timing" EXPERIMENTS.md) <(grep -v "$timing" "$TMPDIR_CI/all/EXPERIMENTS.md")

echo "==> bench gate (disabled-metrics thermal_solver within 5% of baseline)"
# Metrics are off by default; the solver hot path must stay within the
# pre-observability envelope recorded in BENCH_baseline.json.
bench_gate "$TMPDIR_CI/thermal_solver.json" BENCH_baseline.json 5 "bench gate"

echo "==> ttsd smoke (serve fig7, byte-identical to repro, cold and cached, 1 and 4 threads)"
# The serving layer must answer exactly the bytes repro files as
# results/fig7.summary.json — whether computed or cached, at any thread
# count — then drain gracefully and flush its final metrics snapshot.
TTSD=target/release/ttsd
(cd "$TMPDIR_CI" && "$REPRO_ABS" fig7 --write > /dev/null)
for T in 1 4; do
  PORT_FILE="$TMPDIR_CI/ttsd.t$T.port"
  METRICS_FILE="$TMPDIR_CI/ttsd.t$T.metrics.json"
  TTS_THREADS=$T "$TTSD" --addr 127.0.0.1:0 --no-stdin-watch \
    --port-file "$PORT_FILE" --metrics-out "$METRICS_FILE" &
  TTSD_PID=$!
  for _ in $(seq 1 100); do [ -s "$PORT_FILE" ] && break; sleep 0.1; done
  [ -s "$PORT_FILE" ] || { echo "ttsd never wrote its port file"; exit 1; }
  ADDR="$(cat "$PORT_FILE")"
  "$TTSD" req "$ADDR" GET /healthz > /dev/null
  "$TTSD" req "$ADDR" POST /v1/experiments/fig7 --body '{}' > "$TMPDIR_CI/fig7.t$T.cold.body"
  "$TTSD" req "$ADDR" POST /v1/experiments/fig7 --body '{}' > "$TMPDIR_CI/fig7.t$T.cached.body"
  # The async job lifecycle over ONE keep-alive connection: submit
  # (fresh daemon, so the id is 1), then consume the chunked progress
  # stream until the job is terminal. The stored result must be the
  # same bytes as the synchronous answer (determinism: the thread pin
  # cannot change them).
  "$TTSD" req "$ADDR" \
    POST /v1/jobs --body '{"experiment": "fig7", "params": {"threads": 3}}' \
    GET /v1/jobs/1/events > /dev/null
  "$TTSD" req "$ADDR" GET /v1/jobs/1/result > "$TMPDIR_CI/fig7.t$T.job.body"
  "$TTSD" req "$ADDR" POST /admin/shutdown > /dev/null
  wait "$TTSD_PID"
  [ -s "$METRICS_FILE" ] || { echo "ttsd did not flush metrics on shutdown"; exit 1; }
  cmp "$TMPDIR_CI/results/fig7.summary.json" "$TMPDIR_CI/fig7.t$T.cold.body"
  cmp "$TMPDIR_CI/results/fig7.summary.json" "$TMPDIR_CI/fig7.t$T.cached.body"
  cmp "$TMPDIR_CI/results/fig7.summary.json" "$TMPDIR_CI/fig7.t$T.job.body"
done

echo "==> ttsd loadgen gate (keep-alive+pipelining vs serial close, zero errors, p99 bound)"
# The mixed-traffic load generator embeds a server and drives cached,
# cold, and async-job traffic. Its own exit code enforces the serving
# acceptance bars: zero transport/status errors, keep-alive throughput
# at least 5x the close-delimited serial baseline, cached p99 under
# 50 ms. The recorded per-request means are then gated against
# BENCH_ttsd.json (wide tolerance: loopback rps is noisy on a shared
# CI box; a transport regression — say, losing pipelining or reverting
# to per-request connections — overshoots 60% by multiples).
"$TTSD" loadgen --duration-ms 1500 --out "$TMPDIR_CI/ttsd_bench.json"
bench_gate "$TMPDIR_CI/ttsd_bench.json" BENCH_ttsd.json 60 "ttsd bench gate"

echo "==> chaos gate (8 seeded fault scenarios, zero violations, byte-identical at 1 and 4 threads and to the golden summary)"
# The fault-injection batch must come back green and its summary JSON
# must not depend on the worker count: a fixed base seed, run serially
# and with 4 workers, has to produce byte-identical bytes. The storm
# section only carries plan-determined fields, so the cmp is sound.
# The summary is also held to tests/golden/chaos_seeds8.summary.json, so
# a deterministic change to any phase (the LP controller of phase 5
# included) shows as a diff across commits, not only across threads.
TTS_THREADS=1 "$REPRO" chaos --seeds 8 --summary "$TMPDIR_CI/chaos.t1.json"
TTS_THREADS=4 "$REPRO" chaos --seeds 8 --summary "$TMPDIR_CI/chaos.t4.json"
cmp "$TMPDIR_CI/chaos.t1.json" "$TMPDIR_CI/chaos.t4.json"
cmp tests/golden/chaos_seeds8.summary.json "$TMPDIR_CI/chaos.t1.json"
# The batch must actually exercise the cooling-backend faults: at the
# default base seed the sampler draws each of the three backend kinds at
# least once across the 8 plans, and their invariant phases run with
# zero violations (already enforced by the exit code above).
for kind in EconomizerDamperStuck PumpDerate ReuseDropout; do
  n=$(grep -o "\"$kind\": *[0-9]*" "$TMPDIR_CI/chaos.t1.json" | head -n 1 | awk '{print $2}')
  [ -n "$n" ] || { echo "chaos gate: summary lacks fault count for $kind"; exit 1; }
  awk -v n="$n" 'BEGIN { exit !(n >= 1) }' || {
    echo "chaos gate: $kind never injected across the batch"; exit 1; }
done
echo "chaos gate: all three cooling-backend fault kinds injected"
# A sampled plan may never overlap two windows of one kind, so nothing
# above pins the order faults fold in. The hand-written overlap plan
# stacks two or three windows of every windowed kind; its report must
# stay the recorded bytes at 1 and 4 threads.
for T in 1 4; do
  TTS_THREADS=$T "$REPRO" chaos --plan tests/golden/chaos_overlap.plan.json \
    | grep -v '^chaos: ' > "$TMPDIR_CI/chaos_overlap.t$T.json"
  cmp tests/golden/chaos_overlap.report.json "$TMPDIR_CI/chaos_overlap.t$T.json"
done

echo "==> fleet gate (100k servers, 6 h horizon, byte-identical at 1, 2 and 4 threads and at 7 shards)"
# The epoch-sharded fleet engine must not let the worker count or the
# shard count leak into results: the same 100k-server run at 2 threads
# (this host's nproc, where the shards really split across workers), at
# 4 threads, and at 2 threads over 7 shards has to produce summary AND
# raw-metrics JSON byte-identical to the 1-thread run.
for run in "t1 1" "t2 2" "t4 4" "t2s7 2 --shards 7"; do
  set -- $run
  name=$1 T=$2
  shift 2
  (cd "$TMPDIR_CI" && TTS_THREADS=$T "$REPRO_ABS" fleet \
    --servers 100000 --horizon-h 6 "$@" --write > /dev/null)
  cp "$TMPDIR_CI/results/fleet.summary.json" "$TMPDIR_CI/fleet.$name.summary.json"
  cp "$TMPDIR_CI/results/fleet.json" "$TMPDIR_CI/fleet.$name.raw.json"
done
for name in t2 t4 t2s7; do
  cmp "$TMPDIR_CI/fleet.t1.summary.json" "$TMPDIR_CI/fleet.$name.summary.json"
  cmp "$TMPDIR_CI/fleet.t1.raw.json" "$TMPDIR_CI/fleet.$name.raw.json"
done

echo "==> fleet bench gate (server-step throughput within 20% of BENCH_fleet.json)"
# Same degradation contract as the thermal gate above: exit 3 (missing or
# malformed baseline) warns instead of failing. The tolerance is wide
# because the quantity being protected is architectural — the fleet
# engine clears the legacy engine by ~7,000x, so a 20% drift is noise
# while any real regression (say, falling back to per-job events)
# overshoots it by orders of magnitude.
TTS_BENCH_OUT="$TMPDIR_CI/fleet_engine.json" \
  cargo bench --offline -q -p tts-bench --bench fleet_engine
bench_gate "$TMPDIR_CI/fleet_engine.json" BENCH_fleet.json 20 "fleet bench gate"

echo "==> fig7/fig11/fig12/scenarios series (byte-identical to the committed results at 4 threads)"
# The golden tests compare fig11 and fig12 to a 1e-9 relative error; this
# step holds the melting-point sweeps behind them to the committed bytes
# at a second worker count (the golden record step runs one thread).
# fig7 loops over its classes around each class's blockage sweep, and
# the scenario matrix over its trace studies around their candidate
# sweeps, so a fanned-out map nests in neither: their results are held
# here too.
for exp in fig7 fig11 fig12 scenarios; do
  (cd "$TMPDIR_CI" && TTS_THREADS=4 "$REPRO_ABS" "$exp" --write > /dev/null)
done
for f in fig7.summary fig11.summary fig11a fig11b fig11c fig12.summary fig12a fig12b fig12c \
  scenarios.summary scenarios; do
  cmp "results/$f.json" "$TMPDIR_CI/results/$f.json"
done

echo "==> schedule gate (co-optimizer beats passive baseline, byte-identical at 4 threads to the golden record)"
# The receding-horizon PCM/job co-optimizer must strictly beat the
# passive run-on-arrival baseline on the default two-day diurnal trace,
# and — like every other result surface — its summary bytes must not
# depend on the worker count. The golden record step already holds the
# 1-thread run to the committed results: a solver change that moves one
# pivot or one rounding shows up there.
(cd "$TMPDIR_CI" && TTS_THREADS=4 "$REPRO_ABS" schedule --write > /dev/null)
cmp "$TMPDIR_CI/all/results/schedule.summary.json" "$TMPDIR_CI/results/schedule.summary.json"
cmp "$TMPDIR_CI/all/results/schedule.json" "$TMPDIR_CI/results/schedule.json"
opt_cost=$(grep -o '"cost_optimized_usd": *[0-9.eE+-]*' "$TMPDIR_CI/results/schedule.summary.json" | awk '{print $2}')
pas_cost=$(grep -o '"cost_passive_usd": *[0-9.eE+-]*' "$TMPDIR_CI/results/schedule.summary.json" | awk '{print $2}')
[ -n "$opt_cost" ] && [ -n "$pas_cost" ] || { echo "schedule summary lacks cost fields"; exit 1; }
awk -v o="$opt_cost" -v p="$pas_cost" 'BEGIN { exit !(o < p) }' || {
  echo "schedule gate: optimizer did not beat passive ($opt_cost vs $pas_cost)"; exit 1; }
echo "schedule gate: optimized \$$opt_cost < passive \$$pas_cost"

echo "==> schedule bench gate (plan latency within 25% of BENCH_schedule.json)"
# Plan latency is the controller's cost of doing business: one 108-slot
# LP solve per re-plan, over dense tableau values indexed by row-pattern
# and column-set bitsets, with every pass driven by the entering column's
# rows or the pivot row's columns. The 25% tolerance rides out shared-box
# noise; a real regression (pivot-rule breakage, fill-in blow-up, a
# return to dense O(m) or O(m·n) passes) is multiples, not percent.
TTS_BENCH_OUT="$TMPDIR_CI/schedule_plan.json" \
  cargo bench --offline -q -p tts-bench --bench schedule_plan
bench_gate "$TMPDIR_CI/schedule_plan.json" BENCH_schedule.json 25 "schedule bench gate"

echo "==> design gate (surrogate search matches the grid optimum in <= 1/10 evals, byte-identical at 1/4/8 threads)"
# The tts-design search must reproduce the paper's melting-point optimum
# exactly (same lattice point, bit-identical objective) while paying at
# most a tenth of the exhaustive grid's simulator evaluations, the joint
# class x melt x mass x tariff x ambient search must end with a finite,
# strictly improved best-objective trace, and — like every result
# surface — the summary bytes must not depend on the worker count. The
# grid it is checked against is fig11's own sweep, so its `grid_melt_c`
# must be the 1U wax that results/fig11a.json ships.
for T in 1 4 8; do
  (cd "$TMPDIR_CI" && TTS_THREADS=$T "$REPRO_ABS" design --write > /dev/null)
  cp "$TMPDIR_CI/results/design.summary.json" "$TMPDIR_CI/design.t$T.summary.json"
done
cmp "$TMPDIR_CI/design.t1.summary.json" "$TMPDIR_CI/design.t4.summary.json"
cmp "$TMPDIR_CI/design.t1.summary.json" "$TMPDIR_CI/design.t8.summary.json"
dkey() { grep -o "\"$1\": *[0-9.eE+-]*" "$TMPDIR_CI/design.t1.summary.json" | awk '{print $2}'; }
d_match=$(dkey design_matches_grid)
d_evals=$(dkey design_evals)
g_evals=$(dkey grid_evals)
j_finite=$(dkey joint_trace_finite)
j_delta=$(dkey joint_trace_delta_usd)
g_melt=$(dkey grid_melt_c)
f_melt=$(grep -o '"melting_point": *[0-9.eE+-]*' results/fig11a.json | head -1 | awk '{print $2}')
[ -n "$d_match" ] && [ -n "$d_evals" ] && [ -n "$g_evals" ] \
  && [ -n "$j_finite" ] && [ -n "$j_delta" ] && [ -n "$g_melt" ] && [ -n "$f_melt" ] \
  || { echo "design summary lacks gate fields"; exit 1; }
awk -v g="$g_melt" -v f="$f_melt" 'BEGIN { exit !(g == f) }' || {
  echo "design gate: grid_melt_c $g_melt is not fig11a's melting point $f_melt"; exit 1; }
awk -v m="$d_match" 'BEGIN { exit !(m == 1) }' || {
  echo "design gate: search did not match the grid optimum"; exit 1; }
awk -v d="$d_evals" -v g="$g_evals" 'BEGIN { exit !(d * 10 <= g) }' || {
  echo "design gate: eval budget blown ($d_evals vs grid $g_evals)"; exit 1; }
awk -v f="$j_finite" -v d="$j_delta" 'BEGIN { exit !(f == 1 && d > 0) }' || {
  echo "design gate: joint trace not finite+improving (finite=$j_finite delta=$j_delta)"; exit 1; }
echo "design gate: grid optimum matched with $d_evals/$g_evals evals; joint search improved \$$j_delta"

echo "==> design bench gate (search latency within 25% of BENCH_design.json)"
# Two quantities: pure optimizer overhead per evaluation (analytic
# objective) and the end-to-end paper-space search against the real
# dcsim oracle. 25% rides out shared-box noise; a real regression
# (surrogate refit blow-up, memo miss storm) lands in multiples.
TTS_BENCH_OUT="$TMPDIR_CI/design_search.json" \
  cargo bench --offline -q -p tts-bench --bench design_search
bench_gate "$TMPDIR_CI/design_search.json" BENCH_design.json 25 "design bench gate"

echo "==> scenarios gate (backend x site x trace matrix: byte-identical at 1 and 4 threads, reuse win, served bytes)"
# The smoke matrix (1 site x 2 backends x 2 traces = 4 cells) must not
# let the worker count leak into its summary bytes.
for T in 1 4; do
  (cd "$TMPDIR_CI" && TTS_THREADS=$T "$REPRO_ABS" scenarios \
    --sites 1 --backends 2 --traces 2 --write > /dev/null)
  cp "$TMPDIR_CI/results/scenarios.summary.json" "$TMPDIR_CI/scenarios.t$T.summary.json"
done
cmp "$TMPDIR_CI/scenarios.t1.summary.json" "$TMPDIR_CI/scenarios.t4.summary.json"
# With the hot-water backend in the catalogue, selling the rejected heat
# must strictly lower the bill on at least one matrix cell.
(cd "$TMPDIR_CI" && "$REPRO_ABS" scenarios --sites 1 --backends 3 --traces 1 --write > /dev/null)
wins=$(grep -o '"hotwater_reuse_win_cells": *[0-9.eE+-]*' \
  "$TMPDIR_CI/results/scenarios.summary.json" | awk '{print $2}')
[ -n "$wins" ] || { echo "scenarios summary lacks hotwater_reuse_win_cells"; exit 1; }
awk -v w="$wins" 'BEGIN { exit !(w >= 1) }' || {
  echo "scenarios gate: hot-water reuse never beat the plain bill ($wins win cells)"; exit 1; }
echo "scenarios gate: hot-water reuse wins on $wins cell(s)"
# The serving layer must answer the same bytes repro filed — cold
# (computed on demand) and cached — for the same parameter set, and a
# repro flag must mean what the same key means in a request body.
(cd "$TMPDIR_CI" && "$REPRO_ABS" dcsim --seed 5 --write > /dev/null)
PORT_FILE="$TMPDIR_CI/ttsd.scen.port"
"$TTSD" --addr 127.0.0.1:0 --no-stdin-watch --port-file "$PORT_FILE" &
TTSD_PID=$!
for _ in $(seq 1 100); do [ -s "$PORT_FILE" ] && break; sleep 0.1; done
[ -s "$PORT_FILE" ] || { echo "ttsd never wrote its port file"; exit 1; }
ADDR="$(cat "$PORT_FILE")"
"$TTSD" req "$ADDR" POST /v1/experiments/scenarios \
  --body '{"sites": 1, "backends": 3, "traces": 1}' > "$TMPDIR_CI/scenarios.cold.body"
"$TTSD" req "$ADDR" POST /v1/experiments/scenarios \
  --body '{"sites": 1, "backends": 3, "traces": 1}' > "$TMPDIR_CI/scenarios.cached.body"
"$TTSD" req "$ADDR" POST /v1/experiments/dcsim --body '{"seed": 5}' > "$TMPDIR_CI/dcsim.seed5.body"
"$TTSD" req "$ADDR" POST /admin/shutdown > /dev/null
wait "$TTSD_PID"
cmp "$TMPDIR_CI/results/scenarios.summary.json" "$TMPDIR_CI/scenarios.cold.body"
cmp "$TMPDIR_CI/results/scenarios.summary.json" "$TMPDIR_CI/scenarios.cached.body"
cmp "$TMPDIR_CI/results/dcsim.summary.json" "$TMPDIR_CI/dcsim.seed5.body"

echo "ci.sh: all gates passed"
