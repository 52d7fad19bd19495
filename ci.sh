#!/usr/bin/env bash
# CI gate: build, test, format, lint. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --workspace
# The benchmark package (crates/bench/benchmark) has its own workspace,
# so `cargo test --workspace` never reaches it. Its tests are the only
# check of the runner names it calls and of its outside replay (replayed
# outcome == stored record). Building it under target/ makes its serve
# tests use the fresh target/release/vulfi, not a stale .bench_build one.
CARGO_TARGET_DIR="$PWD/target/benchmark-pkg" cargo test -q --offline \
    --manifest-path crates/bench/benchmark/Cargo.toml
cargo test -q --workspace
# Chaos suite (bounded iterations): kill/corrupt/fsck/resume loops must
# stay bit-identical. Already part of the workspace run above; kept as
# an explicit gate so containment regressions fail loudly by name.
cargo test -q -p vulfi-orch --test chaos
# Key pins: every paper-matrix cell, each non-default fault model and a
# pruned study must keep the study key it had when the table was
# recorded; a moved key orphans every cached study, so drift fails by
# name.
cargo test -q -p vulfi-orch --test key_pins
cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings

# Trace smoke test: a small traced study must leave a clean (fsck'd)
# trace sidecar that summarize can read end to end.
SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"' EXIT
./target/release/vulfi study --bench "vector sum" --experiments 12 --campaigns 5 \
    --seed 7 --shard-size 5 --store "$SMOKE/store" --trace "$SMOKE/trace" \
    --metrics-out "$SMOKE/metrics.prom" > /dev/null
./target/release/vulfi fsck --store "$SMOKE/store" --trace "$SMOKE/trace"
./target/release/vulfi trace summarize --trace "$SMOKE/trace" > /dev/null
grep -q '^vulfi_experiments_total' "$SMOKE/metrics.prom"

# Span export smoke: the Chrome trace-event export must self-validate
# (nesting re-proven from the emitted JSON) and report at least one
# complete span on every layer of request -> job -> shard -> experiment.
./target/release/vulfi trace export --chrome --store "$SMOKE/store" \
    --trace "$SMOKE/trace" -o "$SMOKE/spans.json" 2> "$SMOKE/export.err"
grep -q '"traceEvents"' "$SMOKE/spans.json"
grep -q '"displayTimeUnit"' "$SMOKE/spans.json"
grep -Eq 'chrome export: [1-9][0-9]* request, [1-9][0-9]* job, [1-9][0-9]* shard, [1-9][0-9]* experiment span\(s\)' \
    "$SMOKE/export.err"

# Analytics smoke tests: diffing a store against itself must flag
# nothing, and the HTML report must render self-contained with its
# heatmap section.
./target/release/vulfi report diff "$SMOKE/store" "$SMOKE/store" | grep '0 significant' > /dev/null
./target/release/vulfi report heatmap --trace "$SMOKE/trace" > /dev/null
./target/release/vulfi report html --store "$SMOKE/store" --trace "$SMOKE/trace" \
    --metrics-in "$SMOKE/metrics.prom" -o "$SMOKE/report.html"
grep -q 'id="heatmap"' "$SMOKE/report.html"
grep -q 'id="diff"' "$SMOKE/report.html"
grep -q 'id="analysis"' "$SMOKE/report.html"
# (`! cmd` never trips `set -e`, so negated checks test the exit code
# explicitly.)
if grep -q '<script' "$SMOKE/report.html"; then
    echo "ci: the HTML report must carry no <script>" >&2
    exit 1
fi
# Over the committed report fixture, the JSON roll-ups must print
# exactly the recorded documents (crates/cli/tests/report.rs diffs every
# report against it).
REPORTS=crates/cli/tests/fixtures/reports
./target/release/vulfi trace summarize --trace "$REPORTS/trace" --json > "$SMOKE/summarize.json"
diff -u "$REPORTS/trace-summarize.json" "$SMOKE/summarize.json"
./target/release/vulfi report heatmap --trace "$REPORTS/trace" --json > "$SMOKE/heatmap.json"
diff -u "$REPORTS/report-heatmap.json" "$SMOKE/heatmap.json"

# Static-analysis smoke tests: the analyzer must report a benign
# fraction for a benchmark, the whole built-in suite must stay
# lint-clean against the committed baseline, and a deliberately dirty
# module must flip the exit code under --deny — the lint gate is only a
# gate if a finding actually fails the build.
./target/release/vulfi analyze --bench "vector sum" | grep 'provably benign' > /dev/null
./target/release/vulfi lint --suite --deny > /dev/null
./target/release/vulfi lint --suite --json -o "$SMOKE/lint.json"
diff -u LINT_BASELINE.json "$SMOKE/lint.json"
printf 'define void @ds(i32 %%x) {\nentry:\n  %%p = alloca i32, i64 1\n  store i32 %%x, ptr %%p\n  ret void\n}\n' \
    > "$SMOKE/dirty.vir"
if ./target/release/vulfi lint "$SMOKE/dirty.vir" --deny > /dev/null; then
    echo "ci: lint --deny must exit non-zero on a dead store" >&2
    exit 1
fi
./target/release/vulfi sites "$SMOKE/dirty.vir" --json -o "$SMOKE/sites.json"
grep -q '"sites"' "$SMOKE/sites.json"

# Pruning smoke test: a pruned study must discharge injections without
# execution, and the soundness gauntlet must cross-validate the
# analyzer's benign proofs against fully-executed studies — zero
# predicted-benign injections may land as SDC/Crash or trip a detector.
./target/release/vulfi study --bench "vector sum" --experiments 20 --campaigns 5 \
    --seed 7 --shard-size 10 --prune --store "$SMOKE/pruned" \
    | grep 'statically discharged' > /dev/null
# A discharged injection is one the analyzer proved benign, so the
# pruned study's counts must equal those of its plain twin (same seed,
# experiments, campaigns and shard size). The pruned rerun is a cache hit.
./target/release/vulfi study --bench "vector sum" --experiments 20 --campaigns 5 \
    --seed 7 --shard-size 10 --prune --store "$SMOKE/pruned" --json 2> "$SMOKE/pruned.err" \
    | sed -n '/"counts"/,/}/p' > "$SMOKE/pruned.counts"
./target/release/vulfi study --bench "vector sum" --experiments 20 --campaigns 5 \
    --seed 7 --shard-size 10 --store "$SMOKE/plain" --json 2> "$SMOKE/plain.err" \
    | sed -n '/"counts"/,/}/p' > "$SMOKE/plain.counts"
grep -q '"sdc"' "$SMOKE/plain.counts"
diff -u "$SMOKE/plain.counts" "$SMOKE/pruned.counts"
./target/release/vulfi gauntlet run scenarios/soundness.toml --store "$SMOKE/soundness" \
    | grep '0 breaches: PASS' > /dev/null

# Gauntlet smoke test: the committed scenario (3 fault models x 2 ISAs
# x 2 benchmarks) must pass its invariants, render into the HTML report,
# and a deliberately impossible invariant must flip the exit code — the
# gauntlet is only a gate if a breach actually fails the build.
./target/release/vulfi gauntlet run scenarios/smoke.toml --store "$SMOKE/gauntlet" \
    | grep '0 breaches: PASS' > /dev/null
./target/release/vulfi gauntlet report scenarios/smoke.toml --store "$SMOKE/gauntlet" \
    -o "$SMOKE/gauntlet.html" > /dev/null
grep -q 'id="gauntlet"' "$SMOKE/gauntlet.html"
grep -q 'memory-cell' "$SMOKE/gauntlet.html"
sed 's/^sdc_rate_max.*/sdc_rate_max = 0.0/' scenarios/smoke.toml > "$SMOKE/breach.toml"
if ./target/release/vulfi gauntlet run "$SMOKE/breach.toml" --store "$SMOKE/gauntlet" --resume \
    > "$SMOKE/breach.out"; then
    echo "ci: gauntlet run must exit non-zero on a breached invariant" >&2
    exit 1
fi
grep -q 'FAIL (sdc_rate_max)' "$SMOKE/breach.out"

# Profiler smoke test: the hot-path profiler must rank opcodes for a
# golden run without perturbing it (bit-identity is proven by the vexec
# proptest), and its folded stacks must equal the committed fixture.
./target/release/vulfi profile --bench "vector sum" --hotspots --top 5 \
    -o "$SMOKE/folded.txt" > "$SMOKE/profile.out"
grep -q 'hotspots' "$SMOKE/profile.out"
grep -q 'hottest sites' "$SMOKE/profile.out"
diff -u crates/cli/tests/fixtures/profile/vector-sum.avx.folded "$SMOKE/folded.txt"

# Throughput record: bench --record must emit parseable JSON with a
# nonzero experiments-per-second figure, and the cumulative history
# sidecar must gain a line carrying the opcode mix.
./target/release/vulfi bench --bench "vector sum" --experiments 10 --record \
    -o "$SMOKE/BENCH_report.json" > /dev/null
grep -q 'exp_per_sec' "$SMOKE/BENCH_report.json"
grep -q 'opcode_mix' "$SMOKE/BENCH_report.json"
grep -q 'golden_dyn_insts' "$SMOKE/BENCH_history.jsonl"
# The trend reader must fold that history into a per-bench trajectory.
./target/release/vulfi bench trend -o "$SMOKE/BENCH_report.json" > "$SMOKE/trend.out"
grep -q 'vector sum' "$SMOKE/trend.out"
./target/release/vulfi bench trend -o "$SMOKE/BENCH_report.json" --json \
    | grep -q '"monotone_regression"'

# Throughput gate: re-run the micro-benchmarks (full and pruned pairs)
# against the committed baseline; any >30% exp/s regression fails the
# build. Re-record with `vulfi bench --experiments 400 --prune --record`
# when a slowdown is intended.
./target/release/vulfi bench --experiments 400 --prune --check BENCH_report.json

# Service smoke test: daemon on an ephemeral port, submit over HTTP,
# wait for the merged result, pull the analytics report, drain
# gracefully, and leave a store that passes fsck.
./target/release/vulfi serve --addr 127.0.0.1:0 --store "$SMOKE/serve" --workers 2 &
SERVE_PID=$!
for _ in $(seq 1 100); do
    [ -s "$SMOKE/serve/serve.addr" ] && break
    sleep 0.1
done
ADDR=$(cat "$SMOKE/serve/serve.addr")
./target/release/vulfi submit --addr "$ADDR" --bench "vector sum" \
    --experiments 12 --campaigns 5 --shard-size 5 --wait --json > "$SMOKE/submit.json"
grep -q '"mean_sdc"' "$SMOKE/submit.json"
# Capture to a file first: `head -1` closing the pipe early would kill
# the writer with SIGPIPE/broken-pipe under `pipefail`.
./target/release/vulfi status --addr "$ADDR" --json > "$SMOKE/status.json"
KEY=$(grep -o '"key": "[a-f0-9]*"' "$SMOKE/status.json" | head -1 | cut -d'"' -f4)
./target/release/vulfi status --addr "$ADDR" "$KEY" --report > "$SMOKE/status_report.json"
grep -q '"cell"' "$SMOKE/status_report.json"
# Live dashboard: zero-JS self-contained HTML with the jobs table.
curl -s "http://$ADDR/dashboard" > "$SMOKE/dashboard.html"
grep -q 'id="jobs"' "$SMOKE/dashboard.html"
if grep -q '<script' "$SMOKE/dashboard.html"; then
    echo "ci: the dashboard must carry no <script>" >&2
    exit 1
fi
# The daemon serves no alerts route.
test "$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/alerts")" = 404
./target/release/vulfi shutdown --addr "$ADDR" > /dev/null
wait "$SERVE_PID"
test ! -e "$SMOKE/serve/serve.addr"
# The CLI and the daemon agree: `vulfi study` on the submitted spec
# (same defaults) lands on the daemon's study and executes nothing.
./target/release/vulfi study --bench "vector sum" --experiments 12 --campaigns 5 \
    --shard-size 5 --store "$SMOKE/serve" --json > "$SMOKE/study_on_serve.json" 2> /dev/null
grep -q "\"key\": \"$KEY\"" "$SMOKE/study_on_serve.json"
grep -q '"shards_executed": 0' "$SMOKE/study_on_serve.json"
# One fsck covers every log the daemon wrote: shards, queue and ops.
./target/release/vulfi fsck --store "$SMOKE/serve"
# The ops log alone must reconstruct the job's lifecycle offline.
./target/release/vulfi events summarize --store "$SMOKE/serve" > "$SMOKE/ops.out"
grep -q 'completed' "$SMOKE/ops.out"
grep -q 'merged' "$SMOKE/ops.out"
./target/release/vulfi events tail --store "$SMOKE/serve" --top 200 > "$SMOKE/tail.out"
grep -q 'shard-done' "$SMOKE/tail.out"
# A store left by a daemon that still sampled telemetry and logged
# alerts (the committed fixture) must still pass fsck.
./target/release/vulfi fsck --store crates/orch/tests/fixtures/legacy_store > /dev/null

# Queue repair: one changed byte in the queue log's first record makes
# fsck fail loudly; --repair quarantines and salvages the log, after
# which fsck is clean and the daemon starts on the repaired store.
sed -i '0,/"job":1,/s//"job":3,/' "$SMOKE/serve/queue/events.jsonl"
if ./target/release/vulfi fsck --store "$SMOKE/serve" > "$SMOKE/fsck.out"; then
    echo "ci: fsck must exit non-zero on a corrupt queue log" >&2
    exit 1
fi
grep -q 'CORRUPT' "$SMOKE/fsck.out"
./target/release/vulfi fsck --store "$SMOKE/serve" --repair > /dev/null
./target/release/vulfi fsck --store "$SMOKE/serve" > /dev/null
test -f "$SMOKE/serve/queue/events.quarantine/events.0.jsonl"
./target/release/vulfi serve --addr 127.0.0.1:0 --store "$SMOKE/serve" --workers 1 > /dev/null &
SERVE_PID=$!
for _ in $(seq 1 100); do
    [ -s "$SMOKE/serve/serve.addr" ] && break
    sleep 0.1
done
./target/release/vulfi shutdown --addr "$(cat "$SMOKE/serve/serve.addr")" > /dev/null
wait "$SERVE_PID"

echo "ci: all checks passed"
