#!/usr/bin/env bash
# Full local gate: everything CI would run, in dependency order.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q --workspace"
# The goldens under tests/golden (survey reports, starved survey
# reports, per-token front-end digests, parser work counters and the
# induction trajectory) are compared by their tests, never re-blessed
# here; and a blessed-but-uncommitted golden file is drift, not a pass.
test -z "${METAFORM_BLESS:-}"
cargo test -q --workspace
git diff --quiet -- tests/golden

echo "==> cargo test -q --test alloc_budget (cold-path allocations per page, per layer)"
# A counting global allocator over a fixed generated page set: the
# figures are exact and host-independent, so copying creeping back into
# the cold path fails here rather than as benchmark noise. Every row
# (DOM, layout, tokenizer, parse, merge, induction evidence, whole cold
# path, starved ladder) is printed, and a row that no longer prints — a
# renamed or dropped one — fails the step.
alloc_rows="$(cargo test -q --test alloc_budget -- --nocapture | grep 'allocations per page')"
echo "$alloc_rows"
test "$(echo "$alloc_rows" | wc -l)" = 8

echo "==> layout scratch gate (a whole-document Layout only in layout_in)"
# Table measurement walks the cell's subtree; no measurement may
# allocate a scratch layout of the whole document again.
test "$(grep -rn 'Layout::sized(' crates src | wc -l)" = 1
test "$(awk '/fn [a-z_]+[(<]/ { f = $0 } /Layout::sized\(/ { print f }' crates/layout/src/engine.rs)" = \
    "pub fn layout_in<'d>("

echo "==> metaform --adaptive --failures-json (CLI telemetry sanity)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
printf '<form>Author <input type=text name=q><input type=submit value=Go></form>' > "$tmp/ok.html"
printf '<form></form>' > "$tmp/empty.html"
./target/release/metaform --adaptive --max-retries 1 \
    --failures-json "$tmp/failures.json" --failures-csv "$tmp/failures.csv" \
    "$tmp/ok.html" "$tmp/empty.html" > /dev/null 2>/dev/null
# The empty form must be narrated in both formats; the JSON shape is
# the documented schema (the lossless round trip itself is asserted by
# tests/adaptive_batch.rs).
grep -q '"page_index": 1' "$tmp/failures.json"
grep -q '"error": "empty_form"' "$tmp/failures.json"
grep -q '"outcome": "degraded"' "$tmp/failures.json"
grep -q '^1,empty_form,degraded,' "$tmp/failures.csv"

echo "==> provenance construction gate (salvage/fallback each built in exactly one place)"
# salvage_or_degrade is the only site allowed to promote a partial parse,
# and degrade the only site allowed to mint the baseline fallback — the
# salvage tests rely on that to reason about every degraded page.
test "$(grep -c 'via = Provenance::PartialSalvage' crates/extractor/src/pipeline.rs)" = 1
test "$(grep -c 'via: Provenance::BaselineFallback' crates/extractor/src/pipeline.rs)" = 1

echo "==> salvage report gate (a failed attempt's report is built in one place)"
# Only the attempt a page settles on builds its salvage candidate; a
# retried attempt recycles its chart unbuilt.
test "$(grep -rn 'salvage_merge(' crates/extractor/src | wc -l)" = 1

echo "==> perfbench self-tests and short starved_ladder, revisit_zipf and service_dispatch runs"
# The benchmark checks every page of every job against single-page
# extraction under the same escalation and exits nonzero on any
# difference: the end-to-end guard on retry + salvage parity
# (starved_ladder) and on cache parity (revisit_zipf, and
# service_dispatch through the service's shared cache).
cargo test -q --offline --manifest-path perfbench/Cargo.toml
for workload in starved_ladder revisit_zipf service_dispatch; do
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 3 --trace 0 > /dev/null
done

echo "==> induction construction gate (induced productions enter only via Grammar::compile)"
# CompiledGrammar::build is the private plumbing of Grammar::compile —
# no other module may mint a parse-ready grammar (mirrors the
# provenance single-construction gates above).
test "$(grep -rl 'CompiledGrammar::build' crates src | grep -v 'crates/grammar/src/compiled.rs' | wc -l)" = 0
# The daemon's hot-swap path never compiles directly: every candidate
# flows through the validation gate, whose first clause is the compile.
test "$(grep -rn '\.compile()' crates/service/src | wc -l)" = 0
grep -q 'RejectReason::CompileError' crates/eval/src/induction.rs
# Induced rules are `.2pg` text read by the one DSL parser
# (`Candidate::apply`); a struct literal there would be a second way
# to write a rule.
test "$(grep -cE '(Production|Preference) \{' crates/grammar/src/induce.rs)" = 0

echo "==> JSON codec gate (one depth-capped JSON value parser)"
# Telemetry and the service wire both parse through
# metaform_extractor::json; a second hand-rolled parser (an object arm
# or a nesting cap anywhere else) is a second codec to keep in step.
test "$(grep -rlE "MAX_DEPTH|Some\(b'\{'\)" crates/extractor/src crates/service/src)" = \
    "crates/extractor/src/json.rs"

echo "==> bench_service smoke (load generator; keep-alive vs close legs)"
cargo run --release -q -p metaform-bench --bin bench_service -- --smoke "$tmp/BENCH_service.json" > /dev/null
grep -q '"keep_alive_speedup"' "$tmp/BENCH_service.json"
grep -q '"submit_drain"' "$tmp/BENCH_service.json"

echo "==> metaformd smoke (boot, /healthz, one batch end to end, shutdown)"
./target/release/metaformd --addr 127.0.0.1:0 --pool-workers 1 \
    --uds "$tmp/metaformd.sock" > "$tmp/metaformd.log" &
metaformd_pid=$!
for _ in $(seq 1 100); do
    grep -q 'listening on' "$tmp/metaformd.log" 2>/dev/null && break
    sleep 0.1
done
addr="$(sed -n 's/^metaformd listening on //p' "$tmp/metaformd.log")"
test -n "$addr"
curl -fsS "http://$addr/healthz" | grep -q ok
job_json="$(curl -fsS -X POST "http://$addr/v1/batches" \
    --data-binary '{"pages": ["<form>Author <input type=text name=q><input type=submit value=Go></form>"]}')"
echo "$job_json" | grep -q '"state": "queued"'
job="$(echo "$job_json" | sed -n 's/.*"job": \([0-9]*\).*/\1/p')"
for _ in $(seq 1 100); do
    curl -fsS "http://$addr/v1/batches/$job" | grep -q '"state": "done"' && break
    sleep 0.1
done
curl -fsS "http://$addr/v1/batches/$job/results" | grep -q 'Author'
curl -fsS "http://$addr/v1/jobs" | grep -q '"state": "done"'
curl -fsS "http://$addr/metrics" | grep -q 'metaformd_jobs_completed_total 1'
# First visit of the page is a cache miss; a revisit-hinted resubmit
# must replay from the process-wide parse cache.
curl -fsS "http://$addr/metrics" | grep -q 'metaformd_pages_cache_miss_total 1'
revisit_json="$(curl -fsS -X POST "http://$addr/v1/batches" \
    --data-binary '{"pages": [{"html": "<form>Author <input type=text name=q><input type=submit value=Go></form>", "revisit": true}]}')"
revisit_job="$(echo "$revisit_json" | sed -n 's/.*"job": \([0-9]*\).*/\1/p')"
for _ in $(seq 1 100); do
    curl -fsS "http://$addr/v1/batches/$revisit_job" | grep -q '"state": "done"' && break
    sleep 0.1
done
curl -fsS "http://$addr/v1/batches/$revisit_job/results" | grep -q '"via": "cache_hit"'
curl -fsS "http://$addr/metrics" | grep -q 'metaformd_pages_cache_hit_total 1'
curl -fsS "http://$addr/metrics" | grep -q 'metaformd_revisit_hints_total 1'

echo "==> metaformd daemon echo probe (line-JSON ping over --uds)"
for _ in $(seq 1 100); do
    test -S "$tmp/metaformd.sock" && break
    sleep 0.1
done
./target/release/bench_service --daemon-probe "$tmp/metaformd.sock" | grep -q pong

curl -fsS -X POST "http://$addr/v1/shutdown" | grep -q draining
wait "$metaformd_pid"
test ! -e "$tmp/metaformd.sock"   # the daemon removes its socket file on exit

echo "==> cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> OK"
