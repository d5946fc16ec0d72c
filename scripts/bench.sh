#!/usr/bin/env bash
# Machine-readable benchmarks, written at the repo root:
#  - BENCH_parse.json: the batch-120 workload under both fix-point
#    schedules (median batch time, combos enumerated, instances created);
#  - BENCH_revisit.json: cold parses vs the parse cache's exact-hit
#    replay over the survey corpus;
#  - BENCH_service.json: the metaformd load generator — close vs
#    keep-alive request legs (p50/p99 latency, throughput) and a
#    submit→drain job leg over a real loopback server.
# Usage: scripts/bench.sh [parse_out.json [revisit_out.json [service_out.json]]]
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_parse.json}"
REVISIT_OUT="${2:-BENCH_revisit.json}"
SERVICE_OUT="${3:-BENCH_service.json}"
cargo run --release -q -p metaform-bench --bin bench_parse -- "$OUT"
cargo run --release -q -p metaform-bench --bin bench_revisit -- "$REVISIT_OUT"
cargo run --release -q -p metaform-bench --bin bench_service -- "$SERVICE_OUT"
