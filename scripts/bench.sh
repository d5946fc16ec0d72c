#!/usr/bin/env bash
# Machine-readable benchmarks, written at the repo root:
#  - BENCH_revisit.json: cold parses vs the parse cache's exact-hit
#    replay over the survey corpus;
#  - BENCH_service.json: the metaformd load generator — close vs
#    keep-alive request legs (p50/p99 latency, throughput) and a
#    submit→drain job leg over a real loopback server.
# Usage: scripts/bench.sh [revisit_out.json [service_out.json]]
set -euo pipefail
cd "$(dirname "$0")/.."

REVISIT_OUT="${1:-BENCH_revisit.json}"
SERVICE_OUT="${2:-BENCH_service.json}"
cargo run --release -q -p metaform-bench --bin bench_revisit -- "$REVISIT_OUT"
cargo run --release -q -p metaform-bench --bin bench_service -- "$SERVICE_OUT"
