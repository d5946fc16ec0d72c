#!/usr/bin/env bash
# Machine-readable benchmark, written at the repo root:
#  - BENCH_service.json: the metaformd load generator — close vs
#    keep-alive request legs (p50/p99 latency, throughput) and a
#    submit→drain job leg over a real loopback server.
# Usage: scripts/bench.sh [service_out.json]
set -euo pipefail
cd "$(dirname "$0")/.."

SERVICE_OUT="${1:-BENCH_service.json}"
cargo run --release -q -p metaform-bench --bin bench_service -- "$SERVICE_OUT"
