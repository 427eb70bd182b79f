#!/usr/bin/env bash
# The full local gate: everything CI runs, in the order that fails fastest.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --workspace --all-targets"
cargo build --release --workspace --all-targets

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "==> rustdoc, warnings as errors (broken intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --keep-going

echo "==> latency-breakdown figure (trace smoke test)"
./target/release/fig_latency_breakdown

echo "==> crash-point sweep (200 trials + broken-drain control)"
./target/release/crashpoint_sweep

echo "==> failover sweep (replicated pair: sync/async x 4 failure kinds)"
./target/release/failover_sweep

echo "==> adaptive batching ablation (saturation + tail-latency gates, QUICK)"
QUICK=1 ./target/release/abl_adaptive_batching

echo "==> parallel recovery ablation (speedup + fuzzy scan-cut gates, QUICK)"
QUICK=1 ./target/release/abl_recovery

echo "==> SSD channel-scaling ablation (windowed drain gate, QUICK)"
QUICK=1 ./target/release/abl_ssd_channels

echo "==> TPC-C throughput figures (paper-shape gates, QUICK)"
QUICK=1 ./target/release/fig4_tpcc_hdd
QUICK=1 ./target/release/fig5_tpcc_ssd

echo "==> multi-tenant fairness (fair-share drain gate, QUICK)"
QUICK=1 ./target/release/fig_tenant_fairness

echo "==> hot-path bench + allocation budget (check mode)"
BENCH_CHECK=1 cargo bench -q -p rapilog-bench --bench hotpaths

echo "==> trials/sec regression gate (QUICK sweeps vs BENCH_baseline.json)"
scripts/perf_gate.sh

echo "==> media-fault table (degraded-mode smoke test)"
./target/release/table4_disk_faults

echo "==> all checks passed"
