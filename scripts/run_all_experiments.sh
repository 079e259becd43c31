#!/usr/bin/env bash
# Regenerate every paper artifact (EXPERIMENTS.md §E1–E12) in one go.
# Usage: scripts/run_all_experiments.sh [output-dir]
set -euo pipefail
out="${1:-experiment-results}"
mkdir -p "$out"
bins=(table1 table2 table3 api_funnel seh_totals poc_exploits fault_rates prior_work probe_cost stealth_compare ablations)
for b in "${bins[@]}"; do
    echo "[run_all] $b"
    cargo run --release -p cr-bench --bin "$b" >"$out/$b.txt" 2>"$out/$b.log"
done
# arena_bench asserts the §VII-C headline invariants in-binary and
# writes its JSON artifact, BENCH_defense.json, next to the other
# BENCH_* files at the repository root.
echo "[run_all] arena_bench"
cargo run --release -p cr-bench --bin arena_bench \
    >"$out/arena_bench.txt" 2>"$out/arena_bench.log"
echo "[run_all] done — results in $out/"
