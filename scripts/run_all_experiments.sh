#!/usr/bin/env bash
# Regenerate every paper artifact (EXPERIMENTS.md §E1–E12 and the
# ablations) in one go: `paper` prints them all, each under a
# `$ paper <id>` header, byte for byte as pinned in scripts/golden/paper/.
# Usage: scripts/run_all_experiments.sh [output-dir]
set -euo pipefail
out="${1:-experiment-results}"
mkdir -p "$out"
echo "[run_all] paper"
cargo run --release -p cr-bench --bin paper >"$out/paper.txt" 2>"$out/paper.log"
# arena_bench asserts the §VII-C headline invariants in-binary and
# writes its JSON artifact, BENCH_defense.json, next to the other
# BENCH_* files at the repository root.
echo "[run_all] arena_bench"
cargo run --release -p cr-bench --bin arena_bench \
    >"$out/arena_bench.txt" 2>"$out/arena_bench.log"
echo "[run_all] done — results in $out/"
