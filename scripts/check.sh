#!/usr/bin/env bash
# The tier-1 gate. Everything CI (and the roadmap) requires, in order:
# formatting, lints-as-errors, rustdoc-warnings-as-errors, release
# build, tests.
#
# Usage: scripts/check.sh [--offline]
#   --offline   forward to every cargo invocation (hermetic builds;
#               the workspace vendors its registry deps under
#               crates/shims/, so offline is expected to work).
set -euo pipefail
cd "$(dirname "$0")/.."

CARGO_FLAGS=()
for arg in "$@"; do
  case "$arg" in
    --offline) CARGO_FLAGS+=("--offline") ;;
    *)
      echo "usage: scripts/check.sh [--offline]" >&2
      exit 2
      ;;
  esac
done

run() {
  echo "[check] $*"
  "$@"
}

run cargo fmt --check
run cargo clippy --workspace --all-targets "${CARGO_FLAGS[@]+"${CARGO_FLAGS[@]}"}" -- -D warnings -D deprecated
run env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps "${CARGO_FLAGS[@]+"${CARGO_FLAGS[@]}"}"
run cargo build --release "${CARGO_FLAGS[@]+"${CARGO_FLAGS[@]}"}"
run cargo test -q "${CARGO_FLAGS[@]+"${CARGO_FLAGS[@]}"}"

# paper-smoke: the release build must print every paper artifact
# byte for byte as pinned. Tier-1 `cargo test` diffs the debug build
# only, and overflow checks differ between the two, so the release
# `paper` output is split at its `$ paper <id>` headers and each block
# diffed against scripts/golden/paper/<name>.txt (`paper --help` lists
# the id/name pairs).
echo "[check] paper-smoke (release paper artifacts vs their goldens)"
smoke_tmp="$(mktemp -d)"
trap 'rm -rf "$smoke_tmp"' EXIT
target/release/paper > "$smoke_tmp/paper.txt"
target/release/paper --help | sed -n 's/^  \(E[0-9]*\|ablations\) *\([a-z0-9_]*\)$/\1 \2/p' \
  > "$smoke_tmp/paper_ids.txt"
[ "$(wc -l < "$smoke_tmp/paper_ids.txt")" -eq "$(ls scripts/golden/paper | wc -l)" ] \
  || { echo "[check] paper --help does not list one artifact per golden" >&2; exit 1; }
while read -r id name; do
  awk -v header="\$ paper $id" '$0 == header { on = 1; next } /^\$ paper / { on = 0 } on' \
    "$smoke_tmp/paper.txt" > "$smoke_tmp/paper_$name.txt"
  if ! diff -u "scripts/golden/paper/$name.txt" "$smoke_tmp/paper_$name.txt"; then
    echo "[check] release \`paper $id\` diverged from scripts/golden/paper/$name.txt" >&2
    exit 1
  fi
done < "$smoke_tmp/paper_ids.txt"

# chaos-smoke: the smoke campaign under the mayhem fault plan must exit
# cleanly with exactly the golden per-class error accounting. The
# summary is deterministic by construction (fixed seed, worker-count
# independent), so a plain byte diff is the whole check. The same run
# captures a trace for the trace-smoke step below.
echo "[check] chaos-smoke (mayhem plan, fixed seed)"
target/release/crash-resist chaos --plan mayhem --jobs 2 --summary-json \
  --trace "$smoke_tmp/trace.jsonl" 2>/dev/null > "$smoke_tmp/chaos.json"
if ! diff -u scripts/golden/chaos_smoke.json "$smoke_tmp/chaos.json"; then
  echo "[check] chaos-smoke summary diverged from scripts/golden/chaos_smoke.json" >&2
  exit 1
fi

# trace-smoke: the chaos trace must parse, and the report must see
# every pipeline stage (fault events included) — the stage line is
# golden.
echo "[check] trace-smoke (report over the chaos trace)"
target/release/crash-resist report "$smoke_tmp/trace.jsonl" > "$smoke_tmp/report.txt"
grep '^stages: ' "$smoke_tmp/report.txt" > "$smoke_tmp/stages.txt"
if ! diff -u scripts/golden/trace_stages.txt "$smoke_tmp/stages.txt"; then
  echo "[check] trace stage set diverged from scripts/golden/trace_stages.txt" >&2
  exit 1
fi

# schema check: every machine-readable output carries the versioned
# envelope (schema_version first, a known kind).
echo "[check] report schema (schema_version on every JSON output)"
envelope='^{"schema_version":1,"kind":"'
head -n1 "$smoke_tmp/trace.jsonl" | grep -q '^{"schema_version":1,"kind":"trace"' \
  || { echo "[check] trace header lacks schema_version" >&2; exit 1; }
target/release/crash-resist report --json "$smoke_tmp/trace.jsonl" \
  | grep -q "${envelope}report\"" \
  || { echo "[check] report --json lacks the envelope" >&2; exit 1; }
target/release/crash-resist list --json | grep -q "${envelope}list\"" \
  || { echo "[check] list --json lacks the envelope" >&2; exit 1; }
grep -q "${envelope}chaos\"" "$smoke_tmp/chaos.json" \
  || { echo "[check] chaos --summary-json lacks the envelope" >&2; exit 1; }
printf '{"tasks":[{"PocScan":"ie"}]}' > "$smoke_tmp/spec.json"
target/release/crash-resist campaign --spec "$smoke_tmp/spec.json" --json 2>/dev/null \
  | grep -q "${envelope}campaign\"" \
  || { echo "[check] campaign --json lacks the envelope" >&2; exit 1; }

# solver-bench smoke: a small corpus through the decision-procedure
# bench. Only the non-timing invariants gate: every SAT model must
# satisfy its constraints, and the warm pass must answer every query
# from the normalized-query memo (the binary itself asserts hit ==
# lookup == queries x rounds). Wall times are recorded in the JSON,
# never asserted.
echo "[check] solver-bench smoke (models verified + memo hits)"
SOLVER_BENCH_QUERIES=64 SOLVER_BENCH_ROUNDS=1 \
  SOLVER_BENCH_OUT="$smoke_tmp/solver.json" \
  target/release/solver_bench > /dev/null 2> "$smoke_tmp/solver.log" \
  || { cat "$smoke_tmp/solver.log" >&2; echo "[check] solver_bench failed" >&2; exit 1; }
grep -q '"models_verified":true' "$smoke_tmp/solver.json" \
  || { echo "[check] solver_bench found a SAT model that fails its query" >&2; exit 1; }
grep -q '"memo_warm":{[^}]*"memo_hits":64' "$smoke_tmp/solver.json" \
  || { echo "[check] solver_bench warm pass did not hit the memo" >&2; exit 1; }

# symex-paths smoke: the path explorer over the loopy/multi-branch
# filter family. Exploration is a single-threaded deterministic DFS
# over generated targets, so the whole envelope (per-filter verdicts,
# path/prune/step counts, solver counters) diffs byte for byte. The
# solver-bench JSON above records this family's exploration time.
echo "[check] symex-paths smoke (explore golden)"
target/release/crash-resist explore loopy --json > "$smoke_tmp/explore.json"
if ! diff -u scripts/golden/explore_smoke.json "$smoke_tmp/explore.json"; then
  echo "[check] explore report diverged from scripts/golden/explore_smoke.json" >&2
  exit 1
fi
grep -q "${envelope}explore\"" "$smoke_tmp/explore.json" \
  || { echo "[check] explore --json lacks the envelope" >&2; exit 1; }
grep -q '"memo_hits":64' "$smoke_tmp/explore.json" \
  || { echo "[check] sibling-path memo hits fell below the 64-hit floor" >&2; exit 1; }

# scan-smoke: the traceless scanner over the harness-less corpus module
# must reproduce the golden report byte for byte (content hashes,
# dataflow origins and temporal tags included), and a one-round
# scan_bench sweep must hold the non-timing invariants: 100% static
# recall against every taint-confirmed site set, and byte-identical
# reports across repeated scans. Throughput numbers are recorded in the
# JSON, never asserted.
echo "[check] scan-smoke (golden vsftpd report + recall/determinism sweep)"
target/release/crash-resist scan vsftpd --json > "$smoke_tmp/scan.json"
if ! diff -u scripts/golden/scan_smoke.json "$smoke_tmp/scan.json"; then
  echo "[check] scan report diverged from scripts/golden/scan_smoke.json" >&2
  exit 1
fi
SCAN_BENCH_ROUNDS=1 SCAN_BENCH_OUT="$smoke_tmp/static.json" \
  target/release/scan_bench > /dev/null 2> "$smoke_tmp/scan.log" \
  || { cat "$smoke_tmp/scan.log" >&2; echo "[check] scan_bench failed" >&2; exit 1; }
grep -q '"recall_100":true' "$smoke_tmp/static.json" \
  || { echo "[check] scan_bench static recall below 100%" >&2; exit 1; }
grep -q '"deterministic":true' "$smoke_tmp/static.json" \
  || { echo "[check] scan_bench reports diverged across runs" >&2; exit 1; }

# arena-smoke: the full strategy × detector matrix through the
# campaign engine. The envelope carries only the deterministic half
# (metrics is null), so the whole document diffs byte for byte — and
# the golden itself encodes the §VII-C headline: stealth evades the
# rate threshold but CUSUM catches it, the scan-derived serving filter
# blocks every escalation, zero false positives anywhere. The explicit
# greps keep the invariant readable even if the golden is regenerated.
echo "[check] arena-smoke (strategy x detector matrix golden)"
target/release/crash-resist arena --json 2>/dev/null > "$smoke_tmp/arena.json"
if ! diff -u scripts/golden/arena_smoke.json "$smoke_tmp/arena.json"; then
  echo "[check] arena matrix diverged from scripts/golden/arena_smoke.json" >&2
  exit 1
fi
grep -q "${envelope}arena\"" "$smoke_tmp/arena.json" \
  || { echo "[check] arena --json lacks the envelope" >&2; exit 1; }
grep -q '"stealth_evades_rate":true' "$smoke_tmp/arena.json" \
  || { echo "[check] stealth no longer evades the rate threshold" >&2; exit 1; }
grep -q '"stealth_caught_by_cusum":true' "$smoke_tmp/arena.json" \
  || { echo "[check] CUSUM no longer catches stealth probing" >&2; exit 1; }
grep -q '"filter_blocks_escalations":true' "$smoke_tmp/arena.json" \
  || { echo "[check] the syscall filter missed an escalation" >&2; exit 1; }
grep -q '"zero_false_positives":true' "$smoke_tmp/arena.json" \
  || { echo "[check] a detector false-positived on benign browsing" >&2; exit 1; }

# serve-smoke: start the resident server on an ephemeral port, send one
# cold and one warm request over a single client connection, assert the
# warm invariants (zero solver calls, resident parsed image), and drain
# gracefully. The Shutdown frame is the SIGTERM-equivalent: portable
# std cannot trap signals, so graceful drain is a protocol affair.
echo "[check] serve-smoke (cold + warm request, graceful drain)"
printf '{"name":"serve-smoke","seed":2017,"tasks":[{"SehAnalysis":"xmllite"}]}' \
  > "$smoke_tmp/serve_spec.json"
target/release/crash-resist serve --stats-json \
  > "$smoke_tmp/serve_out.json" 2> "$smoke_tmp/serve.log" &
serve_pid=$!
addr=""
for _ in $(seq 1 100); do
  addr="$(sed -n 's/^serving on //p' "$smoke_tmp/serve_out.json" 2>/dev/null | head -n1)"
  [ -n "$addr" ] && break
  sleep 0.1
done
[ -n "$addr" ] || { cat "$smoke_tmp/serve.log" >&2
  echo "[check] server never published its address" >&2; exit 1; }
target/release/crash-resist client --addr "$addr" \
  --spec "$smoke_tmp/serve_spec.json" --repeat 2 --stats --shutdown \
  > "$smoke_tmp/client.json" 2> "$smoke_tmp/client.log" \
  || { cat "$smoke_tmp/client.log" >&2
  echo "[check] serve client round trip failed" >&2; exit 1; }
wait "$serve_pid" \
  || { cat "$smoke_tmp/serve.log" >&2
  echo "[check] server did not drain cleanly" >&2; exit 1; }
[ "$(wc -l < "$smoke_tmp/client.json")" -eq 2 ] \
  || { echo "[check] expected two Done payloads" >&2; exit 1; }
head -n1 "$smoke_tmp/client.json" | grep -q '"parse":"fresh"' \
  || { echo "[check] cold request must parse the image fresh" >&2; exit 1; }
tail -n1 "$smoke_tmp/client.json" \
  | grep -q '"solver_calls":0.*"parse":"cached"' \
  || { cat "$smoke_tmp/client.json" >&2
  echo "[check] warm request must skip the solver and reuse the image" >&2; exit 1; }
grep -q '"schema_version":1,"kind":"serve"' "$smoke_tmp/serve_out.json" \
  || { echo "[check] serve --stats-json lacks the envelope" >&2; exit 1; }
grep -q '"requests_completed":2' "$smoke_tmp/serve_out.json" \
  || { cat "$smoke_tmp/serve_out.json" >&2
  echo "[check] drained stats must report both requests completed" >&2; exit 1; }

# fleet-smoke: three workers behind the router, four sequential
# requests plus a three-client burst, with the worker owning admission
# 2 killed mid-request. Every admitted request must still get exactly
# one answer, byte-identical to a one-shot campaign run — the failover
# and coalescing invariants, under an actual node death. Restart
# timing is scheduler-dependent, so only the delivery invariants gate.
echo "[check] fleet-smoke (node kill mid-request, delivery invariants)"
target/release/crash-resist fleet --workers 3 --requests 4 \
  --kill-request 2 --summary-json \
  > "$smoke_tmp/fleet.json" 2> "$smoke_tmp/fleet.log" \
  || { cat "$smoke_tmp/fleet.log" >&2
  echo "[check] fleet run failed" >&2; exit 1; }
grep -q "${envelope}fleet\"" "$smoke_tmp/fleet.json" \
  || { echo "[check] fleet --summary-json lacks the envelope" >&2; exit 1; }
grep -q '"answered":7,"expected":7,"byte_identical":true,"exactly_once":true,"ok":true' \
  "$smoke_tmp/fleet.json" \
  || { cat "$smoke_tmp/fleet.json" >&2
  echo "[check] fleet delivery invariants broken" >&2; exit 1; }
grep -q '"kills":1' "$smoke_tmp/fleet.json" \
  || { cat "$smoke_tmp/fleet.json" >&2
  echo "[check] fleet smoke never killed its worker" >&2; exit 1; }
echo "[check] all green"
