//! JSON reports, byte for byte, against the goldens under
//! `scripts/golden/`:
//!
//! * `explore loopy --json`: per-filter path verdicts, path/prune/step
//!   counts and the solver/memo counters;
//! * `arena --json`: the §VII-C strategy × detector matrix;
//! * `list --json`: the server, DLL, oracle and fault-plan names.
//!
//! Each report comes from the binary in a fresh process, so the counters
//! see a cold memo, the same way `scripts/check.sh` produces them.

use std::process::Command;

/// `(args, golden file, substrings the report must contain)`.
const GOLDENS: &[(&[&str], &str, &[&str])] = &[
    (
        &["explore", "loopy", "--json"],
        "explore_smoke.json",
        &[r#""solver_calls":537,"memo_lookups":402,"memo_hits":64"#],
    ),
    (
        &["arena", "--json"],
        "arena_smoke.json",
        &[
            r#""stealth_evades_rate":true"#,
            r#""stealth_caught_by_cusum":true"#,
        ],
    ),
    (
        &["list", "--json"],
        "list_smoke.json",
        &[r#""oracles":["ie","firefox","nginx"]"#],
    ),
];

#[test]
fn json_reports_match_their_goldens() {
    for &(args, golden, needles) in GOLDENS {
        let out = Command::new(env!("CARGO_BIN_EXE_crash-resist"))
            .args(args)
            .env_remove("CR_SEED")
            .output()
            .expect("spawn crash-resist");
        assert_eq!(
            out.status.code(),
            Some(0),
            "{args:?} stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let path = format!(
            "{}/../../scripts/golden/{golden}",
            env!("CARGO_MANIFEST_DIR")
        );
        let want = std::fs::read_to_string(&path).expect("read the golden");
        let got = String::from_utf8(out.stdout).expect("utf-8 report");
        assert_eq!(got, want, "{args:?} report diverged from {path}");
        for needle in needles {
            assert!(got.contains(needle), "{args:?}: {needle} moved: {got}");
        }
    }
}

/// `report --json` has no golden (its metrics are wall-clock times), so
/// pin its key order over a trace of a one-task campaign.
#[test]
fn report_json_keeps_its_key_order() {
    let dir = std::env::temp_dir().join(format!("cr-cli-report-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec = dir.join("spec.json");
    let trace = dir.join("trace.jsonl");
    std::fs::write(&spec, r#"{"tasks":[{"SehAnalysis":"xmllite"}]}"#).unwrap();
    let run = |args: &[&std::ffi::OsStr]| {
        let out = Command::new(env!("CARGO_BIN_EXE_crash-resist"))
            .args(args)
            .env_remove("CR_SEED")
            .output()
            .expect("spawn crash-resist");
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        String::from_utf8(out.stdout).expect("utf-8 output")
    };
    run(&[
        "campaign".as_ref(),
        "--spec".as_ref(),
        spec.as_ref(),
        "--trace".as_ref(),
        trace.as_ref(),
    ]);
    let report = run(&["report".as_ref(), "--json".as_ref(), trace.as_ref()]);
    std::fs::remove_dir_all(&dir).unwrap();

    let root = serde::Json::parse(&report).expect("report --json parses");
    let keys = |v: &serde::Json| -> Vec<String> {
        v.as_obj()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.clone())
            .collect()
    };
    assert_eq!(
        keys(root.get("results").unwrap()),
        ["files", "events", "dropped", "stages"]
    );
    let metrics = root.get("metrics").unwrap();
    let stages = metrics.get("stages").and_then(serde::Json::as_arr).unwrap();
    assert!(!stages.is_empty(), "{report}");
    for stage in stages {
        assert_eq!(
            keys(stage),
            ["stage", "events", "spans", "p50_us", "p95_us", "max_us"]
        );
    }
    assert_eq!(
        keys(metrics.get("solver").unwrap()),
        ["checks", "memo_hits", "memo_misses"]
    );
}
