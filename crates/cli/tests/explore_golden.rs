//! JSON reports, byte for byte, against the goldens under
//! `scripts/golden/`:
//!
//! * `explore loopy --json`: per-filter path verdicts, path/prune/step
//!   counts and the solver/memo counters;
//! * `arena --json`: the §VII-C strategy × detector matrix.
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
