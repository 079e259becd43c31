//! The `explore loopy --json` report, byte for byte: per-filter path
//! verdicts, path/prune/step counts and the solver/memo counters. Runs
//! the binary in a fresh process so the counters see a cold memo, the
//! same way `scripts/check.sh` produces them.

use std::process::Command;

#[test]
fn explore_loopy_json_matches_the_golden() {
    let out = Command::new(env!("CARGO_BIN_EXE_crash-resist"))
        .args(["explore", "loopy", "--json"])
        .env_remove("CR_SEED")
        .output()
        .expect("spawn crash-resist");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scripts/golden/explore_smoke.json"
    );
    let want = std::fs::read_to_string(golden).expect("read the explore golden");
    let got = String::from_utf8(out.stdout).expect("utf-8 report");
    assert_eq!(got, want, "explore report diverged from {golden}");
    assert!(
        got.contains(r#""solver_calls":537,"memo_lookups":402,"memo_hits":64"#),
        "solver/memo metrics moved: {got}"
    );
}
