//! Exit-code contract of the `crash-resist` binary:
//! `0` success, `1` runtime failure, `2` usage error, `3` unknown
//! target. Only fast code paths are exercised — no analysis runs.

use std::process::Command;

fn run(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_crash-resist"))
        .args(args)
        .env_remove("CR_SEED")
        .output()
        .expect("spawn crash-resist");
    (
        out.status.code().expect("exit code"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn help_paths_exit_zero() {
    for args in [
        &[] as &[&str],
        &["help"],
        &["--help"],
        &["campaign", "--help"],
        &["discover", "--help"],
        &["serve", "-h"],
    ] {
        let (code, stdout, _) = run(args);
        assert_eq!(code, 0, "{args:?}");
        assert!(stdout.contains("USAGE"), "{args:?}");
    }
}

#[test]
fn verb_help_comes_from_the_flag_table() {
    for verb in [
        "discover", "analyze", "explore", "cfg", "scan", "funnel", "poc", "campaign", "arena",
        "chaos", "serve", "fleet", "client", "report", "list",
    ] {
        let (code, stdout, _) = run(&[verb, "--help"]);
        assert_eq!(code, 0, "{verb} --help");
        assert!(
            stdout.contains(&format!("crash-resist {verb}")),
            "{verb} --help: {stdout}"
        );
    }
    // Each verb prints its own flags only.
    let (_, serve, _) = run(&["serve", "--help"]);
    assert!(serve.contains("--capacity"), "{serve}");
    assert!(!serve.contains("--workers"), "{serve}");
}

#[test]
fn usage_errors_exit_two() {
    let cases: &[&[&str]] = &[
        &["bogus-verb"],
        &["discover"],
        &["analyze"],
        &["cfg"],
        &["poc"],
        &["poc", "ie", "not-hex"],
        &["funnel", "not-a-number"],
        &["campaign", "--bogus-flag"],
        &["campaign", "--jobs"],
        &["campaign", "--jobs", "many"],
        &["campaign", "--spec", "/nonexistent/spec.json"],
        // Exploration is sequential; neither worker-count flag exists.
        &["explore", "loopy", "--jobs", "2"],
        &["campaign", "--symex-jobs", "2"],
        &["arena", "--bogus-flag"],
        // --summary-json and --plan are chaos-only; arena must reject them.
        &["arena", "--summary-json"],
        &["arena", "--plan", "mayhem"],
        // Positional verbs reject surplus operands and unknown flags.
        &["discover", "nginx", "extra"],
        &["funnel", "10", "extra"],
        &["poc", "ie", "1000", "extra"],
        &["discover", "--bogus"],
        &["cfg", "nginx", "--json"],
    ];
    for args in cases {
        let (code, _, stderr) = run(args);
        assert_eq!(code, 2, "{args:?} -> stderr: {stderr}");
    }
}

#[test]
fn unknown_targets_exit_three() {
    let cases: &[&[&str]] = &[
        &["discover", "apache"],
        &["analyze", "no-such-dll"],
        &["cfg", "apache"],
        &["poc", "chrome", "1000"],
    ];
    for args in cases {
        let (code, _, stderr) = run(args);
        assert_eq!(code, 3, "{args:?} -> stderr: {stderr}");
        assert!(stderr.contains("unknown"), "{args:?}");
    }
}

#[test]
fn list_rows_are_aligned() {
    let (code, stdout, _) = run(&["list"]);
    assert_eq!(code, 0);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 4);
    // Every row's first name starts in the same column.
    let cols: Vec<usize> = lines
        .iter()
        .map(|l| {
            let after = l.split_once(':').expect("label").1;
            l.len() - after.trim_start().len()
        })
        .collect();
    assert!(
        cols.windows(2).all(|w| w[0] == w[1]),
        "misaligned list: {stdout}"
    );
    assert!(lines[1].contains("user32"));
    assert!(lines[3].contains("mayhem"));
}

#[test]
fn chaos_usage_and_unknown_plan_exit_codes() {
    let cases: &[&[&str]] = &[
        &["chaos", "--bogus-flag"],
        &["chaos", "--plan"],
        &["chaos", "--jobs", "many"],
    ];
    for args in cases {
        let (code, _, stderr) = run(args);
        assert_eq!(code, 2, "{args:?} -> stderr: {stderr}");
    }
    let (code, _, stderr) = run(&["chaos", "--plan", "no-such-plan"]);
    assert_eq!(code, 3, "stderr: {stderr}");
    assert!(stderr.contains("unknown fault plan"));
}

#[test]
fn campaign_rejects_summary_json_flag() {
    // --summary-json is chaos-only; campaign must reject it.
    let (code, _, stderr) = run(&["campaign", "--summary-json"]);
    assert_eq!(code, 2, "stderr: {stderr}");
}

#[test]
fn campaign_rejects_malformed_spec_files() {
    let dir = std::env::temp_dir().join(format!("cr-cli-spec-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.json");
    std::fs::write(&path, "{\"tasks\": [{\"Nope\": 1}]}").unwrap();
    let (code, _, stderr) = run(&["campaign", "--spec", path.to_str().unwrap()]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("bad spec"));
    std::fs::remove_dir_all(&dir).unwrap();
}
