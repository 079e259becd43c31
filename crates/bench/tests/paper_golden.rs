//! Every paper artifact is pinned byte for byte.
//!
//! `scripts/golden/paper/<name>.txt` holds each artifact of
//! `cr_bench::paper::ARTIFACTS` — E1 is Table I followed by
//! `crash-resist discover <server>` for every server, E3 is Table III,
//! and so on. Any change to a cell, a count, a probe or a verdict fails
//! here, and so does a `paper` binary that prints anything else.

use std::path::PathBuf;
use std::process::Command;

use cr_bench::paper::ARTIFACTS;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scripts/golden/paper")
}

fn golden(name: &str) -> String {
    let path = golden_dir().join(format!("{name}.txt"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// `None` when `got == wanted`, else where and how they first differ.
fn divergence(got: &str, wanted: &str) -> Option<String> {
    if got == wanted {
        return None;
    }
    let line = got
        .lines()
        .zip(wanted.lines())
        .position(|(a, b)| a != b)
        .unwrap_or(got.lines().count().min(wanted.lines().count()));
    Some(format!(
        "diverged at line {}:\ngot:    {:?}\nwanted: {:?}\n\nfull output:\n{got}",
        line + 1,
        got.lines().nth(line),
        wanted.lines().nth(line)
    ))
}

fn paper(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(args)
        .output()
        .expect("spawn paper");
    (
        out.status.code().expect("exit code"),
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn every_artifact_matches_its_golden() {
    let mut failures = Vec::new();
    for a in ARTIFACTS {
        if let Some(why) = divergence(&(a.render)(), &golden(a.name)) {
            failures.push(format!(
                "{} diverged from scripts/golden/paper/{}.txt — {why}",
                a.id, a.name
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}

#[test]
fn every_golden_belongs_to_an_artifact() {
    for entry in std::fs::read_dir(golden_dir()).expect("golden dir") {
        let file = entry.expect("dir entry").file_name();
        let file = file.to_string_lossy();
        assert!(
            ARTIFACTS.iter().any(|a| file == format!("{}.txt", a.name)),
            "scripts/golden/paper/{file} is not rendered by any artifact"
        );
    }
}

#[test]
fn paper_without_arguments_prints_every_golden_under_its_header() {
    let (code, stdout, stderr) = paper(&[]);
    assert_eq!(code, 0, "{stderr}");
    let wanted: String = ARTIFACTS
        .iter()
        .map(|a| format!("$ paper {}\n{}", a.id, golden(a.name)))
        .collect();
    if let Some(why) = divergence(&stdout, &wanted) {
        panic!("`paper` {why}");
    }
}

#[test]
fn paper_exit_codes() {
    let (code, stdout, _) = paper(&["E3"]);
    assert_eq!(code, 0);
    assert_eq!(stdout, golden("table3"));

    let (code, stdout, stderr) = paper(&["no-such-id"]);
    assert_eq!(code, 2);
    assert!(stdout.is_empty());
    for a in ARTIFACTS {
        assert!(stderr.contains(a.id), "usage lists {}: {stderr}", a.id);
    }

    let (code, stdout, _) = paper(&["--help"]);
    assert_eq!(code, 0);
    assert!(stdout.starts_with("USAGE: paper"));

    let (code, _, _) = paper(&["E1", "E2"]);
    assert_eq!(code, 2);

    // A reader that is already gone (`paper | head` after head exits):
    // the write fails and the run exits 1 without a panic.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_paper"))
        .arg("--help")
        .stdout(writer)
        .output()
        .expect("spawn paper");
    assert_eq!(out.status.code(), Some(1));
    assert!(
        out.stderr.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
