//! Campaign hardening acceptance tests (the cr-chaos tentpole):
//!
//! * corrupt cache lines are quarantined, counted, and recomputed —
//!   never fatal, and only the quarantined entries cost solver time
//!   on the warm rerun;
//! * a save interrupted mid-write (simulated kill) leaves the previous
//!   store intact and loadable — no torn hybrid;
//! * a rerun over a damaged store completes with `degraded: false`.

use cr_campaign::{
    run_campaign, AnalysisCache, CampaignSpec, EngineConfig, CACHE_FILE, QUARANTINE_FILE,
};
use std::path::{Path, PathBuf};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cr-resilience-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn seh_spec() -> CampaignSpec {
    CampaignSpec::builder()
        .name("resilience")
        .seed(2017)
        .seh("xmllite")
        .seh("jscript9")
        .seh("user32")
        .build()
        .expect("resilience spec is valid")
}

fn cfg_for(dir: &Path) -> EngineConfig {
    EngineConfig {
        jobs: 2,
        retries: 0,
        cache_dir: Some(dir.to_path_buf()),
        ..EngineConfig::default()
    }
}

/// Flip one character inside the JSON payload (past the `crc32hex `
/// prefix) of every cache line matching `needle`; returns how many
/// lines were damaged. The CRC then refutes each damaged line.
fn corrupt_matching_lines(dir: &Path, needle: &str) -> u64 {
    let path = dir.join(CACHE_FILE);
    let text = std::fs::read_to_string(&path).expect("cache file present");
    let mut corrupted = 0;
    let lines: Vec<String> = text
        .lines()
        .map(|line| {
            if !line.contains(needle) {
                return line.to_string();
            }
            corrupted += 1;
            let mut bytes = line.as_bytes().to_vec();
            let at = 9 + (bytes.len() - 9) / 2;
            bytes[at] = if bytes[at] == b'#' { b'@' } else { b'#' };
            String::from_utf8(bytes).expect("ascii line")
        })
        .collect();
    std::fs::write(&path, lines.join("\n") + "\n").expect("rewrite cache");
    corrupted
}

#[test]
fn corrupt_records_are_quarantined_and_only_they_are_recomputed() {
    let dir = scratch("quarantine");
    let spec = seh_spec();
    let cfg = cfg_for(&dir);

    let cold = run_campaign(&spec, &cfg).expect("cold run");
    let cold_solver = cold.metrics.solver_calls;
    assert!(!cold.degraded);
    assert!(cold_solver > 0, "cold run must exercise the solver");

    // Damage user32's module summary plus every cached filter verdict.
    // The warm rerun must recompute exactly that: one module analysis,
    // re-solving its filters — while the other two modules are served
    // from their intact summaries without touching the solver.
    let corrupted = corrupt_matching_lines(&dir, "\"module\":\"user32.")
        + corrupt_matching_lines(&dir, "\"kind\":\"filter\"");
    assert!(corrupted >= 2, "spec must have cached filters + user32");

    let warm = run_campaign(&spec, &cfg).expect("warm run over damaged store");
    let warm_solver = warm.metrics.solver_calls;

    assert!(!warm.degraded, "quarantine never degrades the campaign");
    assert_eq!(warm.errors.cache_corrupt, corrupted);
    assert_eq!(warm.metrics.quarantined, corrupted);
    assert_eq!(
        warm.metrics.cache.module_hits, 2,
        "undamaged modules are served from the cache"
    );
    assert_eq!(warm.metrics.cache.module_misses, 1);
    // Cold covers all three modules' filters; warm only user32's. The
    // shared verdict cache dedups content-identical filters across
    // modules, and whether a cold-run race double-solves one is
    // scheduling-dependent — so cold can legitimately equal warm (full
    // dedup, no races), but never be smaller.
    assert!(
        warm_solver > 0 && warm_solver <= cold_solver,
        "recompute pays for the quarantined module only \
         (warm {warm_solver} vs cold {cold_solver} solver calls)"
    );
    assert_eq!(
        warm.records.iter().map(|r| &r.result).collect::<Vec<_>>(),
        cold.records.iter().map(|r| &r.result).collect::<Vec<_>>(),
        "recompute reproduces the cold results"
    );

    let quarantine = std::fs::read_to_string(dir.join(QUARANTINE_FILE)).expect("quarantine file");
    assert_eq!(quarantine.lines().count() as u64, corrupted);

    // The warm save rewrote the store; a final load is clean.
    let reload = AnalysisCache::load(&dir).expect("reload");
    assert_eq!(reload.quarantined(), 0);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn interrupted_save_leaves_previous_store_intact() {
    let dir = scratch("torn-save");
    let spec = seh_spec();
    let cfg = cfg_for(&dir);

    let cold = run_campaign(&spec, &cfg).expect("cold run");
    let saved = std::fs::read_to_string(dir.join(CACHE_FILE)).expect("saved store");

    // Simulate a process killed mid-save: a partial temp file from a
    // dead pid next to the real store. The write-then-rename protocol
    // means the store itself is never a torn hybrid.
    let torn = &saved[..saved.len() / 3];
    std::fs::write(dir.join(format!("{CACHE_FILE}.tmp.99999")), torn).expect("write torn tmp");

    let reload = AnalysisCache::load(&dir).expect("load ignores stray tmp files");
    assert_eq!(reload.quarantined(), 0, "the store itself is not torn");

    let rerun = run_campaign(&spec, &cfg).expect("rerun after simulated kill");
    assert!(!rerun.degraded, "rerun completes with full coverage");
    assert_eq!(rerun.errors.cache_corrupt, 0);
    assert_eq!(
        rerun.metrics.cache.module_hits, 3,
        "every module is served from the intact store"
    );
    assert_eq!(
        rerun.records.iter().map(|r| &r.result).collect::<Vec<_>>(),
        cold.records.iter().map(|r| &r.result).collect::<Vec<_>>(),
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn garbage_suffix_in_store_is_not_fatal_to_a_campaign() {
    let dir = scratch("garbage");
    let spec = seh_spec();
    let cfg = cfg_for(&dir);

    run_campaign(&spec, &cfg).expect("cold run");

    // A hard kill while something else appended (or disk corruption):
    // a half-written garbage tail plus a bare torn JSON fragment.
    let path = dir.join(CACHE_FILE);
    let mut text = std::fs::read_to_string(&path).unwrap();
    text.push_str("deadbeef {\"kind\":\"module\",\"key\":\"tor\n");
    text.push_str("\x00\x01garbage\n");
    std::fs::write(&path, text).unwrap();

    let report = run_campaign(&spec, &cfg).expect("campaign survives garbage lines");
    assert!(!report.degraded);
    assert_eq!(report.errors.cache_corrupt, 2);
    assert_eq!(report.metrics.quarantined, 2);
    assert!(report.records.iter().all(|r| r.result.is_some()));

    let _ = std::fs::remove_dir_all(&dir);
}
