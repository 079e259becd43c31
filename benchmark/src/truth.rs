//! Ground truth for every output the benchmark checks. The expected
//! values are written out here from the paper's tables and the
//! calibrated story; none is read from the code under test.

use cr_arena::{ArenaSummary, DetectorKind};
use cr_campaign::{CampaignReport, SehSummary, TaskResult};

/// §V-C totals over the 187-module population: C-specific handlers,
/// distinct filters, filters surviving symbolic execution, AV-capable
/// handlers.
pub const SEH_TOTALS: (usize, usize, usize, usize) = (6_745, 5_751, 808, 1_797);

/// Tables II/III, x64 rows: (module, handlers, AV-capable handlers,
/// filters, surviving filters).
pub const CALIBRATED_ROWS: [(&str, usize, usize, usize, usize); 10] = [
    ("user32", 70, 63, 9, 4),
    ("kernel32", 76, 66, 60, 12),
    ("msvcrt", 129, 10, 129, 9),
    ("jscript9", 22, 6, 29, 6),
    ("rpcrt4", 62, 20, 62, 20),
    ("sechost", 133, 11, 126, 4),
    ("ws2_32", 82, 29, 55, 25),
    ("xmllite", 10, 2, 10, 0),
    ("kernelbase", 60, 24, 54, 21),
    ("ntdll", 90, 30, 71, 25),
];

/// The loopy family's four filters and whether each accepts an access
/// violation (spill_widen, shrink_loop_reject, shrink_loop_accept,
/// chain_exclude_av).
pub const LOOPY_ACCEPTS: [bool; 4] = [false, false, true, false];

/// Check one task result against its per-task ground truth.
pub fn check_task(result: &TaskResult) -> Result<(), String> {
    match result {
        TaskResult::Server { server, usable, .. } if *usable == 0 => {
            Err(format!("server {server}: no usable primitive"))
        }
        TaskResult::Poc {
            oracle,
            located,
            crashed,
            ..
        } if !located || *crashed => {
            Err(format!("poc {oracle}: located={located} crashed={crashed}"))
        }
        TaskResult::Seh { summary, .. } => check_seh_row(summary),
        TaskResult::Arena { summary, .. } => check_arena(summary),
        _ => Ok(()),
    }
}

/// A summary's module name without the `.dll` suffix the image
/// carries.
fn module_name(s: &SehSummary) -> &str {
    s.module.strip_suffix(".dll").unwrap_or(&s.module)
}

fn check_seh_row(s: &SehSummary) -> Result<(), String> {
    let got = (
        s.guarded_before,
        s.guarded_after,
        s.filters_before,
        s.filters_after,
    );
    if module_name(s) == "loopy" {
        let accepting = LOOPY_ACCEPTS.iter().filter(|a| **a).count();
        let want = (
            LOOPY_ACCEPTS.len(),
            accepting,
            LOOPY_ACCEPTS.len(),
            accepting,
        );
        if got != want || s.filters_undecided != 0 {
            return Err(format!(
                "loopy: got {got:?} undecided={}, want {want:?}",
                s.filters_undecided
            ));
        }
        return Ok(());
    }
    match CALIBRATED_ROWS.iter().find(|r| r.0 == module_name(s)) {
        Some(&(m, gb, ga, fb, fa)) if got != (gb, ga, fb, fa) => {
            Err(format!("{m}: got {got:?}, want {:?}", (gb, ga, fb, fa)))
        }
        _ => Ok(()),
    }
}

/// The arena headline: stealth evades the rate threshold, CUSUM
/// catches every round, the serving-phase filter blocks every
/// escalation (three per round), and no detector raises a false
/// positive on the benign workload.
pub fn check_arena(s: &ArenaSummary) -> Result<(), String> {
    let cell = |d: DetectorKind| {
        s.pair(d)
            .ok_or_else(|| format!("arena {}: no {} cell", s.strategy, d.name()))
    };
    let rate = cell(DetectorKind::Rate)?;
    let cusum = cell(DetectorKind::Cusum)?;
    let filter = cell(DetectorKind::Filter)?;
    let fail = |what: &str| Err(format!("arena {}: {what}", s.strategy));
    if s.strategy == "stealth" && rate.detected_rounds != 0 {
        return fail("stealth tripped the rate threshold");
    }
    if cusum.detected_rounds != s.rounds {
        return fail("CUSUM missed a round");
    }
    if filter.detected_rounds != s.rounds || filter.blocked_escalations != 3 * s.rounds as u64 {
        return fail("the serving filter let an escalation through");
    }
    if s.pairs.iter().any(|p| p.false_positives != 0) {
        return fail("false positive on the benign workload");
    }
    Ok(())
}

/// Every task of `report` has a result that passes its per-task check.
pub fn check_campaign_tasks(report: &CampaignReport) -> Result<(), String> {
    for r in &report.records {
        match &r.result {
            None => return Err(format!("{}: {:?}", r.label, r.error)),
            Some(res) => check_task(res)?,
        }
    }
    Ok(())
}

/// Check the 187-module totals over every non-loopy SEH summary.
pub fn check_seh_totals<'a>(rows: impl Iterator<Item = &'a SehSummary>) -> Result<(), String> {
    let mut t = (0, 0, 0, 0);
    let mut modules = 0;
    for s in rows.filter(|s| module_name(s) != "loopy") {
        modules += 1;
        t.0 += s.guarded_before;
        t.1 += s.filters_before;
        t.2 += s.filters_after;
        t.3 += s.guarded_after;
    }
    if modules != 187 || t != SEH_TOTALS {
        return Err(format!(
            "SEH totals over {modules} modules: got {t:?}, want {SEH_TOTALS:?}"
        ));
    }
    Ok(())
}

/// Check a whole campaign report: every task has a result that passes
/// its per-task check, and the SEH rows add up to the §V-C totals.
/// Returns the number of failed tasks with the first few reasons.
pub fn check_campaign(report: &CampaignReport) -> (usize, Vec<String>) {
    let mut failed = 0;
    let mut why = Vec::new();
    let mut note = |failed: &mut usize, n: usize, reason: String| {
        *failed += n;
        if why.len() < 5 {
            why.push(reason);
        }
    };
    for r in &report.records {
        match &r.result {
            None => note(&mut failed, 1, format!("{}: {:?}", r.label, r.error)),
            Some(res) => {
                if let Err(e) = check_task(res) {
                    note(&mut failed, 1, e);
                }
            }
        }
    }
    let seh: Vec<&SehSummary> = report
        .records
        .iter()
        .filter_map(|r| match &r.result {
            Some(TaskResult::Seh { summary, .. }) => Some(summary),
            _ => None,
        })
        .collect();
    if let Err(e) = check_seh_totals(seh.iter().copied()) {
        note(&mut failed, seh.len(), e);
    }
    // Every calibrated row and the loopy module must have been checked,
    // not skipped for want of a name match.
    let named = |n: &str| seh.iter().filter(|s| module_name(s) == n).count();
    let rows = CALIBRATED_ROWS.iter().filter(|r| named(r.0) == 1).count();
    if rows != CALIBRATED_ROWS.len() || named("loopy") != 1 {
        note(
            &mut failed,
            1,
            format!("found {rows} calibrated rows and {} loopy", named("loopy")),
        );
    }
    (failed, why)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_campaign::{run_campaign, EngineConfig};

    /// The ground-truth checks pass on the cold campaign at several
    /// seeds (one serial run each).
    #[test]
    fn ground_truth_holds_at_three_seeds() {
        for seed in [1, 99, 31337] {
            let spec = crate::gen::campaign_spec(seed);
            let report = run_campaign(&spec, &EngineConfig::default()).expect("in-memory cache");
            let (failed, why) = check_campaign(&report);
            assert_eq!(failed, 0, "seed {seed}: {why:?}");
        }
    }

    #[test]
    fn a_wrong_row_is_caught() {
        let mut s = SehSummary {
            module: "user32.dll".into(),
            is_x64: true,
            guarded_before: 70,
            guarded_after: 63,
            filters_before: 9,
            filters_after: 4,
            filters_undecided: 0,
        };
        assert!(check_seh_row(&s).is_ok());
        s.filters_after = 5;
        assert!(check_seh_row(&s).is_err());
        assert!(check_seh_totals(std::iter::once(&s)).is_err());
    }
}
