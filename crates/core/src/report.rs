//! Rendering of the paper's tables from discovery output.

use crate::api_fuzzer::FunnelReport;
use crate::seh::ModuleSehAnalysis;
use crate::syscall_finder::{Classification, ServerReport};
use cr_os::linux::syscall::{self, TABLE1_SYSCALLS};
use std::collections::HashMap;

/// Cell symbols for Table I.
///
/// * `±`  — candidate; invalidation crashes the server.
/// * `(+)` — usable crash-resistant primitive (framework verdict) whose
///   service survives manual verification (the paper's green circled +).
/// * `+!` — framework says usable, manual verification shows the service
///   died (the paper's red plus — Memcached's `epoll_wait`).
/// * `·`  — the syscall was not observed during the test run.
/// * `-`  — observed, but no attacker-controllable pointer argument.
/// * `?`  — candidate never re-triggered during invalidation.
pub fn table1_cell(report: &ServerReport, sc: u64) -> &'static str {
    match report.finding(sc).map(|f| f.classification) {
        Some(Classification::CrashesOnInvalidation) => "±",
        Some(Classification::Usable {
            service_after: true,
        }) => "(+)",
        Some(Classification::Usable {
            service_after: false,
        }) => "+!",
        Some(Classification::NotRetriggered) => "?",
        None if report.observed_syscalls.contains(&sc) => "-",
        None => "·",
    }
}

/// Render Table I (syscall candidates × servers).
pub fn render_table1(reports: &[ServerReport]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{:<12}", "syscall"));
    for r in reports {
        out.push_str(&format!("{:>12}", r.server));
    }
    out.push('\n');
    for &sc in TABLE1_SYSCALLS {
        out.push_str(&format!("{:<12}", syscall::name(sc)));
        for r in reports {
            out.push_str(&format!("{:>12}", table1_cell(r, sc)));
        }
        out.push('\n');
    }
    out.push_str(
        "\nlegend: ± candidate, crashes on invalidation; (+) usable; \
                  +! usable per framework but service dead (false positive);\n\
                  - observed, pointer not controllable; · not observed; ? not re-triggered\n",
    );
    out
}

/// The banner every paper-artifact binary prints above its output.
pub fn banner(title: &str) -> String {
    let rule = "=".repeat(72);
    format!("{rule}\n{title}\n{rule}\n")
}

/// The head of artifact E1 (`paper E1`) for `reports`: the banner, Table I
/// and every usable primitive with its source cells.
pub fn render_table1_artifact(reports: &[ServerReport]) -> String {
    let mut out = banner("Table I — syscall probing candidates (Linux servers)");
    out.push_str(&render_table1(reports));
    out.push_str("\nusable primitives found by the framework:\n");
    for r in reports {
        for f in r.usable() {
            out.push_str(&format!(
                "  {:<12} {:<12} arg {}  sources {:x?}  (service alive after: {})\n",
                r.server,
                f.syscall_name,
                f.arg_index,
                f.sources,
                f.classification
                    == Classification::Usable {
                        service_after: true
                    }
            ));
        }
    }
    out
}

/// `crash-resist discover`'s output for one server: a line per finding
/// (sources, input taint, `-EFAULT` count, verdict) and the usable count.
pub fn render_findings(report: &ServerReport) -> String {
    let mut out = String::new();
    for f in &report.findings {
        let verdict = match f.classification {
            Classification::CrashesOnInvalidation => "crashes-on-invalidation",
            Classification::Usable {
                service_after: true,
            } => "USABLE",
            Classification::Usable {
                service_after: false,
            } => "usable(FALSE-POSITIVE)",
            Classification::NotRetriggered => "not-retriggered",
        };
        out.push_str(&format!(
            "{:<12} arg{} sources={:x?} net-tainted={} efaults={} -> {}\n",
            f.syscall_name, f.arg_index, f.sources, f.tainted_by_input, f.efaults_observed, verdict
        ));
    }
    out.push_str(&format!("{} usable primitive(s)\n", report.usable().len()));
    out
}

/// Render Table II (guarded code locations per DLL).
pub fn render_table2(rows: &[(ModuleSehAnalysis, usize)]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<14}{:>14}{:>14}{:>18}\n",
        "DLL", "guarded (pre)", "after symex", "on exec path"
    ));
    for (a, on_path) in rows {
        out.push_str(&format!(
            "{:<14}{:>14}{:>14}{:>18}\n",
            a.module.trim_end_matches(".dll"),
            a.guarded_before,
            a.guarded_after,
            on_path
        ));
    }
    out
}

/// Render Table III (unique exception filters before/after symex,
/// x64 and x86 containers).
pub fn render_table3(x64: &[ModuleSehAnalysis], x86: &[ModuleSehAnalysis]) -> String {
    let by_name: HashMap<&str, &ModuleSehAnalysis> =
        x86.iter().map(|a| (a.module.as_str(), a)).collect();
    let mut out = String::new();
    out.push_str(&format!(
        "{:<14}{:>12}{:>12}{:>12}{:>12}\n",
        "DLL", "x64 pre", "x64 post", "x86 pre", "x86 post"
    ));
    for a in x64 {
        let (b86, a86) = by_name
            .get(a.module.as_str())
            .map(|m| (m.filters_before, m.filters_after))
            .unwrap_or((0, 0));
        out.push_str(&format!(
            "{:<14}{:>12}{:>12}{:>12}{:>12}\n",
            a.module.trim_end_matches(".dll"),
            a.filters_before,
            a.filters_after,
            b86,
            a86
        ));
    }
    out
}

/// Render the §V-B API funnel.
pub fn render_funnel(f: &FunnelReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "API functions in corpus:          {:>8}\n",
        f.total
    ));
    out.push_str(&format!(
        "  with pointer arguments:         {:>8}  ({:.1}%)\n",
        f.with_pointer_args,
        100.0 * f.with_pointer_args as f64 / f.total as f64
    ));
    out.push_str(&format!(
        "  crash-resistant after fuzzing:  {:>8}\n",
        f.crash_resistant
    ));
    out.push_str(&format!(
        "  on browse execution path:       {:>8}\n",
        f.on_execution_path
    ));
    out.push_str(&format!(
        "  triggered from JS context:      {:>8}\n",
        f.js_reachable
    ));
    out.push_str(&format!(
        "  with controllable pointer arg:  {:>8}\n",
        f.usable
    ));
    out.push_str("  exclusion reasons:\n");
    for (k, v) in &f.exclusions {
        out.push_str(&format!("    {k:<28}{v:>8}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syscall_finder::SyscallFinding;
    use cr_os::linux::syscall::nr;

    fn fake_report() -> ServerReport {
        ServerReport {
            server: "nginx".into(),
            observed_syscalls: vec![nr::READ, nr::RECVFROM, nr::OPEN],
            findings: vec![
                SyscallFinding {
                    syscall: nr::RECVFROM,
                    syscall_name: "recv".into(),
                    arg_index: 1,
                    sources: vec![0x60_0110],
                    tainted_by_input: false,
                    classification: Classification::Usable {
                        service_after: true,
                    },
                    efaults_observed: 1,
                },
                SyscallFinding {
                    syscall: nr::OPEN,
                    syscall_name: "open".into(),
                    arg_index: 0,
                    sources: vec![0x60_0020],
                    tainted_by_input: false,
                    classification: Classification::CrashesOnInvalidation,
                    efaults_observed: 0,
                },
            ],
        }
    }

    #[test]
    fn table1_cells() {
        let r = fake_report();
        assert_eq!(table1_cell(&r, nr::RECVFROM), "(+)");
        assert_eq!(table1_cell(&r, nr::OPEN), "±");
        assert_eq!(table1_cell(&r, nr::READ), "-");
        assert_eq!(table1_cell(&r, nr::CHMOD), "·");
    }

    #[test]
    fn table1_renders_all_rows() {
        let out = render_table1(&[fake_report()]);
        for &sc in TABLE1_SYSCALLS {
            assert!(out.contains(syscall::name(sc)), "{}", syscall::name(sc));
        }
        assert!(out.contains("nginx"));
    }
}
