//! Table I is pinned byte for byte.
//!
//! `scripts/golden/paper/table1.txt` holds what the `table1` binary
//! prints, followed by `crash-resist discover <server>` for each server
//! (`$ crash-resist discover <server>` heads each block). Both come from
//! the same renderers this test calls, so any change to a cell, a
//! source set, an `-EFAULT` count or a verdict fails here.

use cr_core::report::{render_findings, render_table1_artifact};
use cr_core::syscall_finder::discover_server;

const GOLDEN: &str = include_str!("../../../scripts/golden/paper/table1.txt");

#[test]
fn table1_and_discover_output_match_the_golden() {
    let servers = cr_targets::all_servers();
    let reports: Vec<_> = servers.iter().map(discover_server).collect();
    let mut out = render_table1_artifact(&reports);
    for (target, report) in servers.iter().zip(&reports) {
        out.push_str(&format!("$ crash-resist discover {}\n", target.name));
        out.push_str(&render_findings(report));
    }
    if out != GOLDEN {
        let line = out
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(out.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "Table I diverged from scripts/golden/paper/table1.txt at line {}:\n\
             got:    {:?}\nwanted: {:?}\n\nfull output:\n{out}",
            line + 1,
            out.lines().nth(line),
            GOLDEN.lines().nth(line)
        );
    }
}
