//! Regenerate **Table I**: crash-resistant syscall candidates across the
//! five server applications.

use cr_core::report::render_table1_artifact;
use cr_core::syscall_finder::discover_server;

fn main() {
    let mut reports = Vec::new();
    for target in cr_targets::all_servers() {
        eprintln!("[table1] discovering on {} ...", target.name);
        reports.push(discover_server(&target));
    }
    print!("{}", render_table1_artifact(&reports));
}
