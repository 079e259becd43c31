//! Print the paper's artifacts (EXPERIMENTS.md E1–E12 and the ablations).
//!
//! `paper <id>` prints one artifact, byte for byte as pinned in
//! `scripts/golden/paper/<name>.txt`; the id is `E1`…`E12` or
//! `ablations`. With no argument every artifact is printed in order,
//! each under a `$ paper <id>` header line. An unknown id exits 2.

use std::io::Write;
use std::process::ExitCode;

use cr_bench::paper::ARTIFACTS;

fn usage() -> String {
    let ids: Vec<String> = ARTIFACTS
        .iter()
        .map(|a| format!("  {:<10} {}", a.id, a.name))
        .collect();
    format!("USAGE: paper [<id>]\n\nartifacts:\n{}\n", ids.join("\n"))
}

/// Write `text` to stdout. A reader that closes the pipe early
/// (`paper | head`) ends the run with exit 1, not a panic.
fn emit(text: &str) -> ExitCode {
    match std::io::stdout().lock().write_all(text.as_bytes()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(_) => ExitCode::FAILURE,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => emit(
            &ARTIFACTS
                .iter()
                .map(|a| format!("$ paper {}\n{}", a.id, (a.render)()))
                .collect::<String>(),
        ),
        [flag] if flag == "-h" || flag == "--help" => emit(&usage()),
        [id] => match ARTIFACTS.iter().find(|a| a.id == id) {
            Some(a) => emit(&(a.render)()),
            None => {
                eprint!("unknown artifact {id:?}\n\n{}", usage());
                ExitCode::from(2)
            }
        },
        _ => {
            eprint!("{}", usage());
            ExitCode::from(2)
        }
    }
}
