//! Fresh child processes of the benchmark binary.
//!
//! The term interner and the query memo are process-global, so work
//! that must start cold runs in a child: `cr-benchmark --child <mode>`.
//! A child writes two lines to stdout: `ready` once it is set up, then
//! one JSON object with its numbers.

use cr_campaign::json::Json;
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// What one child reported.
pub struct Child {
    /// Spawn to `ready`.
    pub setup: Duration,
    doc: Json,
}

impl Child {
    /// An unsigned field of the report (0 when absent).
    pub fn u(&self, key: &str) -> u64 {
        self.doc.get(key).and_then(Json::as_u64).unwrap_or(0)
    }

    /// A numeric field of the report (0 when absent).
    pub fn f(&self, key: &str) -> f64 {
        match self.doc.get(key) {
            Some(Json::Float(x)) => *x,
            Some(v) => v.as_u64().map_or(0.0, |n| n as f64),
            None => 0.0,
        }
    }

    /// An array of unsigned integers, as floats.
    pub fn list(&self, key: &str) -> Vec<f64> {
        self.doc
            .get(key)
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(Json::as_u64)
            .map(|v| v as f64)
            .collect()
    }

    /// The child's failure reasons.
    pub fn why(&self) -> Vec<String> {
        self.doc
            .get("why")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|v| v.as_str().map(str::to_string))
            .collect()
    }
}

/// Arguments for child `mode` at `seed`, plus extra flag/value pairs.
pub fn args(mode: &str, seed: u64, extra: &[(&str, String)]) -> Vec<String> {
    let mut v = vec![mode.to_string(), "--seed".into(), seed.to_string()];
    for (k, val) in extra {
        v.push((*k).to_string());
        v.push(val.clone());
    }
    v
}

/// Run `cr-benchmark --child <args>` to completion and wait for it,
/// timing spawn to its `ready` line.
pub fn spawn(args: &[String]) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let started = Instant::now();
    let mut child = Command::new(exe)
        .arg("--child")
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn child: {e}"))?;
    let outcome = {
        let mut lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
        let mut next = || match lines.next() {
            Some(Ok(line)) => Ok(line),
            other => Err(format!("child {args:?} ended early: {other:?}")),
        };
        match next() {
            Ok(ready) if ready == "ready" => {
                let setup = started.elapsed();
                next()
                    .and_then(|line| Json::parse(&line))
                    .map(|doc| Child { setup, doc })
            }
            Ok(other) => Err(format!("child {args:?} said {other:?}, not ready")),
            Err(e) => Err(e),
        }
    };
    // The pipe is closed by now, so a child that kept writing ends.
    let status = child.wait().map_err(|e| e.to_string())?;
    let result = outcome?;
    if !status.success() {
        return Err(format!("child {args:?} exited with {status}"));
    }
    Ok(result)
}

/// Child side: announce that set-up is done.
pub fn say_ready() {
    let mut out = std::io::stdout().lock();
    writeln!(out, "ready")
        .and_then(|()| out.flush())
        .expect("stdout");
}

/// Child side: print the report object from pre-rendered JSON values.
pub fn emit(fields: &[(&str, String)]) {
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    println!("{{{}}}", body.join(","));
}

/// Render integers as a JSON array.
pub fn list(values: impl Iterator<Item = u64>) -> String {
    let v: Vec<String> = values.map(|x| x.to_string()).collect();
    format!("[{}]", v.join(","))
}
