//! The crash-resist repository benchmark.
//!
//! ```text
//! cr-benchmark --workload <campaign-cold|serve-mixed|fleet-warm>
//!              --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds its inputs from the seed, measures for the given number of
//! seconds, checks every output against ground truth, and prints one
//! JSON object as the last line of stdout:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the
//! per-layer ones. Progress and sample counts go to stderr. See
//! `WORKLOADS.md` for what each workload and metric means.

mod campaign_cold;
mod child;
mod gen;
mod measure;
mod traffic;
mod truth;

use std::collections::BTreeMap;
use traffic::Tier;

/// End-to-end metrics: every untraced run prints each of them.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("throughput_rps", "1/s"),
    ("lookup_p50_ms", "ms"),
    ("lookup_p99_ms", "ms"),
    ("compute_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: every traced run prints each of them; a layer a
/// workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 61] = [
    ("failed_share", "share"),
    ("targets.generate_ms", "ms"),
    ("image.parse_ms", "ms"),
    ("image.mb_per_s", "MB/s"),
    ("vm.run_ms", "ms"),
    ("vm.mips", "Minstr/s"),
    ("taint.observe_ms", "ms"),
    ("taint.overhead_x", "x"),
    ("taint.propagations", "count"),
    ("core.invalidate_ms", "ms"),
    ("core.funnel_ms", "ms"),
    ("symex.analyze_ms", "ms"),
    ("symex.filter_hit_share", "share"),
    ("symex.solver_calls", "count"),
    ("symex.paths_completed", "count"),
    ("symex.paths_pruned", "count"),
    ("scan.elf_ms", "ms"),
    ("scan.sites_per_s", "1/s"),
    ("exploits.scan_ms", "ms"),
    ("exploits.probes_per_s", "1/s"),
    ("arena.run_ms", "ms"),
    ("arena.probes_per_s", "1/s"),
    ("campaign.engine_ms", "ms"),
    ("campaign.pool_utilization", "share"),
    ("campaign.tail_task_ms", "ms"),
    ("campaign.cache_misses", "count"),
    ("campaign.cache_hits", "count"),
    ("serve.admit_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.execute_lookup_ms", "ms"),
    ("serve.execute_compute_ms", "ms"),
    ("serve.respond_ms", "ms"),
    ("serve.ping_rtt_ms", "ms"),
    ("serve.queue_depth", "count"),
    ("serve.busy_rejections", "count"),
    ("fleet.admit_ms", "ms"),
    ("fleet.dispatch_ms", "ms"),
    ("fleet.worker_execute_ms", "ms"),
    ("fleet.respond_ms", "ms"),
    ("fleet.ping_rtt_ms", "ms"),
    ("fleet.coalesced_share", "share"),
    ("fleet.failovers", "count"),
    ("fleet.replications", "count"),
    ("self.targets_ms", "ms"),
    ("self.image_ms", "ms"),
    ("self.vm_ms", "ms"),
    ("self.taint_ms", "ms"),
    ("self.core_ms", "ms"),
    ("self.funnel_ms", "ms"),
    ("self.symex_ms", "ms"),
    ("self.scan_ms", "ms"),
    ("self.exploits_ms", "ms"),
    ("self.arena_ms", "ms"),
    ("self.checks_ms", "ms"),
    ("replay.wall_ms", "ms"),
    ("request.latency_ms", "ms"),
    ("unattributed_ms", "ms"),
    ("unattributed_share", "share"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_share", "share"),
    ("trace.samples", "count"),
];

/// Named metric values of one run.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    /// Record `name`; it must be one of the declared metrics.
    pub fn set(&mut self, name: &str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|m| m.0 == name),
            "undeclared metric {name}"
        );
        self.0.insert(name.to_string(), value);
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (tasks or requests, set-up included).
    pub attempted: u64,
    /// Operations that errored, were refused, or gave a wrong result.
    pub failed: u64,
    /// Measured values.
    pub metrics: Metrics,
    /// Sample count behind each timing, for the stderr summary.
    pub samples: Vec<(&'static str, usize)>,
    /// The first few failure reasons.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Keep a failure reason (the first ten are enough to debug).
    pub fn note(&mut self, why: String) {
        if self.notes.len() < 10 {
            self.notes.push(why);
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    child: Option<String>,
    jobs: usize,
    spans: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        child: None,
        jobs: campaign_cold::JOBS,
        spans: true,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let num = |v: String| v.parse::<u64>().map_err(|e| format!("{flag} {v:?}: {e}"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = num(value()?)?,
            "--seconds" => a.seconds = num(value()?)?,
            "--trace" => a.trace = num(value()?)? != 0,
            "--child" => a.child = Some(value()?),
            "--jobs" => a.jobs = num(value()?)? as usize,
            "--spans" => a.spans = num(value()?)? != 0,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn tier(workload: &str) -> Result<Tier, String> {
    match workload {
        "serve-mixed" => Ok(Tier::Serve),
        "fleet-warm" => Ok(Tier::Fleet),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn run(a: &Args) -> Result<Outcome, String> {
    match (a.workload.as_str(), a.trace) {
        ("campaign-cold", false) => campaign_cold::run(a.seed, a.seconds),
        ("campaign-cold", true) => campaign_cold::run_traced(a.seed, a.seconds),
        (w, false) => traffic::run(tier(w)?, a.seed, a.seconds),
        (w, true) => traffic::run_traced(tier(w)?, a.seed, a.seconds),
    }
}

fn run_child(a: &Args, mode: &str) -> Result<(), String> {
    match mode {
        "campaign" => campaign_cold::child_campaign(a.seed, a.jobs),
        "replay" => campaign_cold::child_replay(a.seed, a.spans),
        "phase" => traffic::child_phase(tier(&a.workload)?, a.seed, a.seconds),
        other => Err(format!("unknown child mode {other:?}")),
    }
}

fn result_line(out: &Outcome, trace: bool) -> String {
    let declared: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let share = out.failed as f64 / out.attempted.max(1) as f64;
    let metrics: Vec<String> = declared
        .iter()
        .map(|(name, unit)| {
            let v = if *name == "failed_share" {
                share
            } else {
                out.metrics.get(name)
            };
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\":{{\"value\":{v:?},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted,
        out.failed,
        metrics.join(",")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cr-benchmark: {e}");
            std::process::exit(2);
        }
    };
    if let Some(mode) = args.child.clone() {
        if let Err(e) = run_child(&args, &mode) {
            eprintln!("cr-benchmark child {mode}: {e}");
            std::process::exit(1);
        }
        return;
    }
    eprintln!(
        "cr-benchmark: workload {} seed {} for {} s, trace {}, {} cores available",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let out = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("cr-benchmark: {e}");
            std::process::exit(1);
        }
    };
    let _ = std::fs::remove_dir(campaign_cold::WORK_DIR);
    for (name, n) in &out.samples {
        eprintln!("cr-benchmark: samples {name} = {n}");
    }
    for why in &out.notes {
        eprintln!("cr-benchmark: FAILED {why}");
    }
    println!("{}", result_line(&out, args.trace));
}
