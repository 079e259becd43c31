//! `campaign-cold`: one-shot campaigns, each in a fresh process with an
//! empty cache, and the serial layer-by-layer replay behind the traced
//! run.
//!
//! The parent never analyzes anything itself: the term interner and
//! the query memo are process-global, so only a fresh child process is
//! really cold. Children speak a two-line protocol on stdout: `ready`
//! once set-up is done, then one JSON object with the run's numbers.

use crate::child::{self, Child};
use crate::gen;
use crate::measure::{median, quantile, usage, Spans};
use crate::truth;
use crate::Outcome;
use cr_campaign::{
    run_campaign, AnalysisCache, EngineConfig, SehSummary, SharedVerdictCache, TaskKind,
};
use serde::Serialize;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Worker threads of the measured campaign (the box's core count).
pub const JOBS: usize = 2;
/// Fewest campaigns one run measures, however short `--seconds` is.
const MIN_ITERATIONS: usize = 3;

/// Scratch space for child caches, inside the working directory.
pub const WORK_DIR: &str = ".bench_work";

fn campaign_child(seed: u64, jobs: usize) -> Result<Child, String> {
    child::spawn(&child::args(
        "campaign",
        seed,
        &[("--jobs", jobs.to_string())],
    ))
}

fn replay_child(seed: u64, spans: bool) -> Result<Child, String> {
    child::spawn(&child::args(
        "replay",
        seed,
        &[("--spans", u8::from(spans).to_string())],
    ))
}

/// The untraced measurement: fresh-process campaigns at [`JOBS`]
/// workers until `seconds` have passed.
pub fn run(seed: u64, seconds: u64) -> Result<Outcome, String> {
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut runs: Vec<Child> = Vec::new();
    while runs.len() < MIN_ITERATIONS || Instant::now() < deadline {
        let s = gen::iteration_seed(seed, runs.len() as u64);
        runs.push(campaign_child(s, JOBS)?);
    }
    let mut out = Outcome::default();
    for r in &runs {
        out.attempted += r.u("tasks");
        out.failed += r.u("failed");
        for why in r.why() {
            out.note(why);
        }
    }
    // Campaign figures are medians over the run's campaigns. Task-time
    // quantiles are taken over tasks after each task's fastest time
    // across the campaigns: a co-tenant that slows the shared cores for
    // a while only ever adds time to the short tasks it overlaps, and
    // the best of twenty-odd repeats filters that out where a median
    // keeps it.
    let per = |f: &dyn Fn(&Child) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let per_task = |key: &str| -> Vec<f64> {
        let walls: Vec<Vec<f64>> = runs.iter().map(|r| r.list(key)).collect();
        (0..walls[0].len())
            .map(|i| {
                walls
                    .iter()
                    .filter_map(|w| w.get(i).copied())
                    .fold(f64::INFINITY, f64::min)
                    / 1e3
            })
            .collect()
    };
    let (lookups, computes) = (per_task("lookup_us"), per_task("compute_us"));
    let m = &mut out.metrics;
    m.set("setup_s", per(&|r| r.setup.as_secs_f64()));
    m.set("wall_s", per(&|r| r.u("wall_us") as f64 / 1e6));
    m.set("cpu_s", per(&|r| r.u("cpu_us") as f64 / 1e6));
    m.set(
        "throughput_rps",
        per(&|r| r.u("tasks") as f64 / (r.u("wall_us").max(1) as f64 / 1e6)),
    );
    m.set("lookup_p50_ms", quantile(&lookups, 0.50));
    m.set("lookup_p99_ms", quantile(&lookups, 0.99));
    m.set("compute_p50_ms", quantile(&computes, 0.50));
    m.set("peak_rss_mb", per(&|r| r.u("maxrss_kb") as f64 / 1024.0));
    let count = |key: &str| runs.iter().map(|r| r.list(key).len()).sum();
    out.samples = vec![
        ("campaigns", runs.len()),
        ("lookup_tasks", count("lookup_us")),
        ("compute_tasks", count("compute_us")),
    ];
    Ok(out)
}

/// The traced run: a serial replay through the layer entry points with
/// spans, the same replay without spans (tracing overhead), a serial
/// untraced campaign (engine self time, solver counters) and a
/// [`JOBS`]-worker campaign (pool utilization), each in a fresh
/// process, repeated until `seconds` have passed.
pub fn run_traced(seed: u64, seconds: u64) -> Result<Outcome, String> {
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut sets: Vec<[Child; 4]> = Vec::new();
    while sets.is_empty() || Instant::now() < deadline {
        let seed = gen::iteration_seed(seed, sets.len() as u64);
        // Alternate which replay runs first, so drift between the two
        // processes does not read as tracing overhead.
        let (traced, plain) = if sets.len().is_multiple_of(2) {
            let t = replay_child(seed, true)?;
            (t, replay_child(seed, false)?)
        } else {
            let p = replay_child(seed, false)?;
            (replay_child(seed, true)?, p)
        };
        sets.push([
            traced,
            plain,
            campaign_child(seed, 1)?,
            campaign_child(seed, JOBS)?,
        ]);
    }
    let mut out = Outcome::default();
    for set in &sets {
        for c in set {
            out.attempted += c.u("tasks");
            out.failed += c.u("failed");
            for why in c.why() {
                out.note(why);
            }
        }
    }
    let med = |f: &dyn Fn(&[Child; 4]) -> f64| median(&sets.iter().map(f).collect::<Vec<_>>());
    let layer = |c: &Child, l: &str| c.u(&format!("span_{l}_us")) as f64 / 1e3;
    let m = &mut out.metrics;
    for l in REPLAY_LAYERS {
        m.set(&format!("self.{l}_ms"), med(&|s| layer(&s[0], l)));
    }
    let replay_wall = med(&|s| s[0].u("wall_us") as f64 / 1e3);
    let spans_sum = med(&|s| REPLAY_LAYERS.iter().map(|l| layer(&s[0], l)).sum());
    m.set("replay.wall_ms", replay_wall);
    m.set("unattributed_ms", replay_wall - spans_sum);
    m.set(
        "unattributed_share",
        (replay_wall - spans_sum) / replay_wall,
    );
    let overhead = med(&|s| (s[0].u("wall_us") as f64 - s[1].u("wall_us") as f64) / 1e3);
    m.set("trace.overhead_ms", overhead);
    m.set(
        "trace.overhead_share",
        overhead / med(&|s| s[1].u("wall_us") as f64 / 1e3),
    );

    m.set("targets.generate_ms", med(&|s| layer(&s[0], "targets")));
    m.set("image.parse_ms", med(&|s| layer(&s[0], "image")));
    m.set(
        "image.mb_per_s",
        med(&|s| s[0].u("image_bytes") as f64 / 1e6 / (layer(&s[0], "image") / 1e3)),
    );
    m.set("vm.run_ms", med(&|s| layer(&s[0], "vm")));
    m.set(
        "vm.mips",
        med(&|s| s[0].u("vm_steps") as f64 / 1e6 / (layer(&s[0], "vm") / 1e3)),
    );
    m.set("taint.observe_ms", med(&|s| layer(&s[0], "taint")));
    m.set(
        "taint.overhead_x",
        med(&|s| layer(&s[0], "taint") / layer(&s[0], "vm")),
    );
    m.set(
        "taint.propagations",
        med(&|s| s[0].u("propagations") as f64),
    );
    m.set(
        "core.invalidate_ms",
        med(&|s| layer(&s[0], "core") - layer(&s[0], "taint")),
    );
    m.set("core.funnel_ms", med(&|s| layer(&s[0], "funnel")));
    m.set("symex.analyze_ms", med(&|s| layer(&s[0], "symex")));
    m.set("scan.elf_ms", med(&|s| layer(&s[0], "scan")));
    m.set(
        "scan.sites_per_s",
        med(&|s| s[0].u("scan_sites") as f64 / (layer(&s[0], "scan") / 1e3)),
    );
    m.set("exploits.scan_ms", med(&|s| layer(&s[0], "exploits")));
    m.set(
        "exploits.probes_per_s",
        med(&|s| s[0].u("poc_probes") as f64 / (layer(&s[0], "exploits") / 1e3)),
    );
    m.set("arena.run_ms", med(&|s| layer(&s[0], "arena")));
    m.set(
        "arena.probes_per_s",
        med(&|s| s[0].u("arena_probes") as f64 / (layer(&s[0], "arena") / 1e3)),
    );

    // Run-scoped counters from the serial campaign's own report.
    let hits = med(&|s| s[2].u("filter_hits") as f64);
    let misses = med(&|s| s[2].u("filter_misses") as f64);
    m.set("symex.filter_hit_share", hits / (hits + misses).max(1.0));
    m.set(
        "symex.solver_calls",
        med(&|s| s[2].u("solver_calls") as f64),
    );
    m.set(
        "symex.paths_completed",
        med(&|s| s[2].u("paths_completed") as f64),
    );
    m.set(
        "symex.paths_pruned",
        med(&|s| s[2].u("paths_pruned") as f64),
    );
    // The engine's self time: serial campaign wall minus the spans of
    // the work it shares with the replay (the replay's extra plain-VM
    // and standalone observation calls are not campaign work).
    m.set(
        "campaign.engine_ms",
        med(&|s| {
            let shared: f64 = REPLAY_LAYERS
                .iter()
                .filter(|l| !PROBE_ONLY.contains(l))
                .map(|l| layer(&s[0], l))
                .sum();
            s[2].u("wall_us") as f64 / 1e3 - shared
        }),
    );
    m.set(
        "campaign.pool_utilization",
        med(&|s| s[3].u("task_wall_us") as f64 / (JOBS as f64 * s[3].u("wall_us").max(1) as f64)),
    );
    m.set(
        "campaign.tail_task_ms",
        med(&|s| s[3].u("max_task_us") as f64 / 1e3),
    );
    m.set(
        "campaign.cache_misses",
        med(&|s| s[3].u("cache_misses") as f64),
    );
    m.set("campaign.cache_hits", med(&|s| s[3].u("cache_hits") as f64));
    m.set("trace.samples", sets.len() as f64);
    out.samples = vec![("replay_sets", sets.len())];
    Ok(out)
}

/// Span names of the replay, one per layer entry point.
const REPLAY_LAYERS: [&str; 11] = [
    "targets", "image", "vm", "taint", "core", "funnel", "symex", "scan", "exploits", "arena",
    "checks",
];
/// Replay spans with no counterpart inside the campaign: the plain-VM
/// baseline and the standalone observation that splits discovery into
/// observation and invalidation.
const PROBE_ONLY: [&str; 2] = ["vm", "taint"];

fn cache_dir() -> PathBuf {
    PathBuf::from(WORK_DIR).join(format!("cold-{}", std::process::id()))
}

/// Child: one cold campaign at `jobs` workers against a fresh on-disk
/// cache, checked against ground truth and for coldness.
pub fn child_campaign(seed: u64, jobs: usize) -> Result<(), String> {
    let spec = gen::campaign_spec(seed);
    let dir = cache_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let cfg = EngineConfig {
        jobs,
        cache_dir: Some(dir.clone()),
        ..EngineConfig::default()
    };
    child::say_ready();
    let before = usage();
    let started = Instant::now();
    let report = run_campaign(&spec, &cfg).map_err(|e| e.to_string());
    let wall = started.elapsed();
    let after = usage();
    let _ = std::fs::remove_dir_all(&dir);
    let report = report?;

    let (mut failed, mut why) = truth::check_campaign(&report);
    let m = &report.metrics;
    let c = &m.cache;
    let seh_tasks = spec
        .tasks
        .iter()
        .filter(|t| t.kind() == TaskKind::Seh)
        .count() as u64;
    // A campaign that read anything it should have computed is not the
    // cold run it claims to be.
    if c.module_misses != seh_tasks || c.image_misses == 0 || m.solver_calls == 0 {
        failed = spec.tasks.len();
        why.push(format!(
            "not cold: module_misses={} (want {seh_tasks}) image_misses={} solver_calls={}",
            c.module_misses, c.image_misses, m.solver_calls
        ));
    }
    // Task walls in label order, so position i is the same task in
    // every campaign of a run whatever its shuffled spec order.
    let is_lookup = |k: TaskKind| matches!(k, TaskKind::Seh | TaskKind::Scan);
    let mut by_label: Vec<_> = m.tasks.iter().collect();
    by_label.sort_by(|a, b| a.label.cmp(&b.label));
    let walls = |lookup: bool| {
        child::list(
            by_label
                .iter()
                .filter(|t| is_lookup(t.kind) == lookup)
                .map(|t| t.wall_us),
        )
    };
    let hits = c.filter_hits + c.module_hits + c.scan_hits + c.arena_hits + c.image_hits;
    let misses =
        c.filter_misses + c.module_misses + c.scan_misses + c.arena_misses + c.image_misses;
    child::emit(&[
        ("tasks", spec.tasks.len().to_string()),
        ("failed", failed.to_string()),
        ("why", why.to_json()),
        ("wall_us", wall.as_micros().to_string()),
        ("cpu_us", (after.cpu_us - before.cpu_us).to_string()),
        ("maxrss_kb", after.maxrss_kb.to_string()),
        ("task_wall_us", m.task_wall_us.to_string()),
        (
            "max_task_us",
            m.tasks
                .iter()
                .map(|t| t.wall_us)
                .max()
                .unwrap_or(0)
                .to_string(),
        ),
        ("lookup_us", walls(true)),
        ("compute_us", walls(false)),
        ("cache_hits", hits.to_string()),
        ("cache_misses", misses.to_string()),
        ("filter_hits", c.filter_hits.to_string()),
        ("filter_misses", c.filter_misses.to_string()),
        ("solver_calls", m.solver_calls.to_string()),
        ("paths_completed", m.paths_completed.to_string()),
        ("paths_pruned", m.paths_pruned.to_string()),
    ]);
    Ok(())
}

/// Per-oracle §VI scenario (secret base, length, window start, end,
/// stride) — the shapes the campaign's PoC tasks sweep.
fn poc_scenario(oracle: &str) -> (u64, u64, u64, u64, u64) {
    match oracle {
        "ie" => (
            0x31_4159_0000,
            0x4000,
            0x31_4000_0000,
            0x31_4200_0000,
            0x1_0000,
        ),
        "firefox" => (
            0x27_1828_1000,
            0x2000,
            0x27_1800_0000,
            0x27_1900_0000,
            0x1000,
        ),
        _ => (
            0x55_0000_2000,
            0x1000,
            0x55_0000_0000,
            0x55_0001_0000,
            0x1000,
        ),
    }
}

/// Counters the replay accumulates besides its spans.
#[derive(Default)]
struct ReplayCounts {
    image_bytes: u64,
    vm_steps: u64,
    propagations: u64,
    scan_sites: u64,
    poc_probes: u64,
    arena_probes: u64,
    failed: usize,
    why: Vec<String>,
}

impl ReplayCounts {
    fn check(&mut self, r: Result<(), String>) {
        if let Err(e) = r {
            self.failed += 1;
            if self.why.len() < 5 {
                self.why.push(format!("replay: {e}"));
            }
        }
    }
}

/// Child: the cold campaign's tasks replayed serially, in spec order,
/// through each layer's public entry point — one span per call when
/// `spans` is on, none when it is off.
pub fn child_replay(seed: u64, spans_on: bool) -> Result<(), String> {
    let spec = gen::campaign_spec(seed);
    let cache = AnalysisCache::new();
    let mut spans = Spans::default();
    let mut n = ReplayCounts::default();
    let mut seh_rows: Vec<SehSummary> = Vec::new();
    child::say_ready();
    let started = Instant::now();
    // With spans off every call runs bare; the wall-time difference to
    // the traced replay is the tracing overhead.
    macro_rules! span {
        ($layer:expr, $body:expr) => {
            if spans_on {
                spans.time($layer, || $body)
            } else {
                $body
            }
        };
    }
    use cr_campaign::CampaignTask as T;
    for task in &spec.tasks {
        match task {
            T::ServerDiscovery(name) => {
                let target = span!(
                    "targets",
                    cr_targets::all_servers()
                        .into_iter()
                        .find(|t| t.name == name)
                )
                .ok_or_else(|| format!("unknown server {name}"))?;
                let steps = span!("vm", {
                    let mut hook = cr_vm::NullHook;
                    let mut p = target.boot(&mut hook);
                    for _ in 0..2 {
                        (target.exercise)(&mut p, &mut hook);
                    }
                    p.threads().iter().map(|t| t.cpu.steps).sum::<u64>()
                });
                n.vm_steps += steps;
                let mon = span!("taint", cr_core::observe_server(&target));
                n.propagations += mon.taint().propagations;
                let report = span!("core", cr_core::discover_server(&target));
                n.check(if report.usable().is_empty() {
                    Err(format!("server {name}: no usable primitive"))
                } else {
                    Ok(())
                });
            }
            T::SehAnalysis(name) => {
                let bytes = span!(
                    "targets",
                    if name == "loopy" {
                        Some(cr_targets::browsers::generate_loopy_dll_bytes())
                    } else {
                        cr_targets::browsers::full_population_specs()
                            .into_iter()
                            .find(|s| &s.name == name)
                            .map(|s| cr_targets::browsers::generate_dll_bytes(&s))
                    }
                )
                .ok_or_else(|| format!("unknown dll {name}"))?;
                n.image_bytes += bytes.len() as u64;
                let image = span!("image", cr_image::PeImage::parse(&bytes))
                    .map_err(|e| format!("{name}: {e}"))?;
                let a = span!(
                    "symex",
                    cr_core::analyze_module_cached(&image, &mut SharedVerdictCache(&cache))
                );
                let row = SehSummary {
                    module: a.module,
                    is_x64: a.is_x64,
                    guarded_before: a.guarded_before,
                    guarded_after: a.guarded_after,
                    filters_before: a.filters_before,
                    filters_after: a.filters_after,
                    filters_undecided: a.filters_undecided,
                };
                n.check(span!(
                    "checks",
                    truth::check_task(&cr_campaign::TaskResult::Seh {
                        image_hash: String::new(),
                        summary: row.clone(),
                    })
                ));
                seh_rows.push(row);
            }
            T::ApiFunnel { corpus_size } => {
                let mut sim = span!(
                    "targets",
                    cr_targets::browsers::ie::build_with_corpus(*corpus_size, spec.seed)
                );
                let f = span!("funnel", cr_core::api_fuzzer::run_funnel(&mut sim, 2));
                n.check(if f.total == 0 {
                    Err("funnel: empty corpus".into())
                } else {
                    Ok(())
                });
            }
            T::PocScan(name) => {
                let (secret, len, start, end, stride) = poc_scenario(name);
                let mut oracle: Box<dyn cr_exploits::MemoryOracle> = span!("targets", {
                    let o: Box<dyn cr_exploits::MemoryOracle> = match name.as_str() {
                        "ie" => {
                            let mut o = cr_exploits::ie::IeOracle::new();
                            o.sim().proc.mem.map(secret, len, cr_vm::Prot::RW);
                            Box::new(o)
                        }
                        "firefox" => {
                            let mut o = cr_exploits::firefox::FirefoxOracle::new();
                            o.sim().proc.mem.map(secret, len, cr_vm::Prot::RW);
                            Box::new(o)
                        }
                        _ => {
                            let mut o = cr_exploits::nginx::NginxOracle::new();
                            o.proc().mem.map(secret, len, cr_vm::Prot::RW);
                            Box::new(o)
                        }
                    };
                    o
                });
                let out = span!(
                    "exploits",
                    cr_exploits::scan(oracle.as_mut(), start, end, stride)
                );
                n.poc_probes += out.probes;
                n.check(span!(
                    "checks",
                    truth::check_task(&cr_campaign::TaskResult::Poc {
                        oracle: name.clone(),
                        mapped: out.mapped.len(),
                        probes: out.probes,
                        located: out.mapped.contains(&secret),
                        crashed: out.crashed,
                    })
                ));
            }
            T::StaticScan(name) => {
                let image = span!(
                    "targets",
                    cr_targets::all_servers()
                        .into_iter()
                        .find(|t| t.name == name)
                        .map(|t| t.image)
                        .or_else(|| cr_targets::corpus::module(name).map(|m| m.image))
                )
                .ok_or_else(|| format!("unknown scan module {name}"))?;
                let report = span!("scan", cr_scan::scan_elf(name, &image));
                n.scan_sites += report.sites.len() as u64;
            }
            T::Arena(name) => {
                let kind = cr_arena::StrategyKind::parse_name(name)
                    .ok_or_else(|| format!("unknown strategy {name}"))?;
                let cfg = cr_arena::ArenaConfig {
                    seed: spec.seed,
                    ..cr_arena::ArenaConfig::default()
                };
                let s = span!("arena", cr_arena::run_strategy(kind, &cfg, &mut |_| false));
                n.arena_probes += s.probes;
                n.check(span!("checks", truth::check_arena(&s)));
            }
        }
    }
    n.check(span!("checks", truth::check_seh_totals(seh_rows.iter())));
    let wall = started.elapsed();

    let mut fields: Vec<(&str, String)> = vec![
        ("tasks", spec.tasks.len().to_string()),
        ("failed", n.failed.to_string()),
        ("why", n.why.to_json()),
        ("wall_us", wall.as_micros().to_string()),
        ("image_bytes", n.image_bytes.to_string()),
        ("vm_steps", n.vm_steps.to_string()),
        ("propagations", n.propagations.to_string()),
        ("scan_sites", n.scan_sites.to_string()),
        ("poc_probes", n.poc_probes.to_string()),
        ("arena_probes", n.arena_probes.to_string()),
    ];
    let keys: Vec<String> = REPLAY_LAYERS
        .iter()
        .map(|l| format!("span_{l}_us"))
        .collect();
    for (l, key) in REPLAY_LAYERS.iter().zip(&keys) {
        fields.push((key, ((spans.total(l) * 1e3) as u64).to_string()));
    }
    child::emit(&fields);
    Ok(())
}
