//! The campaign engine — spec in, sharded execution, report out.
//!
//! Each [`CampaignTask`] maps to one of the repo's task-granular entry
//! points ([`cr_core::discover_server`],
//! [`cr_core::seh::analyze_module_cached`],
//! [`cr_core::api_fuzzer::run_funnel`], [`cr_exploits::scan`],
//! [`cr_scan::scan_elf`]). Tasks
//! fan out over the [`crate::pool`] and share one
//! [`AnalysisCache`]; results are re-ordered by spec index, so the
//! deterministic half of the report is identical no matter how many
//! workers ran it.
//!
//! ## Fault injection
//!
//! With an [`EngineConfig::injector`], the engine threads a
//! [`cr_chaos::FaultInjector`] through every hot path: at the top of
//! each attempt ([`Site::WorkerPanic`], [`Site::TaskStall`]), between
//! image generation and parsing ([`Site::ImageBytes`]), before
//! symbolic vetting ([`Site::SolverBudget`]) and while persisting the
//! cache ([`Site::CacheRecord`]). Decisions are keyed on the task's
//! spec index (or a cache record's save-order index), so the same plan
//! injects the same faults at any `--jobs` count —
//! [`expected_error_counts`] predicts the per-class totals exactly.

use crate::cache::{
    tally_lookups, AnalysisCache, CacheCounts, ScanSummary, SehSummary, SharedVerdictCache,
};
use crate::error::{ErrorCounts, TaskError, TaskErrorKind};
use crate::metrics::CampaignMetrics;
use crate::pool::{run_pool, PoolConfig, TaskCtx, DEFAULT_DEADLINE_MS};
use crate::spec::{CampaignSpec, CampaignTask, TaskKind};
use cr_arena::{ArenaConfig, ArenaSummary};
use cr_chaos::{FaultInjector, FaultKind, Site};
use cr_core::seh::{self, analyze_module_cached, NoCache};
use cr_symex::{FilterVerdict, SolverCounters};
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Engine knobs (the CLI's `--jobs/--cache/--retries/--deadline-ms`).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads (1 = serial).
    pub jobs: usize,
    /// Extra attempts for a failing task.
    pub retries: u32,
    /// Cache directory; `None` keeps the cache in memory only.
    pub cache_dir: Option<PathBuf>,
    /// Per-attempt virtual-time deadline in milliseconds (`None`
    /// disables deadline classification).
    pub deadline_ms: Option<u64>,
    /// Per-attempt wall-clock watchdog in milliseconds; off by default
    /// (wall time is nondeterministic, so reports under the watchdog
    /// are not byte-stable).
    pub wall_watchdog_ms: Option<u64>,
    /// Base for seeded exponential retry backoff, milliseconds.
    pub backoff_base_ms: u64,
    /// Fault injector; `None` runs the pipeline unperturbed.
    pub injector: Option<Arc<FaultInjector>>,
    /// External abort flag (request cancellation, server shutdown).
    /// Once set, unstarted tasks fail fast as
    /// [`TaskErrorKind::Cancelled`] and the campaign returns early
    /// with a degraded report.
    pub abort: Option<Arc<AtomicBool>>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            jobs: 1,
            retries: 1,
            cache_dir: None,
            deadline_ms: Some(DEFAULT_DEADLINE_MS),
            wall_watchdog_ms: None,
            backoff_base_ms: 1,
            injector: None,
            abort: None,
        }
    }
}

/// Deterministic result of one task.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub enum TaskResult {
    /// Table-I server pipeline summary.
    Server {
        /// Server name.
        server: String,
        /// Syscalls observed during the workload.
        observed_syscalls: usize,
        /// Classified candidate findings.
        findings: usize,
        /// Findings classified usable with service intact.
        usable: usize,
    },
    /// SEH analysis summary plus its cache key.
    Seh {
        /// Image content hash (the module cache key).
        image_hash: String,
        /// The cached/recomputed summary row.
        summary: SehSummary,
    },
    /// §V-B funnel counts.
    Funnel {
        /// Corpus size.
        total: usize,
        /// Functions with pointer arguments.
        with_pointer_args: usize,
        /// Crash-resistant candidates.
        crash_resistant: usize,
        /// Candidates reachable from JavaScript.
        js_reachable: usize,
        /// Usable primitives (controllable pointer argument).
        usable: usize,
    },
    /// Traceless static scan summary plus its cache key.
    Scan {
        /// ELF content hash (the scan cache key).
        image_hash: String,
        /// The cached/recomputed summary row.
        summary: ScanSummary,
    },
    /// Adversarial-arena strategy row plus its cache key.
    Arena {
        /// Readable content key (`strategy:sSEED:rROUNDS:module`).
        key: String,
        /// The cached/recomputed strategy-vs-detectors summary.
        summary: ArenaSummary,
    },
    /// §VI oracle scan outcome: a region is hidden at a secret
    /// address, and the oracle sweeps the window for it.
    Poc {
        /// Oracle name (from the oracle itself).
        oracle: String,
        /// Addresses found mapped in the probe window.
        mapped: usize,
        /// Probes issued.
        probes: u64,
        /// Whether the sweep located the hidden region.
        located: bool,
        /// Whether the target crashed (a usable oracle never does).
        crashed: bool,
    },
}

/// One task's row in the deterministic report.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct TaskRecord {
    /// Task index in spec order.
    pub index: usize,
    /// Human-readable label.
    pub label: String,
    /// The result, absent when the task failed.
    pub result: Option<TaskResult>,
    /// The final attempt's classified error when the task failed.
    pub error: Option<TaskError>,
}

/// Everything a campaign run produces.
#[derive(Debug, Clone, serde::Serialize)]
pub struct CampaignReport {
    /// The spec that ran.
    pub spec: CampaignSpec,
    /// Deterministic per-task rows, in spec order.
    pub records: Vec<TaskRecord>,
    /// Per-class counts over every failed attempt (recovered ones
    /// included) plus quarantined cache records.
    pub errors: ErrorCounts,
    /// `true` when at least one task has no result — the campaign
    /// completed, but its coverage is partial.
    pub degraded: bool,
    /// Run-variant metrics (timings, attempts, cache counters).
    pub metrics: CampaignMetrics,
}

impl CampaignReport {
    /// JSON of the deterministic half only (spec, records, error
    /// accounting, degraded flag). Two runs of the same spec under the
    /// same fault plan — serial or sharded, any worker count — produce
    /// identical bytes.
    pub fn results_json(&self) -> String {
        use serde::Serialize;
        let mut out = String::from("{\"spec\":");
        self.spec.write_json(&mut out);
        out.push_str(",\"records\":");
        self.records.write_json(&mut out);
        out.push_str(",\"errors\":");
        self.errors.write_json(&mut out);
        out.push_str(",\"degraded\":");
        self.degraded.write_json(&mut out);
        out.push('}');
        out
    }
}

/// Run a campaign.
///
/// # Errors
///
/// Only cache I/O fails the whole campaign (an unreadable or
/// unwritable `--cache DIR` should be loud); individual task failures
/// land in their [`TaskRecord`], and corrupt cache *content* is
/// quarantined, not fatal.
pub fn run_campaign(spec: &CampaignSpec, cfg: &EngineConfig) -> std::io::Result<CampaignReport> {
    cr_trace::begin_run(&spec.name);
    let cache = match &cfg.cache_dir {
        Some(dir) => {
            let mut span = cr_trace::span(cr_trace::Stage::Cache, "cache.load");
            let cache = AnalysisCache::load(dir)?;
            span.set_detail(|| {
                let filters = cache.entries::<FilterVerdict>();
                let modules = cache.entries::<SehSummary>();
                format!(
                    "filters={filters} modules={modules} quarantined={}",
                    cache.quarantined()
                )
            });
            cache
        }
        None => AnalysisCache::new(),
    };
    let report = run_campaign_with_cache(spec, cfg, &cache);

    if let Some(dir) = &cfg.cache_dir {
        let mut span = cr_trace::span(cr_trace::Stage::Cache, "cache.save");
        span.set_detail(|| {
            let filters = cache.entries::<FilterVerdict>();
            let modules = cache.entries::<SehSummary>();
            format!("filters={filters} modules={modules}")
        });
        match cfg.injector.as_deref() {
            Some(inj) if inj.plan().arms(Site::CacheRecord) => {
                cache.save_with(dir, |i, line| {
                    if let Some(kind) = inj.fires(Site::CacheRecord, i as u64, 0) {
                        inj.corrupt_record(kind, i as u64, line);
                    }
                })?
            }
            _ => cache.save(dir)?,
        }
    }
    Ok(report)
}

/// The disk-free core of [`run_campaign`]: run `spec` against an
/// already-resident [`AnalysisCache`]. No trace run is begun and no
/// cache I/O happens — the caller owns both, which is what lets a
/// resident server share one warm cache (verdicts, module summaries,
/// parsed images) across many requests and persist it once at
/// shutdown.
pub fn run_campaign_with_cache(
    spec: &CampaignSpec,
    cfg: &EngineConfig,
    cache: &AnalysisCache,
) -> CampaignReport {
    let quarantined = cache.quarantined();
    let injector = cfg.injector.as_deref();
    let labels: Vec<(String, TaskKind)> =
        spec.tasks.iter().map(|t| (t.label(), t.kind())).collect();

    let pool_cfg = PoolConfig {
        jobs: cfg.jobs,
        retries: cfg.retries,
        seed: spec.seed,
        deadline_ms: cfg.deadline_ms,
        wall_watchdog_ms: cfg.wall_watchdog_ms,
        backoff_base_ms: cfg.backoff_base_ms,
        abort: cfg.abort.clone(),
        ..PoolConfig::default()
    };
    let started = Instant::now();
    // The pool span's detail deliberately omits the worker count: the
    // deterministic event sequence must not vary with `--jobs`.
    let mut pool_span = cr_trace::span(cr_trace::Stage::Schedule, "pool");
    pool_span.set_detail(|| format!("tasks={}", spec.tasks.len()));
    // Each attempt tallies the solver work and cache lookups of its own
    // worker thread, so the run's counts are exactly its attempts' work,
    // whatever else the process runs. An attempt that panics contributes
    // nothing.
    let work = Mutex::new((SolverCounters::default(), CacheCounts::default()));
    let execs = run_pool(&pool_cfg, spec.tasks.len(), |ctx| {
        // Identity goes into the detail up front so an unwinding panic
        // still leaves an attributable span; the outcome is appended
        // only when the attempt returns normally.
        let mut span = cr_trace::span(cr_trace::Stage::Schedule, "attempt");
        span.set_detail(|| labels[ctx.index].0.clone());
        let ((outcome, lookups), spent) = cr_symex::tally_work(|| {
            tally_lookups(|| execute_task(&spec.tasks[ctx.index], cache, injector, ctx))
        });
        {
            let mut total = work
                .lock()
                .expect("no attempt panics while holding the tally");
            total.0 += spent;
            total.1 += lookups;
        }
        span.append_detail(|| match &outcome {
            Ok(_) => "ok".into(),
            Err(e) => format!("err={}", e.kind.name()),
        });
        outcome
    });
    drop(pool_span);
    let total_wall_us = started.elapsed().as_micros() as u64;

    let records: Vec<TaskRecord> = execs
        .iter()
        .map(|e| TaskRecord {
            index: e.index,
            label: labels[e.index].0.clone(),
            result: e.outcome.as_ref().ok().cloned(),
            error: e.outcome.as_ref().err().cloned(),
        })
        .collect();
    let mut errors = ErrorCounts::default();
    for e in &execs {
        for err in &e.attempt_errors {
            errors.record(err.kind);
        }
    }
    errors.add(TaskErrorKind::CacheCorrupt, quarantined);
    let degraded = records.iter().any(|r| r.result.is_none());
    let (solver, lookups) = work
        .into_inner()
        .expect("no attempt panics while holding the tally");
    let metrics = CampaignMetrics::from_executions(
        cfg.jobs.max(1),
        total_wall_us,
        solver,
        quarantined,
        lookups,
        &labels,
        &execs,
    );
    CampaignReport {
        spec: spec.clone(),
        records,
        errors,
        degraded,
        metrics,
    }
}

/// Predict the per-class error counts [`run_campaign`] will report for
/// `spec` under `cfg` — an exact, side-effect-free mirror of the
/// per-attempt fault decision order in [`execute_task`] (worker panic,
/// then stall, then image bytes, then solver budget; first firing site
/// wins the attempt). Counts **injected** faults only; a spec whose
/// tasks fail on their own (unknown targets, say) will report more.
///
/// Cache-record faults fire at save time against the *previous* run's
/// records, so they are accounted separately (see
/// [`FaultInjector::fired_count`] with [`Site::CacheRecord`], and the
/// quarantine counter on the following load).
pub fn expected_error_counts(spec: &CampaignSpec, cfg: &EngineConfig) -> ErrorCounts {
    let mut counts = ErrorCounts::default();
    let Some(inj) = cfg.injector.as_deref() else {
        return counts;
    };
    for (i, task) in spec.tasks.iter().enumerate() {
        for attempt in 0..=cfg.retries {
            match simulate_attempt(inj, task, i as u64, attempt, cfg.deadline_ms) {
                Some(kind) => counts.record(kind),
                None => break,
            }
        }
    }
    counts
}

/// The injected failure class (if any) of one simulated attempt. Must
/// mirror [`execute_task`] exactly.
fn simulate_attempt(
    inj: &FaultInjector,
    task: &CampaignTask,
    key: u64,
    attempt: u32,
    deadline_ms: Option<u64>,
) -> Option<TaskErrorKind> {
    if let Some(FaultKind::Panic) = inj.would_fire(Site::WorkerPanic, key, attempt) {
        return Some(TaskErrorKind::Panic);
    }
    if let Some(FaultKind::Stall { virtual_ms }) = inj.would_fire(Site::TaskStall, key, attempt) {
        if deadline_ms.is_some_and(|d| virtual_ms > d) {
            return Some(TaskErrorKind::TimedOut);
        }
    }
    if matches!(task, CampaignTask::SehAnalysis(_)) {
        if let Some(FaultKind::BitFlip { .. } | FaultKind::Truncate { .. }) =
            inj.would_fire(Site::ImageBytes, key, attempt)
        {
            return Some(TaskErrorKind::ImageMalformed);
        }
        if let Some(FaultKind::SolverBudget { .. }) =
            inj.would_fire(Site::SolverBudget, key, attempt)
        {
            return Some(TaskErrorKind::SolverBudget);
        }
    }
    None
}

fn execute_task(
    task: &CampaignTask,
    cache: &AnalysisCache,
    inj: Option<&FaultInjector>,
    ctx: &TaskCtx,
) -> Result<TaskResult, TaskError> {
    let key = ctx.index as u64;
    ctx.checkpoint()?;
    if let Some(inj) = inj {
        if let Some(FaultKind::Panic) = inj.fires(Site::WorkerPanic, key, ctx.attempt) {
            panic!(
                "chaos: injected panic at worker.panic (task {key}, attempt {})",
                ctx.attempt
            );
        }
        if let Some(FaultKind::Stall { virtual_ms }) = inj.fires(Site::TaskStall, key, ctx.attempt)
        {
            ctx.stall(virtual_ms)?;
        }
    }
    match task {
        CampaignTask::ServerDiscovery(name) => Ok(run_server(name)),
        CampaignTask::SehAnalysis(name) => run_seh(name, cache, inj, ctx),
        CampaignTask::ApiFunnel { corpus_size } => Ok(run_funnel(*corpus_size, ctx.seed)),
        CampaignTask::PocScan(name) => Ok(run_poc(name)),
        CampaignTask::StaticScan(name) => Ok(run_scan(name, cache)),
        CampaignTask::Arena(name) => Ok(run_arena(name, cache, ctx.seed, inj)),
    }
}

fn run_server(name: &str) -> TaskResult {
    let target = cr_targets::all_servers()
        .into_iter()
        .find(|t| t.name == name)
        .unwrap_or_else(|| panic!("unknown server {name:?}"));
    let report = cr_core::discover_server(&target);
    TaskResult::Server {
        server: report.server.clone(),
        observed_syscalls: report.observed_syscalls.len(),
        findings: report.findings.len(),
        usable: report.usable().len(),
    }
}

fn run_seh(
    name: &str,
    cache: &AnalysisCache,
    inj: Option<&FaultInjector>,
    ctx: &TaskCtx,
) -> Result<TaskResult, TaskError> {
    // The loopy explorer-regression family lives outside the calibrated
    // §V-C population (its Table II/III totals are pinned), so it is
    // resolved by name instead of through the population specs.
    let spec = if name == "loopy" {
        None
    } else {
        Some(
            cr_targets::browsers::full_population_specs()
                .into_iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("unknown dll {name:?}")),
        )
    };
    let module_bytes = || match &spec {
        Some(s) => cr_targets::browsers::generate_dll_bytes(s),
        None => cr_targets::browsers::generate_loopy_dll_bytes(),
    };
    let module_image = || match &spec {
        Some(s) => cr_targets::browsers::generate_dll(s),
        None => cr_targets::browsers::generate_loopy_dll(),
    };
    let key = ctx.index as u64;

    if let Some(inj) = inj {
        if let Some(kind @ (FaultKind::BitFlip { .. } | FaultKind::Truncate { .. })) =
            inj.fires(Site::ImageBytes, key, ctx.attempt)
        {
            // Corrupt the raw bytes between generation and parsing.
            // Either the parser rejects them (the hardened common case)
            // or the mutation landed in slack space and the image still
            // parses — both are classified ImageMalformed so accounting
            // stays exact.
            let mut bytes = module_bytes();
            inj.mutate_bytes(kind, key, &mut bytes);
            return Err(match cr_image::PeImage::parse(&bytes) {
                Err(e) => TaskError::image_malformed(format!(
                    "chaos: mutated image rejected by parser: {e}"
                )),
                Ok(_) => TaskError::image_malformed(
                    "chaos: mutation landed in slack space; image still parses",
                ),
            });
        }
        if let Some(FaultKind::SolverBudget { max_steps }) =
            inj.fires(Site::SolverBudget, key, ctx.attempt)
        {
            // Run the real analysis under a clamped step budget so the
            // exhaustion path is exercised, but without the shared
            // cache: Unknown verdicts from a starved solver must not
            // poison warm reruns.
            let img = module_image();
            let _ =
                cr_symex::with_step_budget(max_steps, || analyze_module_cached(&img, &mut NoCache));
            return Err(TaskError::solver_budget(format!(
                "chaos: solver step budget clamped to {max_steps}"
            )));
        }
    }

    // Resident parsed-image lookup: a warm hit skips generation and
    // parsing entirely (the fault paths above bypass this table — a
    // corrupted image must never become the resident artifact).
    let artifact = match cache.get_image(name) {
        Some(a) => a,
        None => {
            let img = module_image();
            let hash = seh::image_content_hash(&img);
            cache.put_image(name, hash, img)
        }
    };
    let image_hash = artifact.hash.clone();
    let summary = match cache.get::<SehSummary>(&image_hash) {
        Some(s) => s,
        None => {
            let a = analyze_module_cached(&artifact.image, &mut SharedVerdictCache(cache));
            let s = SehSummary {
                module: a.module,
                is_x64: a.is_x64,
                guarded_before: a.guarded_before,
                guarded_after: a.guarded_after,
                filters_before: a.filters_before,
                filters_after: a.filters_after,
                filters_undecided: a.filters_undecided,
            };
            cache.put(&image_hash, &s);
            s
        }
    };
    Ok(TaskResult::Seh {
        image_hash,
        summary,
    })
}

fn run_scan(name: &str, cache: &AnalysisCache) -> TaskResult {
    let image = cr_targets::all_servers()
        .into_iter()
        .find(|t| t.name == name)
        .map(|t| t.image)
        .or_else(|| cr_targets::corpus::module(name).map(|m| m.image))
        .unwrap_or_else(|| panic!("unknown scan module {name:?}"));
    let image_hash = cr_scan::elf_content_hash(&image);
    let summary = match cache.get::<ScanSummary>(&image_hash) {
        Some(s) => {
            // A warm hit skips the CFG walk; still stamp the scan stage
            // so a warm campaign's trace shows where the row came from.
            let mut span = cr_trace::span(cr_trace::Stage::Scan, "scan.cached");
            span.set_detail(|| format!("module={name} sites={}", s.sites));
            s
        }
        None => {
            let report = cr_scan::scan_elf(name, &image);
            let s = ScanSummary::from_report(&report);
            cache.put(&image_hash, &s);
            s
        }
    };
    TaskResult::Scan {
        image_hash,
        summary,
    }
}

fn run_arena(
    name: &str,
    cache: &AnalysisCache,
    seed: u64,
    inj: Option<&FaultInjector>,
) -> TaskResult {
    let kind = cr_arena::StrategyKind::parse_name(name)
        .unwrap_or_else(|| panic!("unknown arena strategy {name:?}"));
    let cfg = ArenaConfig {
        seed,
        ..ArenaConfig::default()
    };
    let key = format!(
        "{}:s{}:r{}:{}",
        kind.name(),
        cfg.seed,
        cfg.rounds,
        cfg.filter_module
    );
    // A probe-drop plan perturbs the sessions, so (like a solver-budget
    // fault) the run bypasses the cache in both directions: it neither
    // serves a clean row nor poisons the table with a degraded one.
    let chaos = inj.filter(|i| i.plan().arms(Site::ArenaProbeDrop));
    if chaos.is_none() {
        if let Some(summary) = cache.get::<ArenaSummary>(&key) {
            // A warm hit skips re-simulating every probing session;
            // still stamp the arena stage so the trace shows the source.
            let mut span = cr_trace::span(cr_trace::Stage::Arena, "arena.cached");
            span.set_detail(|| format!("strategy={} probes={}", summary.strategy, summary.probes));
            return TaskResult::Arena { key, summary };
        }
    }
    let mut span = cr_trace::span(cr_trace::Stage::Arena, "arena.run");
    // Keyed on a monotonic probe ordinal across the strategy's rounds,
    // so the same plan drops the same probes at any `--jobs` count.
    let mut probe_no: u64 = 0;
    let mut drop_probe = |_round_index: u64| {
        let n = probe_no;
        probe_no += 1;
        chaos.is_some_and(|i| i.fires(Site::ArenaProbeDrop, n, 0).is_some())
    };
    let summary = cr_arena::run_strategy(kind, &cfg, &mut drop_probe);
    span.set_detail(|| {
        format!(
            "strategy={} probes={} dropped={}",
            summary.strategy, summary.probes, summary.dropped
        )
    });
    drop(span);
    if chaos.is_none() {
        cache.put(&key, &summary);
    }
    TaskResult::Arena { key, summary }
}

fn run_funnel(corpus_size: usize, seed: u64) -> TaskResult {
    let mut sim = cr_targets::browsers::ie::build_with_corpus(corpus_size, seed);
    let report = cr_core::api_fuzzer::run_funnel(&mut sim, 2);
    TaskResult::Funnel {
        total: report.total,
        with_pointer_args: report.with_pointer_args,
        crash_resistant: report.crash_resistant,
        js_reachable: report.js_reachable,
        usable: report.usable,
    }
}

/// Per-oracle §VI scenario: secret region (address, length) and the
/// probe window (start, end, stride) swept for it — the same shapes
/// artifact E5 (`paper E5`) uses.
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
        "nginx" => (
            0x55_0000_2000,
            0x1000,
            0x55_0000_0000,
            0x55_0001_0000,
            0x1000,
        ),
        other => panic!("unknown oracle {other:?}"),
    }
}

fn run_poc(name: &str) -> TaskResult {
    let (secret, len, start, end, stride) = poc_scenario(name);
    // The defense hides a SafeStack-style region at the secret address;
    // the oracle must locate it with zero crashes.
    let mut oracle: Box<dyn cr_exploits::MemoryOracle> = match name {
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
        "nginx" => {
            let mut o = cr_exploits::nginx::NginxOracle::new();
            o.proc().mem.map(secret, len, cr_vm::Prot::RW);
            Box::new(o)
        }
        other => panic!("unknown oracle {other:?}"),
    };
    let out = cr_exploits::scan(oracle.as_mut(), start, end, stride);
    TaskResult::Poc {
        oracle: oracle.name().to_string(),
        mapped: out.mapped.len(),
        probes: out.probes,
        located: out.mapped.contains(&secret),
        crashed: out.crashed,
    }
}
