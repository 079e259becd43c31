//! `serve-mixed` and `fleet-warm`: closed-loop clients against an
//! in-process `cr-serve` server or a routed `cr-fleet`.
//!
//! Set-up starts the tier, warms every lookup spec through it and
//! computes a one-shot reference for each spec the clients will send.
//! The untraced phase drives the public [`cr_serve::Client`], in
//! [`PROCESSES`] fresh child processes per run; the traced phase drives
//! [`StampClient`], which stamps every frame of a request as it arrives
//! so each request splits into spans that add up to its client latency.

use crate::child;
use crate::gen::{self, Class, Mix, Request};
use crate::measure::{mean, median, ms, quantile, usage};
use crate::truth;
use crate::Outcome;
use cr_campaign::json::Json;
use cr_campaign::{run_campaign, CampaignReport, EngineConfig};
use cr_fleet::{Fleet, FleetConfig, FleetStats};
use cr_serve::proto::{hello_payload, read_frame, write_frame, Frame, FrameError, FrameKind};
use cr_serve::{Client, ServeConfig, ServeStats, Server, ServerHandle};
use serde::Serialize;
use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Closed-loop client connections (the box's core count).
pub const CLIENTS: u64 = 2;
/// Fleet workers behind the router.
pub const FLEET_WORKERS: usize = 2;
/// Busy retries before a request counts as failed.
const BUSY_RETRIES: u32 = 50;
/// Fresh processes an untraced run is split into. Each starts and
/// warms its own tier. About one process in seven serves its lookups
/// half again slower from start to end, so the run reports the median
/// over the processes rather than trusting any one of them.
const PROCESSES: u64 = 5;
/// A traced client pings once per this many requests.
const PING_EVERY: usize = 10;

/// Which tier the clients talk to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// One resident server (single FIFO executor).
    Serve,
    /// A router over [`FLEET_WORKERS`] serve workers.
    Fleet,
}

impl Tier {
    fn mix(self) -> Mix {
        match self {
            Tier::Serve => Mix::Serve,
            Tier::Fleet => Mix::Fleet,
        }
    }
}

/// The running tier.
enum Running {
    Serve {
        handle: ServerHandle,
        runner: JoinHandle<std::io::Result<ServeStats>>,
    },
    Fleet(Fleet),
}

/// Counters of the tier, for deltas over a phase.
#[derive(Debug, Clone, Copy, Default)]
struct TierCounts {
    busy: u64,
    admitted: u64,
    coalesced: u64,
    failovers: u64,
    replications: u64,
}

impl Running {
    fn counts(&self) -> TierCounts {
        match self {
            Running::Serve { handle, .. } => {
                let s = handle.stats();
                TierCounts {
                    busy: s.busy_rejections,
                    admitted: s.requests_admitted,
                    ..TierCounts::default()
                }
            }
            Running::Fleet(f) => {
                let s: FleetStats = f.stats();
                TierCounts {
                    busy: s.busy_rejections,
                    admitted: s.requests_admitted,
                    coalesced: s.coalesced,
                    failovers: s.failovers,
                    replications: s.replications,
                }
            }
        }
    }

    /// Drain and stop every thread of the tier; `Err` when the tier
    /// broke its exactly-once contract.
    fn stop(self, addr: &str) -> Result<(), String> {
        match self {
            Running::Serve { runner, .. } => {
                Client::connect(addr)
                    .and_then(|mut c| c.shutdown())
                    .map_err(|e| format!("serve shutdown: {e}"))?;
                let stats = runner
                    .join()
                    .map_err(|_| "server thread panicked".to_string())?
                    .map_err(|e| format!("server drain: {e}"))?;
                if stats.exec_violations != 0 {
                    return Err(format!("{} double executions", stats.exec_violations));
                }
            }
            Running::Fleet(fleet) => {
                let stats = fleet.join();
                if stats.ledger_violations != 0 {
                    return Err(format!("{} double deliveries", stats.ledger_violations));
                }
            }
        }
        Ok(())
    }
}

/// A started, warmed tier plus the expected bytes of every fixed spec.
struct Ready {
    tier: Running,
    addr: String,
    pool: Vec<Request>,
    refs: HashMap<String, Vec<u8>>,
    /// Client latency of every cold warm-up request, milliseconds.
    warmup_ms: Vec<f64>,
    setup: Duration,
    checks: Checks,
}

/// A one-shot run of `spec`: the reference bytes a served Result must
/// equal, and the report the ground-truth checks read.
fn one_shot(spec: &cr_campaign::CampaignSpec) -> Result<(Vec<u8>, CampaignReport), String> {
    let report = run_campaign(spec, &EngineConfig::default()).map_err(|e| e.to_string())?;
    Ok((report.results_json().into_bytes(), report))
}

fn start(tier: Tier) -> Result<Ready, String> {
    let started = Instant::now();
    let (running, addr) = match tier {
        Tier::Serve => {
            let server = Server::bind(ServeConfig {
                admit_capacity: 16,
                ..ServeConfig::default()
            })
            .map_err(|e| format!("bind: {e}"))?;
            let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
            let handle = server.handle();
            let runner = std::thread::spawn(move || server.run());
            (Running::Serve { handle, runner }, addr)
        }
        Tier::Fleet => {
            let fleet = Fleet::start(FleetConfig {
                workers: FLEET_WORKERS,
                admit_capacity: 16,
                ..FleetConfig::default()
            })
            .map_err(|e| format!("fleet start: {e}"))?;
            let addr = fleet.addr().to_string();
            (Running::Fleet(fleet), addr)
        }
    };
    let pool = gen::lookup_pool();
    let mut checks = Checks::default();

    // Warm every lookup through the tier: each one computes and writes
    // the cache (and, on a fleet, replicates).
    let mut client = Client::connect(&addr).map_err(|e| format!("connect: {e}"))?;
    let mut warmup_ms = Vec::new();
    let mut served = Vec::new();
    for q in &pool {
        let t = Instant::now();
        let r = client
            .request_with_retry(&q.payload, BUSY_RETRIES)
            .map_err(|e| format!("warm-up: {e}"))?;
        warmup_ms.push(ms(t.elapsed()));
        served.push(r.result);
    }

    // References, checked against ground truth; the warm-up answers
    // must already match them.
    let mut refs = HashMap::new();
    let mut rows = Vec::new();
    let fixed = gen::fixed_compute_specs();
    for (i, spec) in pool.iter().map(|q| &q.spec).chain(&fixed).enumerate() {
        let (bytes, report) = one_shot(spec)?;
        let mut verdict = truth::check_campaign_tasks(&report);
        if i < served.len() && served[i].as_deref() != Some(bytes.as_slice()) {
            verdict = Err(format!(
                "warm-up of {} differs from its one-shot run",
                spec.name
            ));
        }
        checks.record(verdict);
        rows.extend(report.records.into_iter().filter_map(|r| match r.result {
            Some(cr_campaign::TaskResult::Seh { summary, .. }) => Some(summary),
            _ => None,
        }));
        refs.insert(spec.to_json(), bytes);
    }
    checks.record(truth::check_seh_totals(rows.iter()));
    Ok(Ready {
        tier: running,
        addr,
        pool,
        refs,
        warmup_ms,
        setup: started.elapsed(),
        checks,
    })
}

/// Pass/fail tally of set-up checks.
#[derive(Debug, Default, Clone)]
struct Checks {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Checks {
    fn record(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = verdict {
            self.failed += 1;
            if self.notes.len() < 5 {
                self.notes.push(e);
            }
        }
    }
}

/// One finished request as a client saw it.
#[derive(Debug, Clone)]
struct Sample {
    class: Class,
    latency_ms: f64,
    /// Span split (admit, queue or dispatch, execute, respond), traced
    /// phase only.
    spans: Option<[f64; 4]>,
    /// Filter, module and image hits the Done frame reports.
    hits: u64,
    /// Whether the Done frame reports a fresh image parse.
    fresh_parse: bool,
}

/// What one client thread brings back.
#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    round_wall_s: Vec<f64>,
    failures: Vec<String>,
    failed: u64,
    /// Fresh-seed compute answers, verified after the phase.
    pending: Vec<(cr_campaign::CampaignSpec, Vec<u8>)>,
    pings_ms: Vec<f64>,
    queue_depths: Vec<f64>,
}

impl ClientLog {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(why);
        }
    }
}

/// What the tier answered to one request.
struct Answer {
    result: Option<Vec<u8>>,
    done: Option<String>,
    error: Option<String>,
    spans: Option<[f64; 4]>,
}

/// A checked answer's cache accounting, plus the served bytes when
/// the reference is only computed after the phase (fresh-seed arena).
struct Checked {
    unverified: Option<Vec<u8>>,
    hits: u64,
    fresh_parse: bool,
}

/// Check one answer against its reference and, for a lookup, that it
/// was served warm.
fn check(q: &Request, a: &Answer, refs: &HashMap<String, Vec<u8>>) -> Result<Checked, String> {
    let name = &q.spec.name;
    let done = match (&a.done, &a.error) {
        (Some(d), _) => Json::parse(d)?,
        (None, e) => return Err(format!("{name}: no Done ({e:?})")),
    };
    let field = |k: &str| done.get(k).and_then(Json::as_u64);
    if done.get("status").and_then(Json::as_str) != Some("ok") {
        return Err(format!("{name}: status not ok"));
    }
    let result = a
        .result
        .clone()
        .ok_or_else(|| format!("{name}: no Result"))?;
    let parse = done.get("parse").and_then(Json::as_str);
    if q.class == Class::Lookup {
        // A lookup that reached the solver or parsed an image measured
        // cold work, not a warm read.
        let want = if q.is_seh() { "cached" } else { "none" };
        if field("solver_calls") != Some(0) || parse != Some(want) {
            return Err(format!("{name}: not warm (done={:?})", a.done));
        }
    }
    let unverified = match refs.get(&q.payload) {
        Some(want) if *want == result => None,
        Some(_) => return Err(format!("{name}: result differs from its one-shot run")),
        None => Some(result),
    };
    let hits = ["filter_hits", "module_hits", "image_hits"]
        .iter()
        .filter_map(|k| field(k))
        .sum();
    Ok(Checked {
        unverified,
        hits,
        fresh_parse: parse == Some("fresh"),
    })
}

/// A client connection: the public client, or the frame-stamping one.
enum Conn {
    Plain(Client),
    Stamped(StampClient),
}

impl Conn {
    fn connect(addr: &str, traced: bool) -> std::io::Result<Conn> {
        Ok(if traced {
            Conn::Stamped(StampClient::connect(addr)?)
        } else {
            Conn::Plain(Client::connect(addr)?)
        })
    }

    fn request(&mut self, payload: &str, tier: Tier) -> std::io::Result<Answer> {
        match self {
            Conn::Plain(c) => c.request_with_retry(payload, BUSY_RETRIES).map(|r| Answer {
                error: r.error.or(r.busy),
                result: r.result,
                done: r.done,
                spans: None,
            }),
            Conn::Stamped(c) => c.request(payload, tier),
        }
    }
}

/// What every client of one phase shares.
#[derive(Clone, Copy)]
struct Plan {
    tier: Tier,
    seed: u64,
    /// Round index of each client's first round.
    first_round: u64,
    deadline: Instant,
    traced: bool,
}

/// Drive one closed-loop client for whole rounds until the deadline.
fn drive(plan: Plan, ready: &Ready, client_no: u64) -> ClientLog {
    let Plan { tier, seed, .. } = plan;
    let mut log = ClientLog::default();
    let mut conn = match Conn::connect(&ready.addr, plan.traced) {
        Ok(c) => c,
        Err(e) => {
            log.fail(format!("client {client_no}: connect: {e}"));
            return log;
        }
    };
    for r in plan.first_round.. {
        let round_started = Instant::now();
        for q in gen::round(tier.mix(), &ready.pool, seed, client_no, r) {
            let t = Instant::now();
            let answer = conn.request(&q.payload, tier);
            let latency_ms = ms(t.elapsed());
            let answer = match answer {
                Ok(a) => a,
                Err(e) => {
                    log.fail(format!("{}: transport: {e}", q.spec.name));
                    continue;
                }
            };
            let (hits, fresh_parse) = match check(&q, &answer, &ready.refs) {
                Ok(c) => {
                    if let Some(bytes) = c.unverified {
                        log.pending.push((q.spec.clone(), bytes));
                    }
                    (c.hits, c.fresh_parse)
                }
                Err(e) => {
                    log.fail(e);
                    (0, false)
                }
            };
            log.samples.push(Sample {
                class: q.class,
                latency_ms,
                spans: answer.spans,
                hits,
                fresh_parse,
            });
            if let Conn::Stamped(c) = &mut conn {
                if log.samples.len() % PING_EVERY == 0 {
                    match c.ping() {
                        Ok((rtt, depth)) => {
                            log.pings_ms.push(rtt);
                            log.queue_depths.push(depth);
                        }
                        Err(e) => log.fail(format!("ping: {e}")),
                    }
                }
            }
        }
        log.round_wall_s.push(round_started.elapsed().as_secs_f64());
        if Instant::now() >= plan.deadline {
            break;
        }
    }
    log
}

/// One measured phase: [`CLIENTS`] clients for a set time.
struct Phase {
    logs: Vec<ClientLog>,
    cpu_s: f64,
    /// Phase start until both clients finished their last round.
    wall_s: f64,
    counts: TierCounts,
    rounds: u64,
}

impl Phase {
    fn samples(&self, class: Class) -> impl Iterator<Item = &Sample> {
        self.logs
            .iter()
            .flat_map(|l| &l.samples)
            .filter(move |s| s.class == class)
    }

    fn latencies(&self, class: Class) -> Vec<f64> {
        self.samples(class).map(|s| s.latency_ms).collect()
    }
}

fn phase(
    tier: Tier,
    ready: &Ready,
    seed: u64,
    round_base: u64,
    seconds: f64,
    traced: bool,
) -> Phase {
    let before = ready.tier.counts();
    let cpu_before = usage().cpu_us;
    let started = Instant::now();
    let plan = Plan {
        tier,
        seed,
        first_round: round_base,
        deadline: started + Duration::from_secs_f64(seconds),
        traced,
    };
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| s.spawn(move || drive(plan, ready, c)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = (usage().cpu_us - cpu_before) as f64 / 1e6;
    let after = ready.tier.counts();
    let rounds = logs.iter().map(|l| l.round_wall_s.len() as u64).sum();
    Phase {
        logs,
        cpu_s,
        wall_s,
        rounds,
        counts: TierCounts {
            busy: after.busy - before.busy,
            admitted: after.admitted - before.admitted,
            coalesced: after.coalesced - before.coalesced,
            failovers: after.failovers - before.failovers,
            replications: after.replications - before.replications,
        },
    }
}

/// Verify the fresh-seed compute answers against one-shot runs (two
/// threads), then fold every client's failures into `out`.
fn settle(phase: &mut Phase, out: &mut Outcome) {
    let pending: Vec<_> = phase
        .logs
        .iter_mut()
        .flat_map(|l| std::mem::take(&mut l.pending))
        .collect();
    let failures = Mutex::new(Vec::new());
    let next = Mutex::new(pending.iter());
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| loop {
                let Some((spec, served)) = next.lock().expect("no verifier panicked").next() else {
                    return;
                };
                let verdict = one_shot(spec).and_then(|(bytes, report)| {
                    truth::check_campaign_tasks(&report)?;
                    if bytes == *served {
                        Ok(())
                    } else {
                        Err(format!(
                            "{}: result differs from its one-shot run",
                            spec.name
                        ))
                    }
                });
                if let Err(e) = verdict {
                    failures.lock().expect("no verifier panicked").push(e);
                }
            });
        }
    });
    for log in &phase.logs {
        out.attempted += log.samples.len() as u64 + log.failed;
        out.failed += log.failed;
        for f in &log.failures {
            out.note(f.clone());
        }
    }
    for f in failures.into_inner().expect("no verifier panicked") {
        out.failed += 1;
        out.note(f);
    }
}

/// Workload name of a tier.
pub fn tier_name(tier: Tier) -> &'static str {
    match tier {
        Tier::Serve => "serve-mixed",
        Tier::Fleet => "fleet-warm",
    }
}

/// Child: one set-up of `tier` and one untraced phase of a
/// [`PROCESSES`]th of `seconds`, reported as this process's value of
/// every end-to-end metric.
pub fn child_phase(tier: Tier, seed: u64, seconds: u64) -> Result<(), String> {
    child::say_ready();
    let ready = start(tier)?;
    let mut out = ready.outcome();
    let mut p = phase(
        tier,
        &ready,
        seed,
        0,
        seconds as f64 / PROCESSES as f64,
        false,
    );
    settle(&mut p, &mut out);
    let (lookups, computes) = (p.latencies(Class::Lookup), p.latencies(Class::Compute));
    let rounds: Vec<f64> = p.logs.iter().flat_map(|l| l.round_wall_s.clone()).collect();
    // The fleet's compute requests are its cold warm-ups. Compute
    // latencies fall in clusters by request kind or module size, and
    // their median lies in a gap between two clusters, where a small
    // slowdown moves it by a fifth or more; the mean moves with the
    // work.
    let compute_ms = match tier {
        Tier::Serve => mean(&computes),
        Tier::Fleet => mean(&ready.warmup_ms),
    };
    let warmups = ready.warmup_ms.len();
    let setup_s = ready.setup.as_secs_f64();
    if let Err(e) = ready.tier.stop(&ready.addr) {
        out.failed += 1;
        out.note(e);
    }
    let figures = [
        ("setup_s", setup_s),
        ("wall_s", median(&rounds)),
        ("cpu_s", p.cpu_s / p.rounds.max(1) as f64),
        (
            "throughput_rps",
            (lookups.len() + computes.len()) as f64 / p.wall_s,
        ),
        ("lookup_p50_ms", quantile(&lookups, 0.50)),
        ("lookup_p99_ms", quantile(&lookups, 0.99)),
        ("compute_p50_ms", compute_ms),
        ("peak_rss_mb", usage().maxrss_kb as f64 / 1024.0),
    ];
    let mut fields: Vec<(&str, String)> = figures
        .iter()
        .map(|(name, v)| (*name, format!("{v:?}")))
        .collect();
    fields.extend([
        ("attempted", out.attempted.to_string()),
        ("failed", out.failed.to_string()),
        ("why", out.notes.to_json()),
        ("rounds", p.rounds.to_string()),
        ("lookups", lookups.len().to_string()),
        (
            "computes",
            match tier {
                Tier::Serve => computes.len(),
                Tier::Fleet => warmups,
            }
            .to_string(),
        ),
    ]);
    child::emit(&fields);
    Ok(())
}

/// The untraced measurement: [`PROCESSES`] fresh processes one after
/// another, each with its own set-up and an equal share of the phase;
/// every end-to-end metric is the median over the processes.
pub fn run(tier: Tier, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut procs = Vec::new();
    for k in 0..PROCESSES {
        let c = child::spawn(&child::args(
            "phase",
            gen::iteration_seed(seed, k),
            &[
                ("--workload", tier_name(tier).to_string()),
                ("--seconds", seconds.to_string()),
            ],
        ))?;
        out.attempted += c.u("attempted");
        out.failed += c.u("failed");
        for why in c.why() {
            out.note(why);
        }
        procs.push(c);
    }
    for (k, c) in procs.iter().enumerate() {
        let figures: Vec<String> = crate::END_TO_END
            .iter()
            .map(|(name, _)| format!("{name}={:.6}", c.f(name)))
            .collect();
        eprintln!("cr-benchmark: process {k}: {}", figures.join(" "));
    }
    for (name, _) in crate::END_TO_END {
        let v = median(&procs.iter().map(|c| c.f(name)).collect::<Vec<_>>());
        out.metrics.set(name, v);
    }
    let total = |key: &str| procs.iter().map(|c| c.u(key) as usize).sum();
    out.samples = vec![
        ("processes", procs.len()),
        ("rounds", total("rounds")),
        ("lookup", total("lookups")),
        ("compute", total("computes")),
    ];
    Ok(out)
}

impl Ready {
    fn outcome(&self) -> Outcome {
        let mut out = Outcome {
            attempted: self.checks.attempted,
            failed: self.checks.failed,
            ..Outcome::default()
        };
        for n in &self.checks.notes {
            out.note(n.clone());
        }
        out
    }
}

/// The traced run: an untraced half, then a traced half with the
/// frame-stamping client; per-layer numbers come from the traced half,
/// tracing overhead from the difference.
pub fn run_traced(tier: Tier, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let ready = start(tier)?;
    let mut out = ready.outcome();
    let half = seconds as f64 / 2.0;
    let mut plain = phase(tier, &ready, seed, 0, half, false);
    settle(&mut plain, &mut out);
    let mut traced = phase(tier, &ready, seed, 1 << 20, half, true);
    settle(&mut traced, &mut out);

    let all: Vec<&Sample> = traced
        .samples(Class::Lookup)
        .chain(traced.samples(Class::Compute))
        .collect();
    let span_mean = |i: usize, class: Option<Class>| {
        mean(
            &all.iter()
                .filter(|s| class.is_none_or(|c| s.class == c))
                .filter_map(|s| s.spans.map(|sp| sp[i]))
                .collect::<Vec<_>>(),
        )
    };
    let latency = mean(&all.iter().map(|s| s.latency_ms).collect::<Vec<_>>());
    let spans_sum: f64 = (0..4).map(|i| span_mean(i, None)).sum();
    let pings: Vec<f64> = traced
        .logs
        .iter()
        .flat_map(|l| l.pings_ms.clone())
        .collect();
    let depths: Vec<f64> = traced
        .logs
        .iter()
        .flat_map(|l| l.queue_depths.clone())
        .collect();
    let plain_p50 = quantile(&plain.latencies(Class::Lookup), 0.5);
    let traced_p50 = quantile(&traced.latencies(Class::Lookup), 0.5);
    let c = traced.counts;
    let m = &mut out.metrics;
    m.set("request.latency_ms", latency);
    m.set("trace.samples", all.len() as f64);
    m.set("unattributed_ms", latency - spans_sum);
    m.set("unattributed_share", (latency - spans_sum) / latency);
    m.set("trace.overhead_ms", traced_p50 - plain_p50);
    m.set("trace.overhead_share", (traced_p50 - plain_p50) / plain_p50);
    m.set(
        "campaign.cache_hits",
        all.iter().map(|s| s.hits).sum::<u64>() as f64,
    );
    m.set(
        "campaign.cache_misses",
        all.iter().filter(|s| s.fresh_parse).count() as f64,
    );
    match tier {
        Tier::Serve => {
            m.set("serve.admit_ms", span_mean(0, None));
            m.set("serve.queue_wait_ms", span_mean(1, None));
            m.set("serve.execute_lookup_ms", span_mean(2, Some(Class::Lookup)));
            m.set(
                "serve.execute_compute_ms",
                span_mean(2, Some(Class::Compute)),
            );
            m.set("serve.respond_ms", span_mean(3, None));
            m.set("serve.ping_rtt_ms", median(&pings));
            m.set("serve.queue_depth", mean(&depths));
            m.set("serve.busy_rejections", c.busy as f64);
        }
        Tier::Fleet => {
            m.set("fleet.admit_ms", span_mean(0, None));
            m.set("fleet.dispatch_ms", span_mean(1, None));
            m.set("fleet.worker_execute_ms", span_mean(2, None));
            m.set("fleet.respond_ms", span_mean(3, None));
            m.set("fleet.ping_rtt_ms", median(&pings));
            m.set(
                "fleet.coalesced_share",
                c.coalesced as f64 / c.admitted.max(1) as f64,
            );
            m.set("fleet.failovers", c.failovers as f64);
            m.set("fleet.replications", c.replications as f64);
            // The workers are serve servers: their execute time is the
            // serve layer's share of a routed lookup.
            m.set("serve.execute_lookup_ms", span_mean(2, None));
        }
    }
    out.samples = vec![
        ("traced_requests", all.len()),
        ("untraced_lookups", plain.latencies(Class::Lookup).len()),
        ("pings", pings.len()),
    ];
    if let Err(e) = ready.tier.stop(&ready.addr) {
        out.failed += 1;
        out.note(e);
    }
    Ok(out)
}

/// A blocking client over the raw frame protocol that stamps the
/// arrival of every frame of a request.
pub struct StampClient {
    stream: TcpStream,
    next_id: u64,
}

impl StampClient {
    /// Connect and negotiate.
    pub fn connect(addr: &str) -> std::io::Result<StampClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut c = StampClient { stream, next_id: 0 };
        write_frame(
            &mut c.stream,
            &Frame::text(FrameKind::Hello, 0, hello_payload()),
        )?;
        let ack = c.read()?;
        if ack.kind != FrameKind::HelloAck {
            return Err(std::io::Error::other(format!("handshake: {:?}", ack.kind)));
        }
        Ok(c)
    }

    fn read(&mut self) -> std::io::Result<Frame> {
        read_frame(&mut self.stream).map_err(|e| match e {
            FrameError::Io(e) => e,
            other => std::io::Error::other(other.to_string()),
        })
    }

    /// Send one request (retrying Busy) and split its latency into
    /// four spans: admit (send → `queued`), queue wait or dispatch
    /// (`queued` → `running`, or `queued` → `fleet` minus the worker's
    /// execute time), execute (the `wall_us` the Done frame reports)
    /// and respond (the rest, up to `Done`).
    fn request(&mut self, payload: &str, tier: Tier) -> std::io::Result<Answer> {
        // Busy retries count as admission time, so the spans still add
        // up to the caller's latency.
        let t0 = Instant::now();
        for attempt in 0..=BUSY_RETRIES {
            self.next_id += 1;
            let id = self.next_id;
            write_frame(
                &mut self.stream,
                &Frame::text(FrameKind::Request, id, payload),
            )?;
            let (mut queued, mut started) = (None, None);
            let mut result = None;
            loop {
                let f = self.read()?;
                if f.request_id != id {
                    continue;
                }
                let at = ms(t0.elapsed());
                match f.kind {
                    FrameKind::Progress => {
                        let p = Json::parse(&f.payload_str()).ok();
                        match p.as_ref().and_then(|p| p.get("event")?.as_str()) {
                            Some("queued" | "coalesced") => queued = Some(at),
                            Some("running" | "fleet") => started = Some(at),
                            _ => {}
                        }
                    }
                    FrameKind::Result => result = Some(f.payload),
                    FrameKind::Busy if attempt < BUSY_RETRIES => {
                        std::thread::sleep(Duration::from_millis(5));
                        break;
                    }
                    FrameKind::Done => {
                        let done = f.payload_str();
                        let exec = Json::parse(&done)
                            .ok()
                            .and_then(|d| d.get("wall_us")?.as_u64())
                            .unwrap_or(0) as f64
                            / 1e3;
                        let q = queued.unwrap_or(0.0);
                        let s = started.unwrap_or(q);
                        let spans = match tier {
                            Tier::Serve => [q, s - q, exec, at - s - exec],
                            Tier::Fleet => [q, s - q - exec, exec, at - s],
                        };
                        return Ok(Answer {
                            result,
                            done: Some(done),
                            error: None,
                            spans: Some(spans),
                        });
                    }
                    _ => {
                        return Ok(Answer {
                            result,
                            done: None,
                            error: Some(format!("{:?}: {}", f.kind, f.payload_str())),
                            spans: None,
                        })
                    }
                }
            }
        }
        Err(std::io::Error::other("busy after every retry"))
    }

    /// One heartbeat: round-trip milliseconds and the reported queue.
    fn ping(&mut self) -> std::io::Result<(f64, f64)> {
        self.next_id += 1;
        let t0 = Instant::now();
        write_frame(
            &mut self.stream,
            &Frame::text(FrameKind::Ping, self.next_id, "{}"),
        )?;
        let f = self.read()?;
        let rtt = ms(t0.elapsed());
        let depth = Json::parse(&f.payload_str())
            .ok()
            .and_then(|p| p.get("queue_len")?.as_u64())
            .unwrap_or(0);
        Ok((rtt, depth as f64))
    }
}
