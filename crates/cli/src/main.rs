//! `crash-resist` — command-line front end for the discovery framework.
//!
//! Every verb, its operands and its flags are declared once, in
//! [`VERBS`]: [`parse`] applies a verb's row to the command line, and
//! the same rows print `crash-resist help` and `crash-resist <verb>
//! --help`.
//!
//! All machine-readable output (`--json`, `--summary-json`) is framed
//! in the versioned [`cr_campaign::Report`] envelope
//! (`{"schema_version":1,"kind":…,"results":…,"metrics":…}`), and
//! `campaign`/`arena`/`chaos` accept `--trace FILE` to capture a
//! structured execution trace (`report` renders it).
//!
//! Exit codes: `0` success, `1` runtime failure (e.g. a campaign task
//! kept panicking, or a chaos invariant broke), `2` usage error, `3`
//! unknown target name, `4` campaign completed but degraded (some
//! tasks produced no result).

use cr_campaign::{
    expected_error_counts, run_campaign, AnalysisCache, CampaignSpec, EngineConfig, ErrorCounts,
    Report, ReportKind, TaskResult,
};
use cr_chaos::{FaultInjector, FaultPlan, Site, BUILTIN_PLANS};
use cr_core::report::render_findings;
use cr_core::seh::{analyze_module, FilterClass, PeCode};
use cr_core::static_cfg;
use cr_core::syscall_finder::discover_server;
use cr_exploits::{MemoryOracle, ProbeResult};
use cr_image::FilterRef;
use cr_symex::{ExplorationReport, FilterExplorer, FilterVerdict};
use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

/// Success.
const EXIT_OK: i32 = 0;
/// A task or analysis failed at runtime.
const EXIT_RUNTIME: i32 = 1;
/// Malformed invocation (bad flag, missing operand, unparseable file).
const EXIT_USAGE: i32 = 2;
/// Syntactically fine, but the named server/DLL/oracle does not exist.
const EXIT_UNKNOWN_TARGET: i32 = 3;
/// The campaign completed and the report is sound, but at least one
/// task has no result: coverage is partial.
const EXIT_DEGRADED: i32 = 4;

/// What a verb returns: `Ok` with its exit code, or `Err` with the exit
/// code of an error it has already reported on stderr.
type Outcome = Result<i32, i32>;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        None | Some("help" | "-h" | "--help") => {
            print!("{}", help());
            EXIT_OK
        }
        Some(name) => match VERBS.iter().find(|v| v.name == name) {
            // `<verb> --help` (or `-h`) anywhere after the verb asks for help.
            Some(verb) if args[1..].iter().any(|a| a == "--help" || a == "-h") => {
                print!("{}", verb.help());
                EXIT_OK
            }
            Some(verb) => parse(verb, &args[1..])
                .and_then(|a| (verb.run)(&a))
                .unwrap_or_else(|code| code),
            None => {
                let names: Vec<&str> = VERBS.iter().map(|v| v.name).collect();
                eprintln!(
                    "unknown command {name:?} (expected one of: {})",
                    names.join(" ")
                );
                eprint!("{}", help());
                EXIT_USAGE
            }
        },
    };
    std::process::exit(code);
}

/// One flag of a verb. A flag with an empty `metavar` is a switch; any
/// other flag takes the next argument as its value.
struct Flag {
    name: &'static str,
    metavar: &'static str,
    /// The value when the flag is absent; empty for none.
    default: &'static str,
    help: &'static str,
}

const fn switch(name: &'static str, help: &'static str) -> Flag {
    value(name, "", "", help)
}

const fn value(
    name: &'static str,
    metavar: &'static str,
    default: &'static str,
    help: &'static str,
) -> Flag {
    Flag {
        name,
        metavar,
        default,
        help,
    }
}

/// One verb: its operands, its flags and the function that runs it.
struct Verb {
    name: &'static str,
    /// `(operand, help)`: `<x>` is required, `[x]` optional, and a
    /// trailing `...` takes any number more.
    operands: &'static [(&'static str, &'static str)],
    about: &'static str,
    /// Flag groups; verbs share the groups they have in common.
    flags: &'static [&'static [Flag]],
    run: fn(&Args) -> Outcome,
}

const JSON: Flag = switch("--json", "emit the report as a versioned JSON envelope");
#[rustfmt::skip]
const SEED: Flag =
    value("--seed", "S", "", "RNG and fault-plan seed (default $CR_SEED, else 2017)");
#[rustfmt::skip]
const SPEC: Flag = value("--spec", "FILE", "", "JSON campaign spec (default: the built-in one)");

/// The campaign engine flags of every verb that runs campaigns itself.
#[rustfmt::skip]
const ENGINE: &[Flag] = &[
    value("--jobs", "N", "1", "campaign worker threads"),
    value("--retries", "R", "1", "extra attempts for a failing task"),
    value("--deadline-ms", "D", "200", "per-attempt virtual-time deadline, 0 for none"),
    value("--cache", "DIR", "", "load the analysis cache from DIR and save it there"),
];

/// `campaign`, `arena` and `chaos` share these besides [`ENGINE`].
#[rustfmt::skip]
const CAMPAIGN: &[Flag] = &[
    SPEC,
    SEED,
    value("--trace", "FILE", "", "write a structured execution trace (JSONL) here"),
];

/// Every verb, in `help` order.
#[rustfmt::skip]
const VERBS: &[Verb] = &[
    Verb { name: "discover", about: "run the Table-I pipeline on one server", run: cmd_discover,
        operands: &[("<server>", "a server target (see `list`)")], flags: &[] },
    Verb { name: "analyze", about: "SEH analysis of a calibrated system DLL", run: cmd_analyze,
        operands: &[("<dll>", "a calibrated system DLL (see `list`)")], flags: &[] },
    Verb { name: "explore", about: "per-path exploration of every __except filter",
        run: cmd_explore,
        operands: &[("<dll>", "a calibrated DLL name or the loopy family (see `list`)")],
        flags: &[&[JSON]] },
    Verb { name: "cfg", about: "static CFG recovery + syscall sites", run: cmd_cfg,
        operands: &[("<server>", "a server target (see `list`)")], flags: &[] },
    Verb { name: "scan", about: "traceless syscall-site scan (one module, or --all)",
        run: cmd_scan,
        operands: &[("[module]", "a server target or corpus module (see `list`)")],
        flags: &[&[
            switch("--all", "scan every server and corpus module instead of one"),
            switch("--cross-validate", "also run the taint observer (servers only)"),
            JSON,
        ]] },
    Verb { name: "funnel", about: "run the §V-B Windows API funnel", run: cmd_funnel,
        operands: &[("[corpus-size]", "functions in the API corpus (default 2000)")], flags: &[] },
    Verb { name: "poc", about: "probe an address with a §VI oracle", run: cmd_poc,
        operands: &[("<oracle>", "ie, firefox or nginx"), ("<hexaddr>", "the address to probe")],
        flags: &[] },
    Verb { name: "campaign", about: "run a sharded discovery campaign", run: cmd_campaign,
        operands: &[], flags: &[ENGINE, CAMPAIGN, &[JSON]] },
    Verb { name: "arena", about: "probing strategies vs the detector roster", run: cmd_arena,
        operands: &[], flags: &[ENGINE, CAMPAIGN, &[JSON]] },
    Verb { name: "chaos", about: "run a campaign under a fault plan + invariant checks",
        run: cmd_chaos, operands: &[], flags: &[ENGINE, CAMPAIGN, &[
            value("--plan", "NAME", "mayhem", "built-in fault plan (see `list`)"),
            switch("--json", "emit the cold run's full report as JSON"),
            switch("--summary-json", "emit a compact machine-checkable summary as JSON"),
        ]] },
    Verb { name: "serve", about: "run the long-lived analysis server", run: cmd_serve,
        operands: &[], flags: &[ENGINE, &[
            value("--addr", "A", "127.0.0.1:0", "bind address; port 0 picks a free one"),
            value("--request-deadline-ms", "D", "0", "wall-clock deadline per request, 0 for none"),
            value("--capacity", "N", "8", "admission queue depth; beyond it requests get Busy"),
            value("--plan", "NAME", "", "arm a fault plan on the serve sites (try: wire)"),
            SEED,
            switch("--stats-json", "on shutdown, emit lifetime stats as a JSON envelope"),
        ]] },
    Verb { name: "fleet", about: "run a supervised serve fleet + invariant suite", run: cmd_fleet,
        operands: &[], flags: &[&[
            value("--workers", "N", "3", "serve workers behind the router"),
            value("--requests", "N", "4", "distinct campaign requests to drive through"),
            value("--plan", "NAME", "", "arm a fault plan on the fleet sites (try: fleet)"),
            SEED,
            value("--kill-request", "K", "", "kill the serving worker mid-request at admission K"),
            switch("--rolling-restart", "rotate every worker under load, then re-verify"),
            switch("--summary-json", "emit the invariant verdict + stats as a JSON envelope"),
        ]] },
    Verb { name: "client", about: "send campaign requests to a server", run: cmd_client,
        operands: &[], flags: &[&[
            value("--addr", "A", "", "server address (required)"),
            SPEC,
            SEED,
            value("--jobs", "N", "", "ask the server to run this request on N workers"),
            value("--retries", "R", "", "per-task retry count for this request"),
            value("--deadline-ms", "D", "", "wall-clock deadline for this request, server-side"),
            value("--repeat", "N", "1", "send the request N times over one connection"),
            value("--busy-retries", "N", "3", "retry a Busy rejection up to N times"),
            switch("--json", "print the final deterministic result document"),
            switch("--stats", "print each request's Done payload (advisory stats)"),
            switch("--shutdown", "then stop the server; with no flag but --addr, send no request"),
        ]] },
    Verb { name: "report", about: "per-stage latencies + timeline from traces", run: cmd_report,
        operands: &[("<trace>...", "trace files written by --trace")], flags: &[&[JSON]] },
    Verb { name: "list", about: "list available servers/DLLs/oracles/fault plans", run: cmd_list,
        operands: &[], flags: &[&[JSON]] },
];

impl Verb {
    fn flags(&self) -> impl Iterator<Item = &'static Flag> {
        self.flags.iter().copied().flatten()
    }

    fn flag(&self, name: &str) -> Option<&'static Flag> {
        self.flags().find(|f| f.name == name)
    }

    /// `crash-resist <verb> <operands> [options]`.
    fn usage(&self) -> String {
        let operands: String = self.operands.iter().map(|(o, _)| format!(" {o}")).collect();
        let options = (!self.flags.is_empty()).then_some(" [options]");
        let options = options.unwrap_or_default();
        format!("crash-resist {}{operands}{options}", self.name)
    }

    fn help(&self) -> String {
        let mut out = format!("USAGE:\n    {}\n    {}\n", self.usage(), self.about);
        if !self.operands.is_empty() {
            out += "\nOPERANDS:\n";
            for (operand, help) in self.operands {
                let _ = writeln!(out, "    {operand:<24} {help}");
            }
        }
        out += "\nOPTIONS:\n";
        for f in self.flags() {
            let default = match f.default {
                "" => String::new(),
                d => format!(" (default {d})"),
            };
            let left = format!("{} {}", f.name, f.metavar);
            let _ = writeln!(out, "    {:<24} {}{default}", left.trim_end(), f.help);
        }
        let _ = writeln!(out, "    {:<24} print this help", "-h, --help");
        out
    }
}

/// The top-level help: one usage line per verb, from [`VERBS`].
fn help() -> String {
    let rows: Vec<(String, &str)> = VERBS
        .iter()
        .map(|v| (v.usage(), v.about))
        .chain([(
            "crash-resist <command> --help".into(),
            "print one command's options (also -h)",
        )])
        .collect();
    let width = rows.iter().map(|(u, _)| u.len()).max().unwrap_or(0);
    let mut out = String::from(
        "crash-resist — discovery of crash-resistant primitives (DSN'17 reproduction)\n\nUSAGE:\n",
    );
    for (usage, about) in &rows {
        let _ = writeln!(out, "    {usage:<width$}  {about}");
    }
    out + "
ENVIRONMENT:
    CR_SEED         default seed when --seed is not given

EXIT CODES:
    0 success           1 runtime failure / broken chaos invariant
    2 usage error       3 unknown target or fault plan
    4 campaign completed but degraded (some tasks have no result)
"
}

/// A verb's command line after its row of [`VERBS`] has been applied.
struct Args {
    verb: &'static Verb,
    operands: Vec<String>,
    /// The flags given, by name; the last occurrence wins and a switch
    /// maps to the empty string.
    given: BTreeMap<&'static str, String>,
}

/// Apply `verb`'s row to `args`: every flag must be in the row and
/// every flag with a metavar must have a value; the operand count must
/// fit the row's operands. A usage error is reported here.
fn parse(verb: &'static Verb, args: &[String]) -> Result<Args, i32> {
    let mut out = Args {
        verb,
        operands: Vec::new(),
        given: BTreeMap::new(),
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if !arg.starts_with('-') {
            out.operands.push(arg.clone());
            continue;
        }
        let Some(flag) = verb.flag(arg) else {
            let msg = format!("unknown {} option {arg:?}", verb.name);
            return Err(usage_error(verb, &msg));
        };
        let value = match flag.metavar {
            "" => String::new(),
            _ => match args.next() {
                Some(v) => v.clone(),
                None => return Err(usage_error(verb, &format!("{arg} needs a value"))),
            },
        };
        out.given.insert(flag.name, value);
    }
    let required = verb
        .operands
        .iter()
        .filter(|(o, _)| o.starts_with('<'))
        .count();
    let unbounded = verb.operands.iter().any(|(o, _)| o.ends_with("..."));
    if out.operands.len() < required {
        let missing = verb.operands[out.operands.len()].0;
        return Err(usage_error(verb, &format!("{} needs {missing}", verb.name)));
    }
    if !unbounded && out.operands.len() > verb.operands.len() {
        let extra = &out.operands[verb.operands.len()];
        let msg = format!("unexpected {} operand {extra:?}", verb.name);
        return Err(usage_error(verb, &msg));
    }
    Ok(out)
}

fn usage_error(verb: &Verb, msg: &str) -> i32 {
    eprintln!("{msg}");
    eprintln!("usage: {}", verb.usage());
    EXIT_USAGE
}

/// Report `msg` on stderr and hand back `code`.
fn fail(code: i32, msg: impl std::fmt::Display) -> i32 {
    eprintln!("{msg}");
    code
}

/// Report that no `what` is called `name`.
fn unknown(what: &str, name: &str) -> i32 {
    let msg = format!("unknown {what} {name:?} (try `crash-resist list`)");
    fail(EXIT_UNKNOWN_TARGET, msg)
}

impl Args {
    /// Whether the flag `name` was given.
    fn has(&self, name: &str) -> bool {
        self.given.contains_key(name)
    }

    /// The value of `name` as given, else its default; `None` for an
    /// absent flag without a default.
    fn value(&self, name: &str) -> Option<&str> {
        let flag = self
            .verb
            .flag(name)
            .expect("verbs read only their own flags");
        match self.given.get(name) {
            Some(v) => Some(v),
            None => Some(flag.default).filter(|d| !d.is_empty()),
        }
    }

    fn path(&self, name: &str) -> Option<PathBuf> {
        self.value(name).map(PathBuf::from)
    }

    /// The value of `name` as a number, if it has one; a malformed one
    /// is a usage error.
    fn opt_num<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, i32> {
        let Some(v) = self.value(name) else {
            return Ok(None);
        };
        let msg = format!("bad {name} value {v:?} (want a non-negative integer)");
        v.parse().map(Some).map_err(|_| fail(EXIT_USAGE, msg))
    }

    /// The value of `name`, a numeric flag with a default.
    fn num<T: std::str::FromStr>(&self, name: &str) -> Result<T, i32> {
        Ok(self.opt_num(name)?.expect("numeric flag has a default"))
    }

    /// A deadline in milliseconds, where 0 means none.
    fn deadline(&self, name: &str) -> Result<Option<u64>, i32> {
        Ok(self.opt_num(name)?.filter(|&d| d != 0))
    }
}

/// Seed precedence: explicit flag, then `CR_SEED`, then the default.
fn effective_seed(flag: Option<u64>) -> u64 {
    flag.or_else(|| std::env::var("CR_SEED").ok().and_then(|s| s.parse().ok()))
        .unwrap_or(cr_campaign::DEFAULT_SEED)
}

/// The built-in fault plan `name`, reseeded with `seed`.
fn fault_plan(name: &str, seed: u64) -> Result<FaultPlan, i32> {
    let Some(plan) = FaultPlan::builtin(name) else {
        let have = BUILTIN_PLANS.join(" ");
        let msg = format!("unknown fault plan {name:?} (have: {have})");
        return Err(fail(EXIT_UNKNOWN_TARGET, msg));
    };
    Ok(plan.with_seed(seed))
}

/// An injector for the `--plan` flag, if one was given.
fn plan_injector(a: &Args, seed: u64) -> Result<Option<Arc<FaultInjector>>, i32> {
    let plan = a
        .value("--plan")
        .map(|name| fault_plan(name, seed))
        .transpose()?;
    Ok(plan.map(|p| Arc::new(FaultInjector::new(p))))
}

/// Resolve the campaign spec: `--spec FILE`, else `fallback`, with an
/// explicit seed (`--seed` or `CR_SEED`) overriding the spec's own.
fn resolve_spec(a: &Args, fallback: impl FnOnce(u64) -> CampaignSpec) -> Result<CampaignSpec, i32> {
    let seed_flag = a.opt_num("--seed")?;
    let mut spec = match a.path("--spec") {
        Some(path) => {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| fail(EXIT_USAGE, format!("cannot read {}: {e}", path.display())))?;
            CampaignSpec::from_json(&text)
                .map_err(|e| fail(EXIT_USAGE, format!("bad spec {}: {e}", path.display())))?
        }
        None => fallback(effective_seed(seed_flag)),
    };
    if seed_flag.is_some() || std::env::var("CR_SEED").is_ok() {
        spec.seed = effective_seed(seed_flag);
    }
    Ok(spec)
}

/// The engine configuration from the [`ENGINE`] flags.
fn engine_config(a: &Args) -> Result<EngineConfig, i32> {
    Ok(EngineConfig {
        jobs: a.num("--jobs")?,
        retries: a.num("--retries")?,
        cache_dir: a.path("--cache"),
        deadline_ms: a.deadline("--deadline-ms")?,
        ..EngineConfig::default()
    })
}

/// Run `f`, collecting a structured trace into `--trace FILE` if given.
fn traced<T>(a: &Args, f: impl FnOnce() -> T) -> Result<T, i32> {
    let Some(path) = a.path("--trace") else {
        return Ok(f());
    };
    cr_trace::start();
    let out = f();
    let trace = cr_trace::finish();
    std::fs::write(&path, trace.to_jsonl()).map_err(|e| {
        fail(
            EXIT_RUNTIME,
            format!("cannot write trace {}: {e}", path.display()),
        )
    })?;
    eprintln!(
        "trace: {} event(s) ({} dropped) -> {}",
        trace.events.len(),
        trace.dropped,
        path.display()
    );
    Ok(out)
}

/// The oracles `poc` can drive.
const ORACLES: [&str; 3] = ["ie", "firefox", "nginx"];

/// `list --json` results.
#[derive(Serialize)]
struct Listing {
    servers: Vec<&'static str>,
    dlls: Vec<&'static str>,
    oracles: &'static [&'static str],
    plans: &'static [&'static str],
}

fn cmd_list(a: &Args) -> Outcome {
    let listing = Listing {
        servers: cr_targets::all_servers().iter().map(|t| t.name).collect(),
        dlls: cr_targets::browsers::CALIBRATION
            .iter()
            .map(|c| c.name)
            .collect(),
        oracles: &ORACLES,
        plans: &BUILTIN_PLANS,
    };
    if a.has("--json") {
        let report = Report::builder(ReportKind::List)
            .results_of(&listing)
            .build();
        println!("{}", report.to_json());
    } else {
        println!("servers:  {}", listing.servers.join(" "));
        println!("dlls:     {}", listing.dlls.join(" "));
        println!("oracles:  {}", listing.oracles.join(" "));
        println!("plans:    {}", listing.plans.join(" "));
    }
    Ok(EXIT_OK)
}

/// The server target called `name`.
fn server(name: &str) -> Result<cr_targets::ServerTarget, i32> {
    cr_targets::all_servers()
        .into_iter()
        .find(|t| t.name == name)
        .ok_or_else(|| unknown("server", name))
}

/// The calibrated system DLL called `name`, generated.
fn calibrated_dll(name: &str) -> Option<cr_image::PeImage> {
    let calibration = cr_targets::browsers::CALIBRATION;
    let (i, c) = calibration
        .iter()
        .enumerate()
        .find(|(_, c)| c.name == name)?;
    Some(cr_targets::browsers::generate_dll(
        &cr_targets::browsers::DllSpec::from_calib_x64(c, i),
    ))
}

fn cmd_discover(a: &Args) -> Outcome {
    let name = &a.operands[0];
    let target = server(name)?;
    eprintln!("discovering crash-resistant primitives in {name} ...");
    print!("{}", render_findings(&discover_server(&target)));
    Ok(EXIT_OK)
}

fn cmd_analyze(a: &Args) -> Outcome {
    let name = &a.operands[0];
    let img = calibrated_dll(name).ok_or_else(|| unknown("dll", name))?;
    let m = analyze_module(&img);
    println!(
        "{}: {} guarded functions, {} AV-capable after symbolic execution",
        m.module, m.guarded_before, m.guarded_after
    );
    println!(
        "filters: {} unique, {} survive, {} undecided",
        m.filters_before, m.filters_after, m.filters_undecided
    );
    for f in m.functions.iter().filter(|f| f.survives()).take(10) {
        for s in f.scopes.iter().filter(|s| s.class.survives()) {
            let why = match &s.class {
                FilterClass::CatchAll => "catch-all".to_string(),
                FilterClass::AcceptsAv { witness } => format!("accepts AV (witness {witness:#x})"),
                FilterClass::Undecided { reason } => format!("undecided: {reason}"),
                // `survives()` filters these out above, but render
                // them gracefully rather than crash if that coupling
                // ever loosens.
                FilterClass::RejectsAv => "rejects AV (proven crash-intolerant)".to_string(),
            };
            println!("  candidate {:#x}..{:#x}  {}", s.begin_va, s.end_va, why);
        }
    }
    Ok(EXIT_OK)
}

fn verdict_word(v: &FilterVerdict) -> &'static str {
    match v {
        FilterVerdict::AcceptsAccessViolation { .. } => "accepts-av",
        FilterVerdict::RejectsAccessViolation => "rejects-av",
        FilterVerdict::Unknown(_) => "undecided",
    }
}

/// One filter of `explore --json`.
struct FilterRow {
    filter: String,
    report: ExplorationReport,
}

/// Written by hand: only an accepting verdict carries a `witness` and
/// only an undecided one a `reason`.
impl Serialize for FilterRow {
    fn write_json(&self, out: &mut String) {
        let r = &self.report;
        out.push_str("{\"filter\":");
        self.filter.write_json(out);
        out.push_str(",\"verdict\":");
        verdict_word(&r.verdict).write_json(out);
        let note = match &r.verdict {
            FilterVerdict::AcceptsAccessViolation { witness_code } => {
                Some(("witness", format!("{witness_code:#x}")))
            }
            FilterVerdict::Unknown(reason) => Some(("reason", reason.to_string())),
            FilterVerdict::RejectsAccessViolation => None,
        };
        if let Some((key, note)) = note {
            out.push_str(&format!(",\"{key}\":"));
            note.write_json(out);
        }
        for (key, n) in [
            ("paths", r.paths.len()),
            ("completed", r.completed_paths),
            ("aborted", r.aborted_paths.len()),
            ("pruned", r.pruned_branches),
            ("steps", r.steps),
        ] {
            out.push_str(&format!(",\"{key}\":{n}"));
        }
        out.push('}');
    }
}

/// `explore --json` results.
#[derive(Serialize)]
struct Exploration {
    module: String,
    /// Always `"incremental"`: the explorer solves sibling paths on one
    /// incremental session.
    mode: &'static str,
    filters: Vec<FilterRow>,
    summary: VerdictCounts,
}

#[derive(Serialize)]
struct VerdictCounts {
    accepts: usize,
    rejects: usize,
    undecided: usize,
}

/// `explore --json` metrics: their values depend on memo state shared
/// with whatever else ran in this process.
#[derive(Serialize)]
struct SolverCounters {
    solver_calls: u64,
    memo_lookups: u64,
    memo_hits: u64,
}

/// `crash-resist explore`: run the path-enumerating [`FilterExplorer`]
/// over every `__except` filter of one generated module and report
/// per-filter path verdicts. `--json` frames the deterministic
/// per-filter records in a [`ReportKind::Explore`] envelope with the
/// aggregated solver counters as `metrics`.
fn cmd_explore(a: &Args) -> Outcome {
    let name = &a.operands[0];
    let image = match name.as_str() {
        "loopy" => cr_targets::browsers::generate_loopy_dll(),
        _ => calibrated_dll(name).ok_or_else(|| {
            let msg = format!("unknown dll {name:?} (try `crash-resist list`, or \"loopy\")");
            fail(EXIT_UNKNOWN_TARGET, msg)
        })?,
    };

    let base = image.image_base;
    let code = PeCode::new(&image);
    let mut filter_rvas: Vec<u32> = image
        .runtime_functions
        .iter()
        .flat_map(|rf| rf.unwind.scopes.iter())
        .filter_map(|s| match s.filter {
            FilterRef::Function(rva) => Some(rva),
            FilterRef::CatchAll => None,
        })
        .collect();
    filter_rvas.sort_unstable();
    filter_rvas.dedup();

    // Reverse export map gives filters their calibrated names; unnamed
    // filters fall back to their RVA.
    let labels: BTreeMap<u32, &str> = image
        .exports
        .iter()
        .map(|(n, &rva)| (rva, n.as_str()))
        .collect();
    let explorer = FilterExplorer::builder().build();
    let rows: Vec<FilterRow> = filter_rvas
        .iter()
        .map(|&rva| FilterRow {
            filter: labels
                .get(&rva)
                .map_or_else(|| format!("{rva:#x}"), |n| (*n).to_string()),
            report: explorer.explore(&code, base + rva as u64),
        })
        .collect();

    if a.has("--json") {
        let count = |w: &str| {
            rows.iter()
                .filter(|r| verdict_word(&r.report.verdict) == w)
                .count()
        };
        let sum = |f: fn(&ExplorationReport) -> u64| rows.iter().map(|r| f(&r.report)).sum::<u64>();
        let metrics = SolverCounters {
            solver_calls: sum(|r| r.solver_calls),
            memo_lookups: sum(|r| r.memo_lookups),
            memo_hits: sum(|r| r.memo_hits),
        };
        let results = Exploration {
            module: image.name,
            mode: "incremental",
            summary: VerdictCounts {
                accepts: count("accepts-av"),
                rejects: count("rejects-av"),
                undecided: count("undecided"),
            },
            filters: rows,
        };
        let report = Report::builder(ReportKind::Explore)
            .results_of(&results)
            .metrics_of(&metrics)
            .build();
        println!("{}", report.to_json());
        return Ok(EXIT_OK);
    }

    println!(
        "{}: {} unique filter(s), incremental mode",
        image.name,
        rows.len()
    );
    for FilterRow { filter, report: r } in &rows {
        let why = match &r.verdict {
            FilterVerdict::AcceptsAccessViolation { witness_code } => {
                format!("accepts AV (witness {witness_code:#x})")
            }
            FilterVerdict::RejectsAccessViolation => "rejects AV".to_string(),
            FilterVerdict::Unknown(reason) => format!("undecided: {reason}"),
        };
        println!(
            "  {filter:<24} {why}  [{} path(s), {} completed, {} aborted, {} pruned, {} steps]",
            r.paths.len(),
            r.completed_paths,
            r.aborted_paths.len(),
            r.pruned_branches,
            r.steps
        );
    }
    Ok(EXIT_OK)
}

fn cmd_cfg(a: &Args) -> Outcome {
    let name = &a.operands[0];
    let target = server(name)?;
    let seg = &target.image.segments[0];
    let src = (seg.vaddr, seg.data.as_slice());
    let cfg = static_cfg::analyze(&src, &[target.image.entry]);
    println!(
        "{name}: {} functions, {} instructions, {} static syscall sites",
        cfg.functions.len(),
        cfg.inst_count(),
        cfg.syscall_sites().len()
    );
    for site in cfg.syscall_sites() {
        println!("  syscall @ {site:#x}");
    }
    Ok(EXIT_OK)
}

/// `scan --json` results.
#[derive(Serialize)]
struct Scans {
    scans: Vec<cr_scan::ScanReport>,
    agreements: Vec<cr_scan::Agreement>,
}

/// `crash-resist scan`: run the traceless static backend over one
/// module (server target or harness-less corpus module) or, with
/// `--all`, the whole bundled corpus. `--cross-validate` additionally
/// runs the taint observer on server targets and reports site-level
/// agreement. `--json` frames everything in a [`ReportKind::Scan`]
/// envelope: `{"scans":[…],"agreements":[…]}`.
fn cmd_scan(a: &Args) -> Outcome {
    let xval = a.has("--cross-validate");
    let all = a.has("--all");
    let module = a.operands.first();
    if all == module.is_some() {
        return Err(usage_error(a.verb, "scan takes one <module> or --all"));
    }

    let servers = cr_targets::all_servers();
    let mut out = Scans {
        scans: Vec::new(),
        agreements: Vec::new(),
    };
    let mut scan_server = |t: &cr_targets::ServerTarget| {
        if xval {
            let (scan, agreement) = cr_scan::cross_validate(t);
            out.scans.push(scan);
            out.agreements.push(agreement);
        } else {
            out.scans.push(cr_scan::scan_elf(t.name, &t.image));
        }
    };
    if let Some(name) = module {
        if let Some(t) = servers.iter().find(|t| t.name == *name) {
            scan_server(t);
        } else if let Some(m) = cr_targets::corpus::module(name) {
            if xval {
                let msg = format!(
                    "--cross-validate needs a dynamic harness; corpus module {name:?} has none"
                );
                return Err(fail(EXIT_USAGE, msg));
            }
            out.scans.push(cr_scan::scan_elf(m.name, &m.image));
        } else {
            return Err(unknown("module", name));
        }
    } else {
        for t in &servers {
            scan_server(t);
        }
        // Corpus modules have no harness; they are the traceless-only
        // half of the sweep.
        for m in cr_targets::corpus::modules() {
            out.scans.push(cr_scan::scan_elf(m.name, &m.image));
        }
    }

    if a.has("--json") {
        let report = Report::builder(ReportKind::Scan).results_of(&out).build();
        println!("{}", report.to_json());
        return Ok(EXIT_OK);
    }

    for s in &out.scans {
        let c = s.counts();
        println!(
            "{}: {} syscall site(s) in {} function(s), {} instruction(s)",
            s.module, c.sites, s.functions, s.instructions
        );
        println!(
            "  numbers:  {} constant, {} memory-loaded, {} register, {} unknown",
            c.constant, c.memory, c.register, c.unknown
        );
        println!(
            "  temporal: {} init-only, {} serving, {} both, {} unreached",
            c.init_only, c.serving, c.both, c.unreached
        );
        if !all {
            for site in &s.sites {
                let what = site
                    .name()
                    .map(String::from)
                    .unwrap_or_else(|| format!("<{}>", site.number.tag()));
                println!("  {:#x}  {:<12} [{}]", site.va, what, site.temporal.tag());
            }
        }
    }
    for g in &out.agreements {
        println!(
            "agreement {}: {} matched, {} static-only, {} taint-only (recall {:.0}%)",
            g.module,
            g.matched.len(),
            g.static_only.len(),
            g.taint_only.len(),
            g.recall() * 100.0
        );
    }
    Ok(EXIT_OK)
}

fn cmd_funnel(a: &Args) -> Outcome {
    let corpus = match a.operands.first() {
        None => 2_000,
        Some(s) => s
            .parse()
            .map_err(|_| fail(EXIT_USAGE, format!("bad corpus size {s:?}")))?,
    };
    let seed = effective_seed(None);
    eprintln!("building ie-sim with a {corpus}-function corpus (seed {seed}) ...");
    let mut sim = cr_targets::browsers::ie::build_with_corpus(corpus, seed);
    let report = cr_core::api_fuzzer::run_funnel(&mut sim, 2);
    print!("{}", cr_core::report::render_funnel(&report));
    Ok(EXIT_OK)
}

fn cmd_poc(a: &Args) -> Outcome {
    let (oracle, addr) = (&a.operands[0], &a.operands[1]);
    let addr = u64::from_str_radix(addr.trim_start_matches("0x"), 16)
        .map_err(|_| fail(EXIT_USAGE, format!("bad address {addr:?}")))?;
    let (verdict, probes, crashed) = match oracle.as_str() {
        "ie" => {
            let mut o = cr_exploits::ie::IeOracle::new();
            (o.probe(addr), o.probes(), o.crashed())
        }
        "firefox" => {
            let mut o = cr_exploits::firefox::FirefoxOracle::new();
            (o.probe(addr), o.probes(), o.crashed())
        }
        "nginx" => {
            let mut o = cr_exploits::nginx::NginxOracle::new();
            (o.probe(addr), o.probes(), o.crashed())
        }
        other => return Err(unknown("oracle", other)),
    };
    println!(
        "{addr:#x}: {}  (probes: {probes}, crashes: {})",
        match verdict {
            ProbeResult::Mapped => "MAPPED",
            ProbeResult::Unmapped => "unmapped",
            ProbeResult::Inconclusive => "inconclusive",
        },
        if crashed { "YES" } else { "0" }
    );
    Ok(EXIT_OK)
}

fn cmd_campaign(a: &Args) -> Outcome {
    let spec = resolve_spec(a, CampaignSpec::builtin)?;
    let cfg = engine_config(a)?;
    eprintln!(
        "campaign {:?}: {} task(s) on {} worker(s), seed {} ...",
        spec.name,
        spec.tasks.len(),
        cfg.jobs.max(1),
        spec.seed
    );
    let report = traced(a, || run_campaign(&spec, &cfg))?
        .map_err(|e| fail(EXIT_RUNTIME, format!("campaign cache error: {e}")))?;

    if a.has("--json") {
        println!("{}", report.to_report().to_json());
    } else {
        for rec in &report.records {
            match (&rec.result, &rec.error) {
                (Some(res), _) => println!("  {:<18} {}", rec.label, summarize(res)),
                (None, Some(err)) => println!("  {:<18} FAILED: {err}", rec.label),
                (None, None) => println!("  {:<18} FAILED", rec.label),
            }
        }
        let m = &report.metrics;
        println!(
            "{} ok, {} failed in {:.1} ms wall ({:.1} ms of task time, {} worker(s))",
            m.succeeded,
            m.failed,
            m.total_wall_us as f64 / 1e3,
            m.task_wall_us as f64 / 1e3,
            m.jobs
        );
        println!(
            "cache: {}/{} filter hits, {}/{} module hits ({:.0}% overall)",
            m.cache.filter_hits,
            m.cache.filter_hits + m.cache.filter_misses,
            m.cache.module_hits,
            m.cache.module_hits + m.cache.module_misses,
            m.cache.hit_rate() * 100.0
        );
    }
    Ok(if report.degraded {
        EXIT_DEGRADED
    } else {
        EXIT_OK
    })
}

/// The default arena spec: every probing strategy, one task each, so
/// the campaign pool runs the full strategy × detector matrix.
fn arena_spec(seed: u64) -> CampaignSpec {
    let mut b = CampaignSpec::builder().name("arena-matrix").seed(seed);
    for s in cr_arena::StrategyKind::ALL {
        b = b.arena(s.name());
    }
    b.build().expect("arena spec is valid")
}

/// The headline §VII-C invariants, computed from the strategy rows
/// (reported, never asserted — `arena_bench` and the check script's
/// arena-smoke step are the asserting consumers).
#[derive(Serialize)]
struct ArenaInvariants {
    stealth_evades_rate: bool,
    stealth_caught_by_cusum: bool,
    filter_blocks_escalations: bool,
    zero_false_positives: bool,
}

/// `arena --json` results.
#[derive(Serialize)]
struct ArenaMatrix {
    strategies: Vec<cr_arena::ArenaSummary>,
    invariants: ArenaInvariants,
}

fn arena_invariants(summaries: &[cr_arena::ArenaSummary]) -> ArenaInvariants {
    let cell = |strategy: &str, detector: &str| {
        summaries
            .iter()
            .find(|s| s.strategy == strategy)
            .and_then(|s| {
                s.pairs
                    .iter()
                    .find(|p| p.detector == detector)
                    .map(|p| (s.rounds, p))
            })
    };
    let escalation_len = cr_arena::ESCALATION.len() as u64;
    ArenaInvariants {
        stealth_evades_rate: cell("stealth", "rate").is_some_and(|(_, p)| p.detected_rounds == 0),
        stealth_caught_by_cusum: cell("stealth", "cusum")
            .is_some_and(|(rounds, p)| rounds > 0 && p.detected_rounds == rounds),
        filter_blocks_escalations: !summaries.is_empty()
            && summaries.iter().all(|s| {
                s.pairs
                    .iter()
                    .find(|p| p.detector == "filter")
                    .is_some_and(|p| {
                        p.blocked_escalations == escalation_len * s.located_rounds as u64
                    })
            }),
        zero_false_positives: !summaries.is_empty()
            && summaries
                .iter()
                .flat_map(|s| &s.pairs)
                .all(|p| p.false_positives == 0),
    }
}

/// `crash-resist arena`: run every probing strategy against the full
/// detector roster through the campaign engine and render the
/// strategy × detector matrix plus the headline invariants. The JSON
/// envelope carries only the deterministic half (`metrics` is null,
/// like `chaos --summary-json`), so it is byte-identical at any
/// `--jobs` count and diffs against a golden.
fn cmd_arena(a: &Args) -> Outcome {
    let spec = resolve_spec(a, arena_spec)?;
    let cfg = engine_config(a)?;
    eprintln!(
        "arena {:?}: {} strategy task(s) on {} worker(s), seed {} ...",
        spec.name,
        spec.tasks.len(),
        cfg.jobs.max(1),
        spec.seed
    );
    let report = traced(a, || run_campaign(&spec, &cfg))?
        .map_err(|e| fail(EXIT_RUNTIME, format!("arena cache error: {e}")))?;
    let strategies: Vec<cr_arena::ArenaSummary> = report
        .records
        .iter()
        .filter_map(|r| match &r.result {
            Some(TaskResult::Arena { summary, .. }) => Some(summary.clone()),
            _ => None,
        })
        .collect();
    let matrix = ArenaMatrix {
        invariants: arena_invariants(&strategies),
        strategies,
    };
    if a.has("--json") {
        let envelope = Report::builder(ReportKind::Arena)
            .results_of(&matrix)
            .build();
        println!("{}", envelope.to_json());
    } else {
        for s in &matrix.strategies {
            println!(
                "  {:<8} {} round(s), {} probe(s) ({} dropped), located {}/{}",
                s.strategy, s.rounds, s.probes, s.dropped, s.located_rounds, s.rounds
            );
            for p in &s.pairs {
                println!(
                    "    {:<6} detected {}/{}, mean ttd {} ms, fp {}, blocked {}",
                    p.detector,
                    p.detected_rounds,
                    s.rounds,
                    p.time_to_detect_ms,
                    p.false_positives,
                    p.blocked_escalations
                );
            }
        }
        let i = &matrix.invariants;
        println!(
            "invariants: stealth_evades_rate={} stealth_caught_by_cusum={} \
             filter_blocks_escalations={} zero_false_positives={}",
            i.stealth_evades_rate,
            i.stealth_caught_by_cusum,
            i.filter_blocks_escalations,
            i.zero_false_positives
        );
        for rec in report.records.iter().filter(|r| r.result.is_none()) {
            match &rec.error {
                Some(err) => println!("  {:<18} FAILED: {err}", rec.label),
                None => println!("  {:<18} FAILED", rec.label),
            }
        }
    }
    Ok(if report.degraded {
        EXIT_DEGRADED
    } else {
        EXIT_OK
    })
}

/// `chaos --summary-json` results: the byte-deterministic half (the
/// smoke golden diffs it), so the envelope carries no `metrics`.
#[derive(Serialize)]
struct ChaosSummary {
    plan: String,
    seed: u64,
    tasks: usize,
    errors: ErrorCounts,
    warm_errors: ErrorCounts,
    degraded: bool,
    fired: Vec<String>,
    invariants: &'static str,
}

/// `crash-resist chaos`: run the campaign twice under a named fault
/// plan (a cold phase that also corrupts cache records on save, then a
/// warm phase over the damaged cache) and assert the chaos invariants:
///
/// 1. **completeness** — every spec task has a record, in order;
/// 2. **accounting** — observed per-class error counts equal the
///    simulated counts for the injected faults, and the warm phase's
///    `cache_corrupt` count equals the number of records the cold
///    phase corrupted;
/// 3. **determinism** — an identical rerun produces a byte-identical
///    deterministic report;
/// 4. **clean cache** — after the warm phase rewrites the store, a
///    final reload quarantines nothing.
fn cmd_chaos(a: &Args) -> Outcome {
    let base = engine_config(a)?;
    let seed = effective_seed(a.opt_num("--seed")?);
    let plan = fault_plan(a.value("--plan").expect("--plan has a default"), seed)?;
    let spec = resolve_spec(a, CampaignSpec::smoke)?;
    let with_plan = |plan: &FaultPlan| EngineConfig {
        injector: Some(Arc::new(FaultInjector::new(plan.clone()))),
        ..base.clone()
    };

    // The two-phase cache invariants need a persistent directory; use
    // a scratch one (removed afterwards) unless --cache was given. The
    // determinism rerun always gets its own fresh directory, so both
    // cold runs start from the same (empty) cache state.
    let scratch = std::env::temp_dir().join(format!("cr-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let cache_dir = base
        .cache_dir
        .clone()
        .unwrap_or_else(|| scratch.join("main"));
    let rerun_dir = scratch.join("rerun");

    let run_phase = |plan: &FaultPlan, dir: &PathBuf| {
        let cfg = EngineConfig {
            cache_dir: Some(dir.clone()),
            ..with_plan(plan)
        };
        let injector = cfg.injector.clone().expect("with_plan arms an injector");
        run_campaign(&spec, &cfg).map(|r| (r, injector))
    };

    eprintln!(
        "chaos plan {:?} (seed {}): {} task(s) on {} worker(s) ...",
        plan.name,
        plan.seed,
        spec.tasks.len(),
        base.jobs.max(1)
    );

    let mut failures: Vec<String> = Vec::new();
    let outcome = traced(a, || -> std::io::Result<_> {
        let (cold, cold_inj) = run_phase(&plan, &cache_dir)?;

        // I1: completeness — spec order, one record per task.
        if cold.records.len() != spec.tasks.len() {
            failures.push(format!(
                "completeness: {} records for {} tasks",
                cold.records.len(),
                spec.tasks.len()
            ));
        }
        for (i, rec) in cold.records.iter().enumerate() {
            if rec.index != i || rec.label != spec.tasks[i].label() {
                failures.push(format!("completeness: record {i} is {:?}", rec.label));
            }
        }

        // I2: accounting — every injected fault shows up in its
        // class, nothing else does. The cold phase starts from an
        // empty cache, so its quarantine count must be zero.
        let expected = expected_error_counts(&spec, &with_plan(&plan));
        if cold.errors != expected {
            failures.push(format!(
                "accounting: observed {:?}, expected {:?}",
                cold.errors, expected
            ));
        }

        // I3: determinism — identical rerun from an equally fresh
        // cache, byte-identical deterministic report.
        let (cold2, _) = run_phase(&plan, &rerun_dir)?;
        if cold.results_json() != cold2.results_json() {
            failures.push("determinism: rerun produced a different report".to_string());
        }

        // Warm phase: stop corrupting saves, run over the damaged
        // store. Every record the cold phase corrupted must be
        // quarantined and recomputed.
        let corrupted = cold_inj.fired_count(Site::CacheRecord);
        let warm_plan = plan.clone().without_site(Site::CacheRecord);
        let (warm, _) = run_phase(&warm_plan, &cache_dir)?;
        let mut warm_expected = expected_error_counts(&spec, &with_plan(&warm_plan));
        warm_expected.cache_corrupt += corrupted;
        if warm.errors != warm_expected {
            failures.push(format!(
                "accounting(warm): observed {:?}, expected {:?} \
                 ({corrupted} corrupted record(s))",
                warm.errors, warm_expected
            ));
        }

        // I4: the warm save rewrote the store cleanly.
        let reload = AnalysisCache::load(&cache_dir)?;
        if reload.quarantined() != 0 {
            failures.push(format!(
                "clean-cache: final reload still quarantines {} line(s)",
                reload.quarantined()
            ));
        }

        // Only the campaign-layer sites: the serve-layer sites can
        // never fire here, and listing them would churn the golden.
        let fired: Vec<String> = Site::CAMPAIGN
            .iter()
            .map(|&s| format!("{}:{}", s.name(), cold_inj.fired_count(s)))
            .collect();
        Ok((cold, fired, warm.errors))
    });
    let _ = std::fs::remove_dir_all(&scratch);
    let (cold, fired, warm_errors) =
        outcome?.map_err(|e| fail(EXIT_RUNTIME, format!("chaos cache error: {e}")))?;

    if a.has("--json") {
        println!("{}", cold.to_report().to_json());
    }
    if a.has("--summary-json") {
        let summary = ChaosSummary {
            plan: plan.name.clone(),
            seed: plan.seed,
            tasks: cold.records.len(),
            errors: cold.errors,
            warm_errors,
            degraded: cold.degraded,
            fired,
            invariants: if failures.is_empty() { "ok" } else { "BROKEN" },
        };
        let report = Report::builder(ReportKind::Chaos)
            .results_of(&summary)
            .build();
        println!("{}", report.to_json());
    } else if !a.has("--json") {
        println!(
            "plan {:?}: {} fault(s) fired ({}), error classes {:?}",
            plan.name,
            fired
                .iter()
                .filter_map(|f| f.rsplit(':').next()?.parse::<u64>().ok())
                .sum::<u64>(),
            fired.join(" "),
            cold.errors
        );
    }

    for f in &failures {
        eprintln!("chaos invariant broken: {f}");
    }
    Ok(if !failures.is_empty() {
        EXIT_RUNTIME
    } else if cold.degraded {
        EXIT_DEGRADED
    } else {
        EXIT_OK
    })
}

/// `report --json` results: what the merged traces hold.
#[derive(Serialize)]
struct TraceContents {
    files: usize,
    events: usize,
    dropped: u64,
    stages: Vec<&'static str>,
}

/// `report --json` metrics: wall-clock latencies and solver counters.
#[derive(Serialize)]
struct TraceLatencies {
    stages: Vec<StageLatency>,
    solver: SolverEvents,
}

#[derive(Serialize)]
struct StageLatency {
    stage: &'static str,
    events: u64,
    spans: u64,
    p50_us: u64,
    p95_us: u64,
    max_us: u64,
}

#[derive(Serialize)]
struct SolverEvents {
    checks: usize,
    memo_hits: usize,
    memo_misses: usize,
}

/// `crash-resist report`: merge one or more `--trace` files and render
/// per-stage latency tables (p50/p95/max over span durations) plus a
/// campaign timeline of schedule spans. With `--json`, emits a
/// [`ReportKind::Report`] envelope: stage/event counts in `results`,
/// wall-clock latency statistics in `metrics`.
fn cmd_report(a: &Args) -> Outcome {
    let mut traces = Vec::with_capacity(a.operands.len());
    for path in &a.operands {
        let text = std::fs::read_to_string(path)
            .map_err(|e| fail(EXIT_USAGE, format!("cannot read {path}: {e}")))?;
        let trace = cr_trace::Trace::parse_jsonl(&text)
            .map_err(|e| fail(EXIT_USAGE, format!("bad trace {path}: {e}")))?;
        traces.push(trace);
    }
    let merged = cr_trace::Trace::merge(traces);
    let contents = TraceContents {
        files: a.operands.len(),
        events: merged.events.len(),
        dropped: merged.dropped,
        stages: merged.stages().iter().map(|s| s.name()).collect(),
    };
    // Decision-procedure counters from the advisory symex events.
    let symex = cr_trace::Stage::Symex;
    let latencies = TraceLatencies {
        stages: merged
            .stage_stats()
            .iter()
            .map(|s| StageLatency {
                stage: s.stage.name(),
                events: s.events,
                spans: s.spans,
                p50_us: s.hist.p50().unwrap_or(0),
                p95_us: s.hist.p95().unwrap_or(0),
                max_us: s.hist.max(),
            })
            .collect(),
        solver: SolverEvents {
            checks: merged.count_events(symex, "solver.check"),
            memo_hits: merged.count_events_with(symex, "solver.check", "memo=hit"),
            memo_misses: merged.count_events_with(symex, "solver.check", "memo=miss"),
        },
    };

    if a.has("--json") {
        let report = Report::builder(ReportKind::Report)
            .results_of(&contents)
            .metrics_of(&latencies)
            .build();
        println!("{}", report.to_json());
        return Ok(EXIT_OK);
    }

    println!(
        "trace report: {} file(s), {} event(s), {} dropped",
        contents.files, contents.events, contents.dropped
    );
    println!("stages: {}", contents.stages.join(" "));
    println!(
        "{:<10} {:>7} {:>7} {:>9} {:>9} {:>9}",
        "stage", "events", "spans", "p50_us", "p95_us", "max_us"
    );
    for s in &latencies.stages {
        println!(
            "{:<10} {:>7} {:>7} {:>9} {:>9} {:>9}",
            s.stage, s.events, s.spans, s.p50_us, s.p95_us, s.max_us
        );
    }
    let solver = &latencies.solver;
    println!(
        "solver: checks={} memo_hits={} memo_misses={}",
        solver.checks, solver.memo_hits, solver.memo_misses
    );

    // Merged campaign timeline: scheduling spans across all runs, in
    // wall order within each run.
    const TIMELINE_ROWS: usize = 40;
    let mut rows: Vec<&cr_trace::Event> = merged
        .events
        .iter()
        .filter(|e| e.stage == cr_trace::Stage::Schedule && e.dur_us.is_some())
        .collect();
    rows.sort_by_key(|e| (e.run, e.wall_us, e.seq));
    println!("timeline ({} schedule span(s)):", rows.len());
    for e in rows.iter().take(TIMELINE_ROWS) {
        println!(
            "  [run {}] +{:>8}us  {:<12} {} ({}us)",
            e.run,
            e.wall_us,
            e.name,
            e.detail,
            e.dur_us.unwrap_or(0)
        );
    }
    if rows.len() > TIMELINE_ROWS {
        println!("  ... and {} more", rows.len() - TIMELINE_ROWS);
    }
    Ok(EXIT_OK)
}

/// The server configuration from `serve`'s flags.
fn serve_config(a: &Args) -> Result<cr_serve::ServeConfig, i32> {
    let engine = engine_config(a)?;
    Ok(cr_serve::ServeConfig {
        addr: a.value("--addr").expect("--addr has a default").to_string(),
        jobs: engine.jobs,
        retries: engine.retries,
        deadline_ms: engine.deadline_ms,
        request_deadline_ms: a.deadline("--request-deadline-ms")?,
        admit_capacity: a.num("--capacity")?,
        cache_dir: engine.cache_dir,
        injector: plan_injector(a, effective_seed(a.opt_num("--seed")?))?,
        ..cr_serve::ServeConfig::default()
    })
}

/// `crash-resist serve`: bind the resident analysis server and run it
/// until a client sends a Shutdown frame (the SIGTERM-equivalent —
/// portable `std` cannot trap signals). Prints `serving on ADDR` on
/// stdout once the listener is live, so scripts can scrape the
/// ephemeral port, then blocks until the drain completes.
fn cmd_serve(a: &Args) -> Outcome {
    let server = cr_serve::Server::bind(serve_config(a)?)
        .map_err(|e| fail(EXIT_RUNTIME, format!("cannot bind server: {e}")))?;
    let addr = server
        .local_addr()
        .map_err(|e| fail(EXIT_RUNTIME, format!("cannot read bound address: {e}")))?;
    println!("serving on {addr}");
    {
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
    }
    let stats = server
        .run()
        .map_err(|e| fail(EXIT_RUNTIME, format!("server failed: {e}")))?;
    eprintln!(
        "drained: {} conn(s), {} request(s) admitted, {} completed, {} busy-rejected",
        stats.conns_accepted,
        stats.requests_admitted,
        stats.requests_completed,
        stats.busy_rejections
    );
    if a.has("--stats-json") {
        let report = Report::builder(ReportKind::Serve)
            .results_of(&stats)
            .build();
        println!("{}", report.to_json());
    }
    Ok(EXIT_OK)
}

/// One spec of the fleet request mix: a single SEH module per
/// request, chosen round-robin from the calibration set so each
/// request has a distinct consistent-hash route key and the mix
/// spreads across workers.
fn fleet_spec(n: usize, seed: u64) -> CampaignSpec {
    let calib = cr_targets::browsers::CALIBRATION;
    CampaignSpec::builder()
        .name(format!("fleet-{n}"))
        .seed(seed)
        .seh(calib[n % calib.len()].name)
        .build()
        .expect("fleet spec is valid")
}

/// One request against the fleet front over a fresh connection;
/// returns the Result document on a clean `ok` completion.
fn fleet_request(addr: &str, payload: &str) -> Result<String, String> {
    let mut client = cr_serve::Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let response = client
        .request_with_retry(payload, 10)
        .map_err(|e| e.to_string())?;
    if let Some(err) = &response.error {
        return Err(format!("server error: {err}"));
    }
    if response.busy.is_some() {
        return Err("rejected busy after 10 retries".into());
    }
    let status = response.done_str("status").unwrap_or_default();
    if status != "ok" {
        return Err(format!("request finished with status {status:?}"));
    }
    let result = response
        .result
        .ok_or_else(|| "no result document".to_string())?;
    String::from_utf8(result).map_err(|_| "result document is not UTF-8".to_string())
}

/// `fleet --summary-json` results: the invariant verdict.
#[derive(Serialize)]
struct FleetVerdict {
    answered: usize,
    expected: usize,
    byte_identical: bool,
    exactly_once: bool,
    ok: bool,
}

/// `crash-resist fleet`: start an in-process supervised fleet, drive
/// a deterministic request mix through the router, and verify the
/// fleet invariants against one-shot campaign references computed in
/// the same process:
///
/// 1. every admitted request is answered (node kills, partitions and
///    rolling restarts included),
/// 2. every Result frame is byte-identical to the one-shot run of the
///    same spec, regardless of which worker answered,
/// 3. the delivery ledger holds exactly one Result per request.
///
/// The mix is sequential distinct specs first — admissions `1..=N`,
/// so `--kill-request K` lands deterministically — then a concurrent
/// burst of identical requests to exercise coalescing; with
/// `--rolling-restart` the distinct specs are re-driven while every
/// worker rotates through a graceful drain.
fn cmd_fleet(a: &Args) -> Outcome {
    let workers = a.num::<usize>("--workers")?.max(1);
    let requests = a.num::<usize>("--requests")?.max(1);
    let seed = effective_seed(a.opt_num("--seed")?);
    let cfg = cr_fleet::FleetConfig {
        workers,
        kill_at_admission: a.opt_num("--kill-request")?,
        injector: plan_injector(a, seed)?,
        ..cr_fleet::FleetConfig::default()
    };

    // The byte-identity references: the same specs, run one-shot in
    // this process. The fleet must reproduce these exactly no matter
    // which worker answers or how often the admission failed over.
    let specs: Vec<CampaignSpec> = (0..requests).map(|n| fleet_spec(n, seed)).collect();
    let mut references = Vec::with_capacity(requests);
    for spec in &specs {
        let report = run_campaign(spec, &EngineConfig::default()).map_err(|e| {
            fail(
                EXIT_RUNTIME,
                format!("cannot compute reference for {}: {e}", spec.name),
            )
        })?;
        references.push(report.results_json());
    }

    let fleet = cr_fleet::Fleet::start(cfg)
        .map_err(|e| fail(EXIT_RUNTIME, format!("cannot start fleet: {e}")))?;
    let addr = fleet.addr().to_string();
    eprintln!("fleet: {workers} worker(s) behind {addr}");

    let mut answered = 0usize;
    let mut expected = 0usize;
    let mut byte_identical = true;
    let mut check = |n: usize, outcome: Result<String, String>| match outcome {
        Ok(result) => {
            answered += 1;
            if result != references[n] {
                byte_identical = false;
                eprintln!(
                    "request {}: result differs from the one-shot reference",
                    n + 1
                );
            }
        }
        Err(e) => eprintln!("request {}: {e}", n + 1),
    };

    // Phase 1: sequential distinct specs — admissions 1..=requests.
    for (n, spec) in specs.iter().enumerate() {
        expected += 1;
        let payload = request_payload(spec, None, None, None);
        check(n, fleet_request(&addr, &payload));
    }

    // Phase 2 (--rolling-restart): re-drive the same specs while every
    // worker rotates through a graceful drain-and-respawn.
    if a.has("--rolling-restart") {
        std::thread::scope(|s| {
            s.spawn(|| fleet.rolling_restart());
            for (n, spec) in specs.iter().enumerate() {
                expected += 1;
                let payload = request_payload(spec, None, None, None);
                check(n, fleet_request(&addr, &payload));
            }
        });
    }

    // Phase 3: a concurrent burst of byte-identical requests —
    // coalescing candidates; each still gets its own Result frame.
    const BURST: usize = 3;
    let burst_payload = request_payload(&specs[0], None, None, None);
    let burst: Vec<Result<String, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..BURST)
            .map(|_| s.spawn(|| fleet_request(&addr, &burst_payload)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("burst thread panicked".into()))
            })
            .collect()
    });
    for outcome in burst {
        expected += 1;
        check(0, outcome);
    }

    let live_exactly_once = fleet
        .delivery_counts()
        .iter()
        .all(|&(_, deliveries)| deliveries == 1);
    for (id, state, generation) in fleet.worker_states() {
        eprintln!("worker {id}: {} (generation {generation})", state.name());
    }
    let stats = fleet.join();
    // Closed connections retire their ledger entries into counters;
    // the invariant covers those too.
    let exactly_once = live_exactly_once && stats.ledger_violations == 0;
    let verdict = FleetVerdict {
        answered,
        expected,
        byte_identical,
        exactly_once,
        ok: answered == expected && byte_identical && exactly_once,
    };
    eprintln!(
        "fleet verdict: answered {answered}/{expected}, byte_identical={byte_identical}, \
         exactly_once={exactly_once}, kills={}, failovers={}, restarts={}, coalesced={}",
        stats.kills, stats.failovers, stats.restarts, stats.coalesced
    );
    if a.has("--summary-json") {
        let report = Report::builder(ReportKind::Fleet)
            .results_of(&verdict)
            .metrics_of(&stats)
            .build();
        println!("{}", report.to_json());
    }
    Ok(if verdict.ok { EXIT_OK } else { EXIT_RUNTIME })
}

/// Render the request payload: the spec document with the server-side
/// option keys (`jobs`, `retries`, `deadline_ms`) spliced in. The spec
/// parser ignores unknown top-level keys, so the same document also
/// feeds `campaign --spec` unchanged.
fn request_payload(
    spec: &CampaignSpec,
    jobs: Option<usize>,
    retries: Option<u32>,
    deadline_ms: Option<u64>,
) -> String {
    let mut doc = spec.to_json();
    doc.pop(); // strip the trailing '}' and splice the option keys
    if let Some(j) = jobs {
        doc.push_str(&format!(",\"jobs\":{j}"));
    }
    if let Some(r) = retries {
        doc.push_str(&format!(",\"retries\":{r}"));
    }
    if let Some(d) = deadline_ms {
        doc.push_str(&format!(",\"deadline_ms\":{d}"));
    }
    doc.push('}');
    doc
}

/// `crash-resist client`: connect to a resident server, send one
/// campaign request (optionally repeated over the same connection to
/// exercise the warm caches), and render the streamed response.
fn cmd_client(a: &Args) -> Outcome {
    let Some(addr) = a.value("--addr") else {
        return Err(usage_error(a.verb, "client needs --addr HOST:PORT"));
    };
    let spec = resolve_spec(a, CampaignSpec::smoke)?;
    let payload = request_payload(
        &spec,
        a.opt_num("--jobs")?,
        a.opt_num("--retries")?,
        a.opt_num("--deadline-ms")?,
    );
    let repeat = a.num::<usize>("--repeat")?.max(1);
    let busy_retries: u32 = a.num("--busy-retries")?;

    let mut client = cr_serve::Client::connect(addr)
        .map_err(|e| fail(EXIT_RUNTIME, format!("cannot connect to {addr}: {e}")))?;
    eprintln!("connected to {addr} (protocol v{})", client.version);

    // A bare `client --addr X --shutdown` is an operator saying "stop
    // the server" — don't run a smoke campaign on the way out. Any
    // other flag shapes a request and restores the request loop.
    let shutdown = a.has("--shutdown");
    let send_requests = !shutdown
        || a.given
            .keys()
            .any(|f| !matches!(*f, "--addr" | "--shutdown"));

    let mut worst = EXIT_OK;
    let mut last: Option<cr_serve::Response> = None;
    for n in 1..=if send_requests { repeat } else { 0 } {
        let response = client
            .request_with_retry(&payload, busy_retries)
            .map_err(|e| fail(EXIT_RUNTIME, format!("request {n} failed: {e}")))?;
        if let Some(err) = &response.error {
            eprintln!("request {n}: server error: {err}");
            worst = EXIT_RUNTIME;
        } else if response.busy.is_some() {
            eprintln!("request {n}: rejected busy after {busy_retries} retries");
            worst = EXIT_RUNTIME;
        } else if let Some(done) = &response.done {
            let status = response.done_str("status").unwrap_or_default();
            let degraded = cr_campaign::json::Json::parse(done)
                .ok()
                .and_then(|d| d.get("degraded")?.as_bool())
                .unwrap_or(false);
            eprintln!(
                "request {n}: {status} in {} us (solver_calls={}, parse={}, degraded={degraded})",
                response.done_u64("wall_us").unwrap_or(0),
                response.done_u64("solver_calls").unwrap_or(0),
                response.done_str("parse").unwrap_or_default(),
            );
            if a.has("--stats") {
                println!("{done}");
            }
            if status != "ok" {
                worst = EXIT_RUNTIME;
            } else if degraded && worst == EXIT_OK {
                worst = EXIT_DEGRADED;
            }
        }
        last = Some(response);
    }
    if a.has("--json") {
        match last.as_ref().and_then(|r| r.result.as_ref()) {
            Some(result) => {
                let doc = std::str::from_utf8(result)
                    .map_err(|_| fail(EXIT_RUNTIME, "result document is not UTF-8"))?;
                println!("{doc}");
            }
            None => {
                eprintln!("no result document to print");
                if worst == EXIT_OK {
                    worst = EXIT_RUNTIME;
                }
            }
        }
    }
    if shutdown {
        client
            .shutdown()
            .map_err(|e| fail(EXIT_RUNTIME, format!("shutdown failed: {e}")))?;
        eprintln!("server acknowledged shutdown");
    }
    Ok(worst)
}

fn summarize(res: &TaskResult) -> String {
    match res {
        TaskResult::Server {
            observed_syscalls,
            findings,
            usable,
            ..
        } => {
            format!("{observed_syscalls} syscalls, {findings} findings, {usable} usable")
        }
        TaskResult::Seh { summary, .. } => format!(
            "{} -> {} guarded, {} -> {} filters ({} undecided)",
            summary.guarded_before,
            summary.guarded_after,
            summary.filters_before,
            summary.filters_after,
            summary.filters_undecided
        ),
        TaskResult::Funnel {
            total,
            crash_resistant,
            js_reachable,
            usable,
            ..
        } => {
            format!("{total} APIs, {crash_resistant} crash-resistant, {js_reachable} JS-reachable, {usable} usable")
        }
        TaskResult::Scan { summary, .. } => format!(
            "{} sites ({} constant, {} memory-loaded), {} serving-reachable, {} init-only",
            summary.sites, summary.constant, summary.memory, summary.serving, summary.init_only
        ),
        TaskResult::Arena { summary, .. } => {
            let cells: Vec<String> = summary
                .pairs
                .iter()
                .map(|p| format!("{} {}/{}", p.detector, p.detected_rounds, summary.rounds))
                .collect();
            format!(
                "{} probe(s), located {}/{}, {}",
                summary.probes,
                summary.located_rounds,
                summary.rounds,
                cells.join(", ")
            )
        }
        TaskResult::Poc {
            oracle,
            mapped,
            probes,
            located,
            crashed,
        } => format!(
            "{oracle}: {} in {probes} probes ({mapped} mapped){}",
            if *located {
                "located hidden region"
            } else {
                "hidden region NOT found"
            },
            if *crashed { ", CRASHED" } else { "" }
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::{help, parse, VERBS};

    fn args(verb: &str, argv: &[&str]) -> super::Args {
        let verb = VERBS.iter().find(|v| v.name == verb).expect("a verb");
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        parse(verb, &argv).expect("a valid command line")
    }

    #[test]
    fn help_lists_every_verb() {
        let help = help();
        for verb in VERBS {
            assert!(
                help.contains(&format!("crash-resist {}", verb.name)),
                "help must document verb {:?}",
                verb.name
            );
        }
    }

    #[test]
    fn table_rows_are_well_formed() {
        let mut names: Vec<&str> = VERBS.iter().map(|v| v.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), VERBS.len(), "verb names are unique");
        for verb in VERBS {
            let mut flags: Vec<&str> = verb.flags().map(|f| f.name).collect();
            assert!(flags.iter().all(|f| f.starts_with("--")), "{}", verb.name);
            flags.sort_unstable();
            flags.dedup();
            assert_eq!(
                flags.len(),
                verb.flags().count(),
                "{} repeats a flag",
                verb.name
            );
            for (operand, _) in verb.operands {
                assert!(
                    operand.starts_with('<') || operand.starts_with('['),
                    "{operand}"
                );
            }
        }
    }

    #[test]
    fn table_defaults_match_the_library_defaults() {
        let campaign = super::engine_config(&args("campaign", &[])).unwrap();
        let engine = cr_campaign::EngineConfig::default();
        assert_eq!(campaign.jobs, engine.jobs);
        assert_eq!(campaign.deadline_ms, Some(cr_campaign::DEFAULT_DEADLINE_MS));
        let serve = super::serve_config(&args("serve", &[])).unwrap();
        let want = cr_serve::ServeConfig::default();
        assert_eq!(serve.addr, want.addr);
        assert_eq!(serve.jobs, want.jobs);
        assert_eq!(serve.retries, want.retries);
        assert_eq!(serve.deadline_ms, want.deadline_ms);
        assert_eq!(serve.request_deadline_ms, want.request_deadline_ms);
        assert_eq!(serve.admit_capacity, want.admit_capacity);
    }

    #[test]
    fn last_flag_wins_and_zero_deadline_means_none() {
        let a = args(
            "campaign",
            &["--jobs", "2", "--jobs", "3", "--deadline-ms", "0"],
        );
        let cfg = super::engine_config(&a).unwrap();
        assert_eq!(cfg.jobs, 3);
        assert_eq!(cfg.deadline_ms, None);
    }

    #[test]
    fn request_payload_splices_option_keys() {
        let spec = cr_campaign::CampaignSpec::smoke(7);
        let bare = super::request_payload(&spec, None, None, None);
        assert_eq!(bare, {
            use serde::Serialize;
            spec.to_json()
        });
        let full = super::request_payload(&spec, Some(4), Some(2), Some(1500));
        assert!(full.ends_with(",\"jobs\":4,\"retries\":2,\"deadline_ms\":1500}"));
        // The spliced document still parses as the same spec: option
        // keys are invisible to the campaign layer.
        assert_eq!(cr_campaign::CampaignSpec::from_json(&full).unwrap(), spec);
    }
}
