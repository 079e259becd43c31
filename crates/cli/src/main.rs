//! `crash-resist` — command-line front end for the discovery framework.
//!
//! ```text
//! crash-resist discover <server>       Table-I pipeline on one server
//! crash-resist analyze <dll>           SEH analysis of a system DLL
//! crash-resist explore <dll>           per-path filter exploration report
//! crash-resist cfg <server>            static CFG + syscall sites
//! crash-resist scan <module>           traceless syscall-site scan + temporal tags
//! crash-resist funnel [corpus-size]    §V-B Windows API funnel
//! crash-resist poc <oracle> <addr>     probe one address via a §VI oracle
//! crash-resist campaign [options]      sharded multi-task campaign
//! crash-resist arena [options]         probing strategies × detectors matrix
//! crash-resist chaos [options]         campaign under an injected fault plan
//! crash-resist serve [options]         long-lived analysis server (framed TCP)
//! crash-resist fleet [options]         supervised multi-worker serve fleet
//! crash-resist client [options]        send campaign requests to a server
//! crash-resist report <trace>...       render stage latencies from trace files
//! crash-resist list                    available targets
//! ```
//!
//! All machine-readable output (`--json`, `--summary-json`) is framed
//! in the versioned [`cr_campaign::Report`] envelope
//! (`{"schema_version":1,"kind":…,"results":…,"metrics":…}`), and
//! `campaign`/`chaos` accept `--trace FILE` to capture a structured
//! execution trace (`report` renders it).
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
use cr_symex::{FilterExplorer, FilterVerdict};
use std::path::PathBuf;

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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `<verb> --help` (or `-h`) anywhere after a known verb asks for help.
    let wants_help = args.iter().skip(1).any(|a| a == "--help" || a == "-h");
    let code = match args.first().map(String::as_str) {
        None | Some("help" | "-h" | "--help") => {
            print!("{}", HELP);
            EXIT_OK
        }
        Some(verb) if wants_help && VERBS.contains(&verb) => {
            print!("{}", HELP);
            EXIT_OK
        }
        Some("discover") => cmd_discover(args.get(1).map(String::as_str)),
        Some("analyze") => cmd_analyze(args.get(1).map(String::as_str)),
        Some("explore") => cmd_explore(&args[1..]),
        Some("cfg") => cmd_cfg(args.get(1).map(String::as_str)),
        Some("scan") => cmd_scan(&args[1..]),
        Some("funnel") => cmd_funnel(args.get(1).map(String::as_str)),
        Some("poc") => cmd_poc(
            args.get(1).map(String::as_str),
            args.get(2).map(String::as_str),
        ),
        Some("campaign") => cmd_campaign(&args[1..]),
        Some("arena") => cmd_arena(&args[1..]),
        Some("chaos") => cmd_chaos(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("fleet") => cmd_fleet(&args[1..]),
        Some("client") => cmd_client(&args[1..]),
        Some("report") => cmd_report(&args[1..]),
        Some("list") => cmd_list(&args[1..]),
        Some(other) => {
            eprintln!(
                "unknown command {other:?} (expected one of: {})",
                VERBS.join(" ")
            );
            eprint!("{}", HELP);
            EXIT_USAGE
        }
    };
    std::process::exit(code);
}

/// Every verb `main` dispatches on; `help` must mention each (the
/// `help_lists_every_verb` test pins this) and the unknown-command
/// path lists them.
const VERBS: [&str; 15] = [
    "discover", "analyze", "explore", "cfg", "scan", "funnel", "poc", "campaign", "arena", "chaos",
    "serve", "fleet", "client", "report", "list",
];

const HELP: &str = "\
crash-resist — discovery of crash-resistant primitives (DSN'17 reproduction)

USAGE:
    crash-resist discover <server>       run the Table-I pipeline on one server
    crash-resist analyze <dll>           SEH analysis of a calibrated system DLL
    crash-resist explore <dll>           per-path filter exploration (see EXPLORE OPTIONS)
    crash-resist cfg <server>            static CFG recovery + syscall sites
    crash-resist scan <module>           traceless syscall-site scan (see SCAN OPTIONS)
    crash-resist funnel [corpus-size]    run the §V-B Windows API funnel
    crash-resist poc <oracle> <hexaddr>  probe an address with a §VI oracle
    crash-resist campaign [options]      run a sharded discovery campaign
    crash-resist arena [options]         probing strategies vs the detector roster
    crash-resist chaos [options]         run a campaign under a fault plan
    crash-resist serve [options]         run the long-lived analysis server
    crash-resist fleet [options]         run a supervised serve fleet + invariant suite
    crash-resist client [options]        send campaign requests to a server
    crash-resist report <trace>...       per-stage latencies + timeline from traces
    crash-resist list [--json]           list available servers/DLLs/oracles
    crash-resist <command> --help        print this help (also -h)

EXPLORE OPTIONS:
    <dll>           a calibrated DLL name or the loopy family (see `list`)
    --independent   re-blast every path from scratch instead of incremental
                    push/pop solving (differential reference mode)
    --json          emit per-filter path verdicts as a versioned JSON envelope

SCAN OPTIONS:
    <module>        a server target or corpus module name (see `list`)
    --all           scan every server and corpus module instead of one
    --cross-validate  also run the taint observer and report site agreement
                      (servers only — corpus modules have no harness)
    --json          emit the scan report(s) as a versioned JSON envelope

CAMPAIGN OPTIONS:
    --spec FILE     JSON campaign spec (default: the built-in full campaign)
    --jobs N        worker threads (default 1)
    --cache DIR     persist the content-addressed analysis cache here
    --seed S        RNG seed for rand-driven workloads (default 2017)
    --retries R     extra attempts for a failing task (default 1)
    --deadline-ms D per-attempt virtual-time deadline (default 200)
    --trace FILE    write a structured execution trace (JSONL) here
    --json          emit the full report as JSON instead of a summary

ARENA OPTIONS (campaign options above; the default spec is the full
    4-strategy matrix — linear, bisect, stealth, burst — each judged by
    the rate threshold, windowed CUSUM, and syscall-filter detectors):
    --json          emit the matrix + headline invariants as a versioned
                    JSON envelope (deterministic: byte-identical at any
                    --jobs count, so it diffs against a golden)

CHAOS OPTIONS (campaign options above, plus):
    --plan NAME     built-in fault plan (default mayhem; see `list`)
    --summary-json  emit a compact machine-checkable summary as JSON

SERVE OPTIONS:
    --addr A        bind address (default 127.0.0.1:0 — ephemeral port)
    --jobs N        campaign worker threads per request (default 1)
    --retries R     extra attempts for a failing task (default 1)
    --deadline-ms D per-attempt virtual-time deadline (default 200)
    --request-deadline-ms D  wall-clock deadline per request (default none)
    --capacity N    admission queue depth; beyond it requests get Busy (default 8)
    --cache DIR     load the analysis cache at start, persist it on drain
    --plan NAME     arm a fault plan on the serve sites (try: wire)
    --seed S        fault plan seed (default 2017)
    --stats-json    on shutdown, emit lifetime stats as a JSON envelope

FLEET OPTIONS:
    --workers N     serve workers behind the router (default 3)
    --requests N    distinct campaign requests to drive through (default 4)
    --plan NAME     arm a fault plan on the fleet sites (try: fleet)
    --seed S        fault plan seed (default 2017)
    --kill-request K  kill the serving worker mid-request at admission K
    --rolling-restart  rotate every worker under load, then re-verify
    --summary-json  emit the invariant verdict + stats as a JSON envelope

CLIENT OPTIONS:
    --addr A        server address (required)
    --spec FILE     campaign spec JSON (default: the built-in smoke spec)
    --seed S        override the spec seed
    --jobs N        ask the server to run this request on N workers
    --retries R     per-task retry count for this request
    --deadline-ms D wall-clock deadline for this request, server-side
    --repeat N      send the request N times over one connection (default 1)
    --busy-retries N  retry a Busy rejection up to N times (default 3)
    --json          print the final deterministic result document
    --stats         print each request's Done payload (advisory stats)
    --shutdown      ask the server to drain and exit (alone: no request)

REPORT OPTIONS:
    --json          emit the stage statistics as JSON instead of tables

ENVIRONMENT:
    CR_SEED         default seed when --seed is not given

EXIT CODES:
    0 success           1 runtime failure / broken chaos invariant
    2 usage error       3 unknown target
    4 campaign completed but degraded (some tasks have no result)
";

/// Seed precedence: explicit flag, then `CR_SEED`, then the default.
fn effective_seed(flag: Option<u64>) -> u64 {
    flag.or_else(|| std::env::var("CR_SEED").ok().and_then(|s| s.parse().ok()))
        .unwrap_or(cr_campaign::DEFAULT_SEED)
}

fn cmd_list(args: &[String]) -> i32 {
    let json = match args {
        [] => false,
        [flag] if flag == "--json" => true,
        _ => {
            eprintln!("usage: crash-resist list [--json]");
            return EXIT_USAGE;
        }
    };
    let servers: Vec<&str> = cr_targets::all_servers().iter().map(|t| t.name).collect();
    let dlls: Vec<&str> = cr_targets::browsers::CALIBRATION
        .iter()
        .map(|c| c.name)
        .collect();
    let oracles = ["ie", "firefox", "nginx"];
    if json {
        use serde::Serialize;
        let mut results = String::from("{\"servers\":");
        servers.write_json(&mut results);
        results.push_str(",\"dlls\":");
        dlls.write_json(&mut results);
        results.push_str(",\"oracles\":");
        oracles.write_json(&mut results);
        results.push_str(",\"plans\":");
        BUILTIN_PLANS.write_json(&mut results);
        results.push('}');
        println!(
            "{}",
            Report::builder(ReportKind::List)
                .results(results)
                .build()
                .to_json()
        );
    } else {
        println!("servers:  {}", servers.join(" "));
        println!("dlls:     {}", dlls.join(" "));
        println!("oracles:  {}", oracles.join(" "));
        println!("plans:    {}", BUILTIN_PLANS.join(" "));
    }
    EXIT_OK
}

fn cmd_discover(name: Option<&str>) -> i32 {
    let Some(name) = name else {
        eprintln!("usage: crash-resist discover <server>");
        return EXIT_USAGE;
    };
    let Some(target) = cr_targets::all_servers()
        .into_iter()
        .find(|t| t.name == name)
    else {
        eprintln!("unknown server {name:?} (try `crash-resist list`)");
        return EXIT_UNKNOWN_TARGET;
    };
    eprintln!("discovering crash-resistant primitives in {name} ...");
    print!("{}", render_findings(&discover_server(&target)));
    EXIT_OK
}

fn cmd_analyze(name: Option<&str>) -> i32 {
    let Some(name) = name else {
        eprintln!("usage: crash-resist analyze <dll>");
        return EXIT_USAGE;
    };
    let Some((i, c)) = cr_targets::browsers::CALIBRATION
        .iter()
        .enumerate()
        .find(|(_, c)| c.name == name)
    else {
        eprintln!("unknown dll {name:?} (try `crash-resist list`)");
        return EXIT_UNKNOWN_TARGET;
    };
    let img =
        cr_targets::browsers::generate_dll(&cr_targets::browsers::DllSpec::from_calib_x64(c, i));
    let a = analyze_module(&img);
    println!(
        "{}: {} guarded functions, {} AV-capable after symbolic execution",
        a.module, a.guarded_before, a.guarded_after
    );
    println!(
        "filters: {} unique, {} survive, {} undecided",
        a.filters_before, a.filters_after, a.filters_undecided
    );
    for f in a.functions.iter().filter(|f| f.survives()).take(10) {
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
    EXIT_OK
}

/// `crash-resist explore`: run the path-enumerating [`FilterExplorer`]
/// over every `__except` filter of one generated module and report
/// per-filter path verdicts. `--independent` switches the solver to
/// the one-blast-per-path differential reference mode; `--json` frames
/// the deterministic per-filter records in a [`ReportKind::Explore`]
/// envelope with the aggregated solver counters as `metrics`.
fn cmd_explore(args: &[String]) -> i32 {
    let mut json = false;
    let mut independent = false;
    let mut name: Option<&str> = None;
    let usage = "usage: crash-resist explore <dll> [--independent] [--json]";
    for a in args {
        match a.as_str() {
            "--json" => json = true,
            "--independent" => independent = true,
            s if !s.starts_with('-') && name.is_none() => name = Some(s),
            other => {
                eprintln!("unexpected argument {other:?}");
                eprintln!("{usage}");
                return EXIT_USAGE;
            }
        }
    }
    let Some(name) = name else {
        eprintln!("{usage}");
        return EXIT_USAGE;
    };
    let image = if name == "loopy" {
        cr_targets::browsers::generate_loopy_dll()
    } else if let Some((i, c)) = cr_targets::browsers::CALIBRATION
        .iter()
        .enumerate()
        .find(|(_, c)| c.name == name)
    {
        cr_targets::browsers::generate_dll(&cr_targets::browsers::DllSpec::from_calib_x64(c, i))
    } else {
        eprintln!("unknown dll {name:?} (try `crash-resist list`, or \"loopy\")");
        return EXIT_UNKNOWN_TARGET;
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
    let labels: std::collections::BTreeMap<u32, &str> = image
        .exports
        .iter()
        .map(|(n, &rva)| (rva, n.as_str()))
        .collect();
    let explorer = FilterExplorer::builder().incremental(!independent).build();
    let rows: Vec<(String, cr_symex::ExplorationReport)> = filter_rvas
        .iter()
        .map(|&rva| {
            let label = labels
                .get(&rva)
                .map_or_else(|| format!("{rva:#x}"), |n| (*n).to_string());
            (label, explorer.explore(&code, base + rva as u64))
        })
        .collect();

    let verdict_word = |v: &FilterVerdict| match v {
        FilterVerdict::AcceptsAccessViolation { .. } => "accepts-av",
        FilterVerdict::RejectsAccessViolation => "rejects-av",
        FilterVerdict::Unknown(_) => "undecided",
    };
    if json {
        use serde::Serialize;
        let mut results = String::from("{\"module\":");
        image.name.write_json(&mut results);
        results.push_str(",\"mode\":");
        if independent {
            "independent"
        } else {
            "incremental"
        }
        .write_json(&mut results);
        results.push_str(",\"filters\":[");
        for (i, (label, r)) in rows.iter().enumerate() {
            if i > 0 {
                results.push(',');
            }
            results.push_str("{\"filter\":");
            label.write_json(&mut results);
            results.push_str(",\"verdict\":");
            verdict_word(&r.verdict).write_json(&mut results);
            match &r.verdict {
                FilterVerdict::AcceptsAccessViolation { witness_code } => {
                    results.push_str(",\"witness\":");
                    format!("{witness_code:#x}").write_json(&mut results);
                }
                FilterVerdict::Unknown(reason) => {
                    results.push_str(",\"reason\":");
                    (*reason).write_json(&mut results);
                }
                FilterVerdict::RejectsAccessViolation => {}
            }
            results.push_str(",\"paths\":");
            (r.paths.len() as u64).write_json(&mut results);
            results.push_str(",\"completed\":");
            (r.completed_paths as u64).write_json(&mut results);
            results.push_str(",\"aborted\":");
            (r.aborted_paths.len() as u64).write_json(&mut results);
            results.push_str(",\"pruned\":");
            (r.pruned_branches as u64).write_json(&mut results);
            results.push_str(",\"steps\":");
            (r.steps as u64).write_json(&mut results);
            results.push('}');
        }
        results.push_str("],\"summary\":{\"accepts\":");
        let count = |w: &str| {
            rows.iter()
                .filter(|(_, r)| verdict_word(&r.verdict) == w)
                .count() as u64
        };
        count("accepts-av").write_json(&mut results);
        results.push_str(",\"rejects\":");
        count("rejects-av").write_json(&mut results);
        results.push_str(",\"undecided\":");
        count("undecided").write_json(&mut results);
        results.push_str("}}");
        // Solver counters ride in `metrics`: their values depend on
        // memo state shared with whatever else ran in this process.
        let mut metrics = String::from("{\"solver_calls\":");
        rows.iter()
            .map(|(_, r)| r.solver_calls)
            .sum::<u64>()
            .write_json(&mut metrics);
        metrics.push_str(",\"memo_lookups\":");
        rows.iter()
            .map(|(_, r)| r.memo_lookups)
            .sum::<u64>()
            .write_json(&mut metrics);
        metrics.push_str(",\"memo_hits\":");
        rows.iter()
            .map(|(_, r)| r.memo_hits)
            .sum::<u64>()
            .write_json(&mut metrics);
        metrics.push('}');
        println!(
            "{}",
            Report::builder(ReportKind::Explore)
                .results(results)
                .metrics(metrics)
                .build()
                .to_json()
        );
        return EXIT_OK;
    }

    println!(
        "{}: {} unique filter(s), {} mode",
        image.name,
        rows.len(),
        if independent {
            "independent"
        } else {
            "incremental"
        }
    );
    for (label, r) in &rows {
        let why = match &r.verdict {
            FilterVerdict::AcceptsAccessViolation { witness_code } => {
                format!("accepts AV (witness {witness_code:#x})")
            }
            FilterVerdict::RejectsAccessViolation => "rejects AV".to_string(),
            FilterVerdict::Unknown(reason) => format!("undecided: {reason}"),
        };
        println!(
            "  {label:<24} {why}  [{} path(s), {} completed, {} aborted, {} pruned, {} steps]",
            r.paths.len(),
            r.completed_paths,
            r.aborted_paths.len(),
            r.pruned_branches,
            r.steps
        );
    }
    EXIT_OK
}

fn cmd_cfg(name: Option<&str>) -> i32 {
    let Some(name) = name else {
        eprintln!("usage: crash-resist cfg <server>");
        return EXIT_USAGE;
    };
    let Some(target) = cr_targets::all_servers()
        .into_iter()
        .find(|t| t.name == name)
    else {
        eprintln!("unknown server {name:?} (try `crash-resist list`)");
        return EXIT_UNKNOWN_TARGET;
    };
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
    EXIT_OK
}

/// `crash-resist scan`: run the traceless static backend over one
/// module (server target or harness-less corpus module) or, with
/// `--all`, the whole bundled corpus. `--cross-validate` additionally
/// runs the taint observer on server targets and reports site-level
/// agreement. `--json` frames everything in a [`ReportKind::Scan`]
/// envelope: `{"scans":[…],"agreements":[…]}`.
fn cmd_scan(args: &[String]) -> i32 {
    let mut json = false;
    let mut xval = false;
    let mut all = false;
    let mut module: Option<&str> = None;
    for a in args {
        match a.as_str() {
            "--json" => json = true,
            "--cross-validate" => xval = true,
            "--all" => all = true,
            flag if flag.starts_with('-') => {
                eprintln!("unknown scan option {flag:?}");
                return EXIT_USAGE;
            }
            name if module.is_none() => module = Some(name),
            extra => {
                eprintln!("unexpected scan operand {extra:?}");
                return EXIT_USAGE;
            }
        }
    }
    if all == module.is_some() {
        eprintln!("usage: crash-resist scan <module> [--cross-validate] [--json]");
        eprintln!("       crash-resist scan --all [--cross-validate] [--json]");
        return EXIT_USAGE;
    }

    let servers = cr_targets::all_servers();
    let mut scans: Vec<cr_scan::ScanReport> = Vec::new();
    let mut agreements: Vec<cr_scan::Agreement> = Vec::new();
    let mut scan_server = |t: &cr_targets::ServerTarget| {
        if xval {
            let (s, a) = cr_scan::cross_validate(t);
            scans.push(s);
            agreements.push(a);
        } else {
            scans.push(cr_scan::scan_elf(t.name, &t.image));
        }
    };
    if all {
        for t in &servers {
            scan_server(t);
        }
        // Corpus modules have no harness; they are the traceless-only
        // half of the sweep.
        for m in cr_targets::corpus::modules() {
            scans.push(cr_scan::scan_elf(m.name, &m.image));
        }
    } else {
        let name = module.expect("checked above");
        if let Some(t) = servers.iter().find(|t| t.name == name) {
            scan_server(t);
        } else if let Some(m) = cr_targets::corpus::module(name) {
            if xval {
                eprintln!(
                    "--cross-validate needs a dynamic harness; corpus module {name:?} has none"
                );
                return EXIT_USAGE;
            }
            scans.push(cr_scan::scan_elf(m.name, &m.image));
        } else {
            eprintln!("unknown module {name:?} (try `crash-resist list`)");
            return EXIT_UNKNOWN_TARGET;
        }
    }

    if json {
        use serde::Serialize;
        let mut results = String::from("{\"scans\":[");
        for (i, s) in scans.iter().enumerate() {
            if i > 0 {
                results.push(',');
            }
            results.push_str(&s.to_json());
        }
        results.push_str("],\"agreements\":");
        agreements.write_json(&mut results);
        results.push('}');
        println!(
            "{}",
            Report::builder(ReportKind::Scan)
                .results(results)
                .build()
                .to_json()
        );
        return EXIT_OK;
    }

    for s in &scans {
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
    for a in &agreements {
        println!(
            "agreement {}: {} matched, {} static-only, {} taint-only (recall {:.0}%)",
            a.module,
            a.matched.len(),
            a.static_only.len(),
            a.taint_only.len(),
            a.recall() * 100.0
        );
    }
    EXIT_OK
}

fn cmd_funnel(corpus: Option<&str>) -> i32 {
    let corpus = match corpus {
        None => 2_000,
        Some(s) => match s.parse() {
            Ok(n) => n,
            Err(_) => {
                eprintln!("bad corpus size {s:?}");
                return EXIT_USAGE;
            }
        },
    };
    let seed = effective_seed(None);
    eprintln!("building ie-sim with a {corpus}-function corpus (seed {seed}) ...");
    let mut sim = cr_targets::browsers::ie::build_with_corpus(corpus, seed);
    let report = cr_core::api_fuzzer::run_funnel(&mut sim, 2);
    print!("{}", cr_core::report::render_funnel(&report));
    EXIT_OK
}

fn cmd_poc(oracle: Option<&str>, addr: Option<&str>) -> i32 {
    let (Some(oracle), Some(addr)) = (oracle, addr) else {
        eprintln!("usage: crash-resist poc <ie|firefox|nginx> <hexaddr>");
        return EXIT_USAGE;
    };
    let Ok(addr) = u64::from_str_radix(addr.trim_start_matches("0x"), 16) else {
        eprintln!("bad address {addr:?}");
        return EXIT_USAGE;
    };
    let (verdict, probes, crashed) = match oracle {
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
        other => {
            eprintln!("unknown oracle {other:?} (try `crash-resist list`)");
            return EXIT_UNKNOWN_TARGET;
        }
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
    EXIT_OK
}

/// Flags shared by the `campaign` and `chaos` verbs.
struct CampaignFlags {
    spec_path: Option<PathBuf>,
    jobs: usize,
    cache_dir: Option<PathBuf>,
    seed_flag: Option<u64>,
    retries: u32,
    deadline_ms: Option<u64>,
    json: bool,
    /// write a structured execution trace (JSONL) here.
    trace: Option<PathBuf>,
    /// chaos only: built-in fault plan name.
    plan: String,
    /// chaos only: compact machine-checkable summary.
    summary_json: bool,
}

impl CampaignFlags {
    /// Parse `args`; `chaos` additionally accepts `--plan` and
    /// `--summary-json`. Prints the usage error itself and returns
    /// `Err(EXIT_USAGE)` so callers can `return` the code directly.
    fn parse(verb: &str, args: &[String], chaos: bool) -> Result<CampaignFlags, i32> {
        let mut f = CampaignFlags {
            spec_path: None,
            jobs: 1,
            cache_dir: None,
            seed_flag: None,
            retries: 1,
            deadline_ms: Some(cr_campaign::DEFAULT_DEADLINE_MS),
            json: false,
            trace: None,
            plan: "mayhem".to_string(),
            summary_json: false,
        };
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--json" => {
                    f.json = true;
                    i += 1;
                }
                "--summary-json" if chaos => {
                    f.summary_json = true;
                    i += 1;
                }
                flag @ ("--spec" | "--jobs" | "--cache" | "--seed" | "--retries"
                | "--deadline-ms" | "--trace") => {
                    let Some(v) = args.get(i + 1) else {
                        eprintln!("{flag} needs a value");
                        return Err(EXIT_USAGE);
                    };
                    let ok = match flag {
                        "--spec" => {
                            f.spec_path = Some(PathBuf::from(v));
                            true
                        }
                        "--cache" => {
                            f.cache_dir = Some(PathBuf::from(v));
                            true
                        }
                        "--trace" => {
                            f.trace = Some(PathBuf::from(v));
                            true
                        }
                        "--jobs" => v.parse().map(|n| f.jobs = n).is_ok(),
                        "--seed" => v.parse().map(|s| f.seed_flag = Some(s)).is_ok(),
                        "--retries" => v.parse().map(|r| f.retries = r).is_ok(),
                        "--deadline-ms" => v
                            .parse()
                            .map(|d| f.deadline_ms = if d == 0 { None } else { Some(d) })
                            .is_ok(),
                        _ => unreachable!(),
                    };
                    if !ok {
                        eprintln!("bad {flag} value {v:?} (want a non-negative integer)");
                        return Err(EXIT_USAGE);
                    }
                    i += 2;
                }
                "--plan" if chaos => {
                    let Some(v) = args.get(i + 1) else {
                        eprintln!("--plan needs a value");
                        return Err(EXIT_USAGE);
                    };
                    f.plan = v.clone();
                    i += 2;
                }
                other => {
                    eprintln!("unknown {verb} option {other:?}");
                    return Err(EXIT_USAGE);
                }
            }
        }
        Ok(f)
    }

    /// Resolve the campaign spec: `--spec FILE`, else `fallback`, with
    /// an explicit seed (flag or `CR_SEED`) overriding the spec's own.
    fn resolve_spec(
        &self,
        fallback: impl FnOnce(u64) -> CampaignSpec,
    ) -> Result<CampaignSpec, i32> {
        let mut spec = match &self.spec_path {
            Some(path) => {
                let text = std::fs::read_to_string(path).map_err(|e| {
                    eprintln!("cannot read {}: {e}", path.display());
                    EXIT_USAGE
                })?;
                CampaignSpec::from_json(&text).map_err(|e| {
                    eprintln!("bad spec {}: {e}", path.display());
                    EXIT_USAGE
                })?
            }
            None => fallback(effective_seed(self.seed_flag)),
        };
        if self.seed_flag.is_some() || std::env::var("CR_SEED").is_ok() {
            spec.seed = effective_seed(self.seed_flag);
        }
        Ok(spec)
    }

    fn engine_config(&self, injector: Option<std::sync::Arc<FaultInjector>>) -> EngineConfig {
        EngineConfig {
            jobs: self.jobs,
            retries: self.retries,
            cache_dir: self.cache_dir.clone(),
            deadline_ms: self.deadline_ms,
            injector,
            ..EngineConfig::default()
        }
    }

    /// Begin trace collection when `--trace FILE` was given.
    fn start_trace(&self) {
        if self.trace.is_some() {
            cr_trace::start();
        }
    }

    /// Stop trace collection and write the JSONL file. Returns an exit
    /// code on I/O failure; `None` means nothing to do or success.
    fn finish_trace(&self) -> Option<i32> {
        let path = self.trace.as_ref()?;
        let trace = cr_trace::finish();
        if let Err(e) = std::fs::write(path, trace.to_jsonl()) {
            eprintln!("cannot write trace {}: {e}", path.display());
            return Some(EXIT_RUNTIME);
        }
        eprintln!(
            "trace: {} event(s) ({} dropped) -> {}",
            trace.events.len(),
            trace.dropped,
            path.display()
        );
        None
    }
}

fn cmd_campaign(args: &[String]) -> i32 {
    let flags = match CampaignFlags::parse("campaign", args, false) {
        Ok(f) => f,
        Err(code) => return code,
    };
    let spec = match flags.resolve_spec(CampaignSpec::builtin) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let json = flags.json;
    let cfg = flags.engine_config(None);
    eprintln!(
        "campaign {:?}: {} task(s) on {} worker(s), seed {} ...",
        spec.name,
        spec.tasks.len(),
        cfg.jobs.max(1),
        spec.seed
    );
    flags.start_trace();
    let outcome = run_campaign(&spec, &cfg);
    if let Some(code) = flags.finish_trace() {
        return code;
    }
    let report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("campaign cache error: {e}");
            return EXIT_RUNTIME;
        }
    };

    if json {
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
    if report.degraded {
        EXIT_DEGRADED
    } else {
        EXIT_OK
    }
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
fn arena_invariants(summaries: &[&cr_arena::ArenaSummary]) -> [(&'static str, bool); 4] {
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
    let stealth_evades_rate = cell("stealth", "rate").is_some_and(|(_, p)| p.detected_rounds == 0);
    let stealth_caught_by_cusum = cell("stealth", "cusum")
        .is_some_and(|(rounds, p)| rounds > 0 && p.detected_rounds == rounds);
    let escalation_len = cr_arena::ESCALATION.len() as u64;
    let filter_blocks_escalations = !summaries.is_empty()
        && summaries.iter().all(|s| {
            s.pairs
                .iter()
                .find(|p| p.detector == "filter")
                .is_some_and(|p| p.blocked_escalations == escalation_len * s.located_rounds as u64)
        });
    let zero_false_positives = !summaries.is_empty()
        && summaries
            .iter()
            .flat_map(|s| &s.pairs)
            .all(|p| p.false_positives == 0);
    [
        ("stealth_evades_rate", stealth_evades_rate),
        ("stealth_caught_by_cusum", stealth_caught_by_cusum),
        ("filter_blocks_escalations", filter_blocks_escalations),
        ("zero_false_positives", zero_false_positives),
    ]
}

/// `crash-resist arena`: run every probing strategy against the full
/// detector roster through the campaign engine and render the
/// strategy × detector matrix plus the headline invariants. The JSON
/// envelope carries only the deterministic half (`metrics` is null,
/// like `chaos --summary-json`), so it is byte-identical at any
/// `--jobs` count and diffs against a golden.
fn cmd_arena(args: &[String]) -> i32 {
    let flags = match CampaignFlags::parse("arena", args, false) {
        Ok(f) => f,
        Err(code) => return code,
    };
    let spec = match flags.resolve_spec(arena_spec) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let cfg = flags.engine_config(None);
    eprintln!(
        "arena {:?}: {} strategy task(s) on {} worker(s), seed {} ...",
        spec.name,
        spec.tasks.len(),
        cfg.jobs.max(1),
        spec.seed
    );
    flags.start_trace();
    let outcome = run_campaign(&spec, &cfg);
    if let Some(code) = flags.finish_trace() {
        return code;
    }
    let report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("arena cache error: {e}");
            return EXIT_RUNTIME;
        }
    };
    let summaries: Vec<&cr_arena::ArenaSummary> = report
        .records
        .iter()
        .filter_map(|r| match &r.result {
            Some(TaskResult::Arena { summary, .. }) => Some(summary),
            _ => None,
        })
        .collect();
    let invariants = arena_invariants(&summaries);
    if flags.json {
        use serde::Serialize;
        let mut results = String::from("{\"strategies\":[");
        for (i, s) in summaries.iter().enumerate() {
            if i > 0 {
                results.push(',');
            }
            results.push_str(&s.to_json());
        }
        results.push_str("],\"invariants\":{");
        for (i, (name, holds)) in invariants.iter().enumerate() {
            if i > 0 {
                results.push(',');
            }
            results.push('"');
            results.push_str(name);
            results.push_str("\":");
            holds.write_json(&mut results);
        }
        results.push_str("}}");
        println!(
            "{}",
            Report::builder(ReportKind::Arena)
                .results(results)
                .build()
                .to_json()
        );
    } else {
        for s in &summaries {
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
        let line: Vec<String> = invariants
            .iter()
            .map(|(name, holds)| format!("{name}={holds}"))
            .collect();
        println!("invariants: {}", line.join(" "));
        for rec in &report.records {
            if rec.result.is_none() {
                match &rec.error {
                    Some(err) => println!("  {:<18} FAILED: {err}", rec.label),
                    None => println!("  {:<18} FAILED", rec.label),
                }
            }
        }
    }
    if report.degraded {
        EXIT_DEGRADED
    } else {
        EXIT_OK
    }
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
fn cmd_chaos(args: &[String]) -> i32 {
    let flags = match CampaignFlags::parse("chaos", args, true) {
        Ok(f) => f,
        Err(code) => return code,
    };
    let Some(plan) = FaultPlan::builtin(&flags.plan) else {
        eprintln!(
            "unknown fault plan {:?} (have: {})",
            flags.plan,
            BUILTIN_PLANS.join(" ")
        );
        return EXIT_UNKNOWN_TARGET;
    };
    let spec = match flags.resolve_spec(CampaignSpec::smoke) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let plan = plan.with_seed(effective_seed(flags.seed_flag));

    // The two-phase cache invariants need a persistent directory; use
    // a scratch one (removed afterwards) unless --cache was given. The
    // determinism rerun always gets its own fresh directory, so both
    // cold runs start from the same (empty) cache state.
    let scratch = std::env::temp_dir().join(format!("cr-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let cache_dir = match &flags.cache_dir {
        Some(d) => d.clone(),
        None => scratch.join("main"),
    };
    let rerun_dir = scratch.join("rerun");

    let run_phase = |plan: &FaultPlan,
                     dir: &PathBuf|
     -> Result<
        (cr_campaign::CampaignReport, std::sync::Arc<FaultInjector>),
        std::io::Error,
    > {
        let injector = std::sync::Arc::new(FaultInjector::new(plan.clone()));
        let mut cfg = flags.engine_config(Some(injector.clone()));
        cfg.cache_dir = Some(dir.clone());
        run_campaign(&spec, &cfg).map(|r| (r, injector))
    };

    eprintln!(
        "chaos plan {:?} (seed {}): {} task(s) on {} worker(s) ...",
        plan.name,
        plan.seed,
        spec.tasks.len(),
        flags.jobs.max(1)
    );

    flags.start_trace();
    let mut failures: Vec<String> = Vec::new();
    let outcome =
        (|| -> std::io::Result<(cr_campaign::CampaignReport, Vec<String>, ErrorCounts)> {
            let (cold, cold_inj) = run_phase(&plan, &cache_dir)?;
            let cfg_for_expect =
                flags.engine_config(Some(std::sync::Arc::new(FaultInjector::new(plan.clone()))));

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

            // I2: accounting — every injected fault shows up in its class,
            // nothing else does. The cold phase starts from an empty cache,
            // so its quarantine count must be zero.
            let expected = expected_error_counts(&spec, &cfg_for_expect);
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
            let mut warm_expected = expected_error_counts(
                &spec,
                &flags.engine_config(Some(std::sync::Arc::new(FaultInjector::new(
                    warm_plan.clone(),
                )))),
            );
            warm_expected.cache_corrupt += corrupted;
            if warm.errors != warm_expected {
                failures.push(format!(
                "accounting(warm): observed {:?}, expected {:?} ({corrupted} corrupted record(s))",
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
        })();

    let _ = std::fs::remove_dir_all(&scratch);
    if let Some(code) = flags.finish_trace() {
        return code;
    }

    let (cold, fired, warm_errors) = match outcome {
        Ok(t) => t,
        Err(e) => {
            eprintln!("chaos cache error: {e}");
            return EXIT_RUNTIME;
        }
    };

    if flags.json {
        println!("{}", cold.to_report().to_json());
    }
    if flags.summary_json {
        use serde::Serialize;
        let mut results = String::from("{\"plan\":");
        plan.name.write_json(&mut results);
        results.push_str(",\"seed\":");
        plan.seed.write_json(&mut results);
        results.push_str(",\"tasks\":");
        cold.records.len().write_json(&mut results);
        results.push_str(",\"errors\":");
        cold.errors.write_json(&mut results);
        results.push_str(",\"warm_errors\":");
        warm_errors.write_json(&mut results);
        results.push_str(",\"degraded\":");
        cold.degraded.write_json(&mut results);
        results.push_str(",\"fired\":[");
        for (i, f) in fired.iter().enumerate() {
            if i > 0 {
                results.push(',');
            }
            f.write_json(&mut results);
        }
        results.push_str("],\"invariants\":");
        if failures.is_empty() { "ok" } else { "BROKEN" }.write_json(&mut results);
        results.push('}');
        // The summary is the byte-deterministic half (the smoke golden
        // diffs it), so it rides in `results` with no `metrics`.
        println!(
            "{}",
            Report::builder(ReportKind::Chaos)
                .results(results)
                .build()
                .to_json()
        );
    }
    if !flags.json && !flags.summary_json {
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
    if !failures.is_empty() {
        EXIT_RUNTIME
    } else if cold.degraded {
        EXIT_DEGRADED
    } else {
        EXIT_OK
    }
}

/// `crash-resist report`: merge one or more `--trace` files and render
/// per-stage latency tables (p50/p95/max over span durations) plus a
/// campaign timeline of schedule spans. With `--json`, emits a
/// [`ReportKind::Report`] envelope: stage/event counts in `results`,
/// wall-clock latency statistics in `metrics`.
fn cmd_report(args: &[String]) -> i32 {
    let mut json = false;
    let mut files: Vec<PathBuf> = Vec::new();
    for a in args {
        match a.as_str() {
            "--json" => json = true,
            flag if flag.starts_with('-') => {
                eprintln!("unknown report option {flag:?}");
                return EXIT_USAGE;
            }
            path => files.push(PathBuf::from(path)),
        }
    }
    if files.is_empty() {
        eprintln!("usage: crash-resist report <trace.jsonl>... [--json]");
        return EXIT_USAGE;
    }
    let mut traces = Vec::with_capacity(files.len());
    for path in &files {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {}: {e}", path.display());
                return EXIT_USAGE;
            }
        };
        match cr_trace::Trace::parse_jsonl(&text) {
            Ok(t) => traces.push(t),
            Err(e) => {
                eprintln!("bad trace {}: {e}", path.display());
                return EXIT_USAGE;
            }
        }
    }
    let n_files = traces.len();
    let merged = cr_trace::Trace::merge(traces);
    let stats = merged.stage_stats();
    let stage_names: Vec<&str> = merged.stages().iter().map(|s| s.name()).collect();
    // Decision-procedure counters from the advisory symex events.
    let solver_checks = merged.count_events(cr_trace::Stage::Symex, "solver.check");
    let solver_memo_hits =
        merged.count_events_with(cr_trace::Stage::Symex, "solver.check", "memo=hit");
    let solver_memo_misses =
        merged.count_events_with(cr_trace::Stage::Symex, "solver.check", "memo=miss");

    if json {
        use serde::Serialize;
        let mut results = String::from("{\"files\":");
        n_files.write_json(&mut results);
        results.push_str(",\"events\":");
        merged.events.len().write_json(&mut results);
        results.push_str(",\"dropped\":");
        merged.dropped.write_json(&mut results);
        results.push_str(",\"stages\":");
        stage_names.write_json(&mut results);
        results.push('}');
        let mut metrics = String::from("{\"stages\":[");
        for (i, s) in stats.iter().enumerate() {
            if i > 0 {
                metrics.push(',');
            }
            metrics.push_str("{\"stage\":");
            s.stage.name().write_json(&mut metrics);
            metrics.push_str(",\"events\":");
            s.events.write_json(&mut metrics);
            metrics.push_str(",\"spans\":");
            s.spans.write_json(&mut metrics);
            metrics.push_str(",\"p50_us\":");
            s.hist.p50().unwrap_or(0).write_json(&mut metrics);
            metrics.push_str(",\"p95_us\":");
            s.hist.p95().unwrap_or(0).write_json(&mut metrics);
            metrics.push_str(",\"max_us\":");
            s.hist.max().write_json(&mut metrics);
            metrics.push('}');
        }
        metrics.push_str("],\"solver\":{\"checks\":");
        solver_checks.write_json(&mut metrics);
        metrics.push_str(",\"memo_hits\":");
        solver_memo_hits.write_json(&mut metrics);
        metrics.push_str(",\"memo_misses\":");
        solver_memo_misses.write_json(&mut metrics);
        metrics.push_str("}}");
        println!(
            "{}",
            Report::builder(ReportKind::Report)
                .results(results)
                .metrics(metrics)
                .build()
                .to_json()
        );
        return EXIT_OK;
    }

    println!(
        "trace report: {n_files} file(s), {} event(s), {} dropped",
        merged.events.len(),
        merged.dropped
    );
    println!("stages: {}", stage_names.join(" "));
    println!(
        "{:<10} {:>7} {:>7} {:>9} {:>9} {:>9}",
        "stage", "events", "spans", "p50_us", "p95_us", "max_us"
    );
    for s in &stats {
        println!(
            "{:<10} {:>7} {:>7} {:>9} {:>9} {:>9}",
            s.stage.name(),
            s.events,
            s.spans,
            s.hist.p50().unwrap_or(0),
            s.hist.p95().unwrap_or(0),
            s.hist.max()
        );
    }
    println!(
        "solver: checks={solver_checks} memo_hits={solver_memo_hits} memo_misses={solver_memo_misses}"
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
    EXIT_OK
}

/// `crash-resist serve`: bind the resident analysis server and run it
/// until a client sends a Shutdown frame (the SIGTERM-equivalent —
/// portable `std` cannot trap signals). Prints `serving on ADDR` on
/// stdout once the listener is live, so scripts can scrape the
/// ephemeral port, then blocks until the drain completes.
fn cmd_serve(args: &[String]) -> i32 {
    let mut cfg = cr_serve::ServeConfig::default();
    let mut plan_name: Option<String> = None;
    let mut seed_flag: Option<u64> = None;
    let mut stats_json = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--stats-json" => {
                stats_json = true;
                i += 1;
            }
            flag @ ("--addr"
            | "--jobs"
            | "--retries"
            | "--deadline-ms"
            | "--request-deadline-ms"
            | "--capacity"
            | "--cache"
            | "--plan"
            | "--seed") => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("{flag} needs a value");
                    return EXIT_USAGE;
                };
                let ok = match flag {
                    "--addr" => {
                        cfg.addr = v.clone();
                        true
                    }
                    "--cache" => {
                        cfg.cache_dir = Some(PathBuf::from(v));
                        true
                    }
                    "--plan" => {
                        plan_name = Some(v.clone());
                        true
                    }
                    "--jobs" => v.parse().map(|n| cfg.jobs = n).is_ok(),
                    "--retries" => v.parse().map(|r| cfg.retries = r).is_ok(),
                    "--deadline-ms" => v
                        .parse()
                        .map(|d| cfg.deadline_ms = if d == 0 { None } else { Some(d) })
                        .is_ok(),
                    "--request-deadline-ms" => v
                        .parse()
                        .map(|d| cfg.request_deadline_ms = if d == 0 { None } else { Some(d) })
                        .is_ok(),
                    "--capacity" => v.parse().map(|c| cfg.admit_capacity = c).is_ok(),
                    "--seed" => v.parse().map(|s| seed_flag = Some(s)).is_ok(),
                    _ => unreachable!(),
                };
                if !ok {
                    eprintln!("bad {flag} value {v:?} (want a non-negative integer)");
                    return EXIT_USAGE;
                }
                i += 2;
            }
            other => {
                eprintln!("unknown serve option {other:?}");
                return EXIT_USAGE;
            }
        }
    }
    if let Some(name) = &plan_name {
        let Some(plan) = FaultPlan::builtin(name) else {
            eprintln!(
                "unknown fault plan {name:?} (have: {})",
                BUILTIN_PLANS.join(" ")
            );
            return EXIT_UNKNOWN_TARGET;
        };
        cfg.injector = Some(std::sync::Arc::new(FaultInjector::new(
            plan.with_seed(effective_seed(seed_flag)),
        )));
    }
    let server = match cr_serve::Server::bind(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind server: {e}");
            return EXIT_RUNTIME;
        }
    };
    let addr = match server.local_addr() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cannot read bound address: {e}");
            return EXIT_RUNTIME;
        }
    };
    println!("serving on {addr}");
    {
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
    }
    match server.run() {
        Ok(stats) => {
            eprintln!(
                "drained: {} conn(s), {} request(s) admitted, {} completed, {} busy-rejected",
                stats.conns_accepted,
                stats.requests_admitted,
                stats.requests_completed,
                stats.busy_rejections
            );
            if stats_json {
                use serde::Serialize;
                println!(
                    "{}",
                    Report::builder(ReportKind::Serve)
                        .results(stats.to_json())
                        .build()
                        .to_json()
                );
            }
            EXIT_OK
        }
        Err(e) => {
            eprintln!("server failed: {e}");
            EXIT_RUNTIME
        }
    }
}

/// One spec of the fleet request mix: a single SEH module per
/// request, chosen round-robin from the calibration set so each
/// request has a distinct consistent-hash route key and the mix
/// spreads across workers.
fn fleet_spec(n: usize, seed: u64) -> cr_campaign::CampaignSpec {
    let calib = cr_targets::browsers::CALIBRATION;
    cr_campaign::CampaignSpec::builder()
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
fn cmd_fleet(args: &[String]) -> i32 {
    let mut workers = 3usize;
    let mut requests = 4usize;
    let mut plan_name: Option<String> = None;
    let mut seed_flag: Option<u64> = None;
    let mut kill_request: Option<u64> = None;
    let mut rolling = false;
    let mut summary_json = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--rolling-restart" => {
                rolling = true;
                i += 1;
            }
            "--summary-json" => {
                summary_json = true;
                i += 1;
            }
            flag @ ("--workers" | "--requests" | "--plan" | "--seed" | "--kill-request") => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("{flag} needs a value");
                    return EXIT_USAGE;
                };
                let ok = match flag {
                    "--plan" => {
                        plan_name = Some(v.clone());
                        true
                    }
                    "--workers" => v.parse().map(|n: usize| workers = n.max(1)).is_ok(),
                    "--requests" => v.parse().map(|n: usize| requests = n.max(1)).is_ok(),
                    "--seed" => v.parse().map(|s| seed_flag = Some(s)).is_ok(),
                    "--kill-request" => v.parse().map(|k| kill_request = Some(k)).is_ok(),
                    _ => unreachable!(),
                };
                if !ok {
                    eprintln!("bad {flag} value {v:?} (want a non-negative integer)");
                    return EXIT_USAGE;
                }
                i += 2;
            }
            other => {
                eprintln!("unknown fleet option {other:?}");
                return EXIT_USAGE;
            }
        }
    }
    let seed = effective_seed(seed_flag);
    let mut cfg = cr_fleet::FleetConfig {
        workers,
        kill_at_admission: kill_request,
        ..cr_fleet::FleetConfig::default()
    };
    if let Some(name) = &plan_name {
        let Some(plan) = FaultPlan::builtin(name) else {
            eprintln!(
                "unknown fault plan {name:?} (have: {})",
                BUILTIN_PLANS.join(" ")
            );
            return EXIT_UNKNOWN_TARGET;
        };
        cfg.injector = Some(std::sync::Arc::new(FaultInjector::new(
            plan.with_seed(seed),
        )));
    }

    // The byte-identity references: the same specs, run one-shot in
    // this process. The fleet must reproduce these exactly no matter
    // which worker answers or how often the admission failed over.
    let specs: Vec<cr_campaign::CampaignSpec> =
        (0..requests).map(|n| fleet_spec(n, seed)).collect();
    let mut references = Vec::with_capacity(requests);
    for spec in &specs {
        match run_campaign(spec, &EngineConfig::default()) {
            Ok(report) => references.push(report.results_json()),
            Err(e) => {
                eprintln!("cannot compute reference for {}: {e}", spec.name);
                return EXIT_RUNTIME;
            }
        }
    }

    let fleet = match cr_fleet::Fleet::start(cfg) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot start fleet: {e}");
            return EXIT_RUNTIME;
        }
    };
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
    if rolling {
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
    let ok = answered == expected && byte_identical && exactly_once;
    eprintln!(
        "fleet verdict: answered {answered}/{expected}, byte_identical={byte_identical}, \
         exactly_once={exactly_once}, kills={}, failovers={}, restarts={}, coalesced={}",
        stats.kills, stats.failovers, stats.restarts, stats.coalesced
    );
    if summary_json {
        use serde::Serialize;
        let results = format!(
            "{{\"answered\":{answered},\"expected\":{expected},\
             \"byte_identical\":{byte_identical},\"exactly_once\":{exactly_once},\"ok\":{ok}}}"
        );
        println!(
            "{}",
            Report::builder(ReportKind::Fleet)
                .results(results)
                .metrics(stats.to_json())
                .build()
                .to_json()
        );
    }
    if ok {
        EXIT_OK
    } else {
        EXIT_RUNTIME
    }
}

/// Render the request payload: the spec document with the server-side
/// option keys (`jobs`, `retries`, `deadline_ms`) spliced in. The spec
/// parser ignores unknown top-level keys, so the same document also
/// feeds `campaign --spec` unchanged.
fn request_payload(
    spec: &cr_campaign::CampaignSpec,
    jobs: Option<usize>,
    retries: Option<u32>,
    deadline_ms: Option<u64>,
) -> String {
    use serde::Serialize;
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
fn cmd_client(args: &[String]) -> i32 {
    let mut addr: Option<String> = None;
    let mut spec_path: Option<PathBuf> = None;
    let mut seed_flag: Option<u64> = None;
    let mut jobs: Option<usize> = None;
    let mut retries: Option<u32> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut repeat = 1usize;
    let mut repeat_given = false;
    let mut busy_retries = 3u32;
    let mut json = false;
    let mut stats = false;
    let mut shutdown = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => {
                json = true;
                i += 1;
            }
            "--stats" => {
                stats = true;
                i += 1;
            }
            "--shutdown" => {
                shutdown = true;
                i += 1;
            }
            flag @ ("--addr" | "--spec" | "--seed" | "--jobs" | "--retries" | "--deadline-ms"
            | "--repeat" | "--busy-retries") => {
                let Some(v) = args.get(i + 1) else {
                    eprintln!("{flag} needs a value");
                    return EXIT_USAGE;
                };
                let ok = match flag {
                    "--addr" => {
                        addr = Some(v.clone());
                        true
                    }
                    "--spec" => {
                        spec_path = Some(PathBuf::from(v));
                        true
                    }
                    "--seed" => v.parse().map(|s| seed_flag = Some(s)).is_ok(),
                    "--jobs" => v.parse().map(|n| jobs = Some(n)).is_ok(),
                    "--retries" => v.parse().map(|r| retries = Some(r)).is_ok(),
                    "--deadline-ms" => v.parse().map(|d| deadline_ms = Some(d)).is_ok(),
                    "--repeat" => v
                        .parse()
                        .map(|n: usize| {
                            repeat = n.max(1);
                            repeat_given = true;
                        })
                        .is_ok(),
                    "--busy-retries" => v.parse().map(|n| busy_retries = n).is_ok(),
                    _ => unreachable!(),
                };
                if !ok {
                    eprintln!("bad {flag} value {v:?} (want a non-negative integer)");
                    return EXIT_USAGE;
                }
                i += 2;
            }
            other => {
                eprintln!("unknown client option {other:?}");
                return EXIT_USAGE;
            }
        }
    }
    let Some(addr) = addr else {
        eprintln!("usage: crash-resist client --addr HOST:PORT [options]");
        return EXIT_USAGE;
    };
    let mut spec = match &spec_path {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot read {}: {e}", path.display());
                    return EXIT_USAGE;
                }
            };
            match cr_campaign::CampaignSpec::from_json(&text) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("bad spec {}: {e}", path.display());
                    return EXIT_USAGE;
                }
            }
        }
        None => cr_campaign::CampaignSpec::smoke(effective_seed(seed_flag)),
    };
    if seed_flag.is_some() || std::env::var("CR_SEED").is_ok() {
        spec.seed = effective_seed(seed_flag);
    }
    let payload = request_payload(&spec, jobs, retries, deadline_ms);

    let mut client = match cr_serve::Client::connect(&addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot connect to {addr}: {e}");
            return EXIT_RUNTIME;
        }
    };
    eprintln!("connected to {addr} (protocol v{})", client.version);

    // A bare `client --addr X --shutdown` is an operator saying "stop
    // the server" — don't run a smoke campaign on the way out. Any
    // request-shaped flag restores the request loop before shutdown.
    let send_requests = !shutdown
        || spec_path.is_some()
        || repeat_given
        || json
        || stats
        || seed_flag.is_some()
        || jobs.is_some()
        || retries.is_some()
        || deadline_ms.is_some();

    let mut worst = EXIT_OK;
    let mut last: Option<cr_serve::Response> = None;
    for n in 1..=if send_requests { repeat } else { 0 } {
        let response = match client.request_with_retry(&payload, busy_retries) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("request {n} failed: {e}");
                return EXIT_RUNTIME;
            }
        };
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
            if stats {
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
    if json {
        match last.as_ref().and_then(|r| r.result.as_ref()) {
            Some(result) => match std::str::from_utf8(result) {
                Ok(doc) => println!("{doc}"),
                Err(_) => {
                    eprintln!("result document is not UTF-8");
                    return EXIT_RUNTIME;
                }
            },
            None => {
                eprintln!("no result document to print");
                if worst == EXIT_OK {
                    worst = EXIT_RUNTIME;
                }
            }
        }
    }
    if shutdown {
        if let Err(e) = client.shutdown() {
            eprintln!("shutdown failed: {e}");
            return EXIT_RUNTIME;
        }
        eprintln!("server acknowledged shutdown");
    }
    worst
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
    use super::{HELP, VERBS};

    #[test]
    fn help_lists_every_verb() {
        for verb in VERBS {
            assert!(
                HELP.contains(&format!("crash-resist {verb}")),
                "HELP must document verb {verb:?}"
            );
        }
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
