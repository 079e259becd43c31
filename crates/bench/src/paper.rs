//! The paper's artifacts as one table.
//!
//! Each [`Artifact`] renders one experiment of EXPERIMENTS.md (E1–E12,
//! plus the DESIGN.md §5 ablations) to exactly the text committed at
//! `scripts/golden/paper/<name>.txt`. The `paper` binary prints them and
//! `tests/paper_golden.rs` diffs every one against its golden, so a
//! changed cell, count or verdict anywhere fails tier-1. The experiment's
//! own invariants (zero crashes, the §V-C totals, the detector verdicts)
//! stay asserts inside the render functions: a broken invariant panics
//! rather than printing a wrong table.

use cr_core::report::{
    banner, render_findings, render_funnel, render_table1_artifact, render_table2, render_table3,
};
use cr_core::seh::{analyze_module, on_path_count, FilterClass};
use cr_core::syscall_finder::{discover_server, Classification};
use cr_exploits::{find_region, MemoryOracle, ProbeResult};
use cr_image::FilterRef;
use cr_targets::browsers::{firefox, full_population_specs, generate_dll, DllSpec, CALIBRATION};
use cr_vm::{NullHook, Prot};

/// One paper artifact.
#[derive(Debug)]
pub struct Artifact {
    /// Experiment id, `E1`…`E12` or `ablations` (EXPERIMENTS.md).
    pub id: &'static str,
    /// Golden file stem under `scripts/golden/paper/`.
    pub name: &'static str,
    /// The artifact's text, byte for byte as pinned in its golden.
    /// Panics if one of the experiment's invariants does not hold.
    pub render: fn() -> String,
}

const fn artifact(id: &'static str, name: &'static str, render: fn() -> String) -> Artifact {
    Artifact { id, name, render }
}

/// Every artifact, in EXPERIMENTS.md order.
pub const ARTIFACTS: &[Artifact] = &[
    artifact("E1", "table1", table1),
    artifact("E2", "table2", table2),
    artifact("E3", "table3", table3),
    artifact("E4", "api_funnel", api_funnel),
    artifact("E5", "poc_exploits", poc_exploits),
    artifact("E6", "fault_rates", fault_rates),
    artifact("E7", "probe_loop", probe_loop),
    artifact("E8", "seh_totals", seh_totals),
    artifact("E9", "prior_work", prior_work),
    artifact("E10", "rerand", rerand),
    artifact("E11", "probe_cost", probe_cost),
    artifact("E12", "stealth_compare", stealth_compare),
    artifact("ablations", "ablations", ablations),
];

fn crashes(oracle: &dyn MemoryOracle) -> &'static str {
    if oracle.crashed() {
        "YES (!)"
    } else {
        "0"
    }
}

/// **E1 — Table I**: crash-resistant syscall candidates across the five
/// servers, followed by `crash-resist discover <server>` for each.
fn table1() -> String {
    let servers = cr_targets::all_servers();
    let reports: Vec<_> = servers.iter().map(discover_server).collect();
    let mut out = render_table1_artifact(&reports);
    for (target, report) in servers.iter().zip(&reports) {
        out += &format!("$ crash-resist discover {}\n", target.name);
        out += &render_findings(report);
    }
    out
}

/// Block coverage of a browsing run, as an OS hook.
struct Coverage(cr_vm::CoverageHook);

impl cr_vm::Hook for Coverage {
    fn on_inst(
        &mut self,
        cpu: &cr_vm::Cpu,
        mem: &mut cr_vm::Memory,
        inst: &cr_isa::Inst,
        va: u64,
        len: usize,
    ) {
        self.0.on_inst(cpu, mem, inst, va, len);
    }
}

impl cr_os::OsHook for Coverage {}

/// **E2 — Table II**: guarded code locations per DLL in an Internet
/// Explorer 11 run — before symbolic execution, after, and on the
/// browsing execution path.
fn table2() -> String {
    let mut out = banner("Table II — guarded code locations (IE 11 browsing run)");
    let mut sim = cr_targets::browsers::ie::build();
    let mut cov = Coverage(cr_vm::CoverageHook::new());
    assert!(
        cr_targets::browsers::ie::browse(&mut sim, 3, &mut cov),
        "browse workload"
    );
    let rows: Vec<_> = sim
        .proc
        .modules
        .iter()
        .filter(|m| m.name != "iexplore.exe")
        .map(|m| {
            let analysis = analyze_module(&m.image);
            let on_path = on_path_count(&analysis, &cov.0.visited);
            (analysis, on_path)
        })
        .collect();
    out += &format!("{}\n", render_table2(&rows));
    let scopes: usize = rows.iter().map(|(a, _)| a.scopes.len()).sum();
    let after: usize = rows.iter().map(|(a, _)| a.guarded_after).sum();
    let on_path: usize = rows.iter().map(|(_, p)| p).sum();
    let modules = rows.len();
    out += &format!("totals: {scopes} scopes across {modules} modules; {after} AV-capable guarded functions; {on_path} on path\n");
    out
}

/// **E3 — Table III**: unique exception filters per DLL before and after
/// symbolic execution, for the x64 and x86 module variants.
fn table3() -> String {
    let mut out = banner("Table III — exception filters before/after symbolic execution");
    let (mut x64, mut x86) = (Vec::new(), Vec::new());
    for (i, c) in CALIBRATION.iter().enumerate().filter(|(_, c)| c.in_table3) {
        x64.push(analyze_module(&generate_dll(&DllSpec::from_calib_x64(
            c, i,
        ))));
        x86.push(analyze_module(&generate_dll(&DllSpec::from_calib_x86(
            c, i,
        ))));
    }
    out += &format!("{}\n", render_table3(&x64, &x86));
    let before: usize = x64.iter().map(|a| a.filters_before).sum();
    let after: usize = x64.iter().map(|a| a.filters_after).sum();
    let undecided: usize = x64.iter().map(|a| a.filters_undecided).sum();
    out += &format!("x64 totals: {before} filters, {after} survive symbolic execution, {undecided} undecided (manual verification)\n");
    out
}

/// **E4 — the §V-B Windows API funnel**: corpus → pointer-taking → fuzz
/// survivors → on execution path → JS-reachable → usable (zero).
fn api_funnel() -> String {
    let mut out = banner("§V-B — Windows API crash-resistance funnel (IE 11)");
    // The generated corpus tops the curated functions up to 20,672 — the
    // paper's MSDN extraction count.
    let generated = 20_672 - cr_os::windows::api::ApiTable::curated_only().specs().len();
    let mut sim = cr_targets::browsers::ie::build_with_corpus(generated, 2017);
    let report = cr_core::api_fuzzer::run_funnel(&mut sim, 3);
    out += &format!("{}\n", render_funnel(&report));
    out += &format!(
        "negative result reproduced: {} usable Windows API primitives\n",
        report.usable
    );
    out
}

/// Plant-scan-report for one §VI oracle: the hidden region must be found
/// with zero crashes.
fn hunt(oracle: &mut dyn MemoryOracle, secret: u64, window: (u64, u64), stride: u64) -> String {
    let found = find_region(oracle, window.0, window.1, stride);
    assert_eq!(found, Some(secret), "oracle must locate the hidden region");
    assert!(!oracle.crashed());
    format!(
        "  {:<26} hidden@{secret:#014x}  found: {secret:<#20x} probes: {:>5}  crashes: {}\n",
        oracle.name(),
        oracle.probes(),
        crashes(oracle),
    )
}

/// **E5 — the §VI proof-of-concept results**: each of the four oracles
/// locates a hidden (reference-less) memory region with zero crashes,
/// and the Cherokee oracle's timing side channel separates mapped from
/// unmapped.
fn poc_exploits() -> String {
    let mut out = banner("§VI — proof-of-concept crash-resistant probing exploits");

    // IE 11: MUTX::Enter / EnterCriticalSection oracle.
    let mut ie = cr_exploits::ie::IeOracle::new();
    let secret = 0x31_4159_0000u64;
    ie.sim().proc.mem.map(secret, 0x4000, Prot::RW);
    out += &hunt(&mut ie, secret, (0x31_4000_0000, 0x31_4200_0000), 0x1_0000);

    // Firefox 46: VEH + background worker oracle.
    let mut fx = cr_exploits::firefox::FirefoxOracle::new();
    let secret = 0x27_1828_1000u64;
    fx.sim().proc.mem.map(secret, 0x2000, Prot::RW);
    out += &hunt(&mut fx, secret, (0x27_1800_0000, 0x27_1900_0000), 0x1000);

    // Nginx 1.9: parallel-connection recv oracle.
    let mut ng = cr_exploits::nginx::NginxOracle::new();
    let secret = 0x55_0000_2000u64;
    ng.proc().mem.map(secret, 0x1000, Prot::RW);
    out += &hunt(&mut ng, secret, (0x55_0000_0000, 0x55_0001_0000), 0x1000);

    // Cherokee 1.2: epoll_wait timing side channel.
    let mut ck = cr_exploits::cherokee::CherokeeOracle::new();
    out += &format!(
        "  cherokee baseline batch latency: {} steps\n",
        ck.baseline()
    );
    ck.proc().mem.map(0x77_0000_0000, 0x1000, Prot::RW);
    let mapped = ck.probe(0x77_0000_0000);
    let unmapped = ck.probe(0x88_0000_0000);
    assert_eq!(mapped, ProbeResult::Mapped);
    assert_eq!(unmapped, ProbeResult::Unmapped);
    assert!(!ck.crashed());
    out += &format!(
        "  {:<26} mapped probe: {mapped:?}   unmapped probe: {unmapped:?}   probes: {}  crashes: {}\n",
        ck.name(),
        ck.probes(),
        crashes(&ck),
    );
    out + "\nall four PoCs completed with zero crashes\n"
}

/// **E6 — the §VII-C fault-rate experiment** (the paper's
/// figure-equivalent series): handled-AV rates under browsing, asm.js and
/// probing workloads, the rate-based detector's verdicts, and the
/// mapped-only-AV policy's effect on each workload.
fn fault_rates() -> String {
    use cr_defense::policy::{asmjs_under_policy, probing_under_policy};

    let mut out = banner("§VII-C — access-violation rates and defenses (Firefox)");
    let mut workload = |label: &str, drive: &dyn Fn(&mut firefox::FirefoxSim)| {
        let mut sim = firefox::build();
        let t0 = sim.proc.vtime;
        drive(&mut sim);
        let r =
            cr_defense::RateDetector::default().analyze(&sim.proc.fault_log, t0, sim.proc.vtime);
        out += &format!(
            "  {label:<23}{:>6} AVs  {:>9.1} AV/s  peak/window {:>4}  alarm: {}\n",
            r.handled_faults, r.faults_per_second, r.peak_window, r.alarm
        );
        r.alarm
    };
    workload("browsing (40 pages):", &|sim| {
        for _ in 0..40 {
            sim.proc.call(sim.render_page, &[], 100_000, &mut NullHook);
        }
    });
    let asmjs_alarm = workload("asm.js (10 runs):", &|sim| {
        for _ in 0..10 {
            sim.proc
                .call(sim.asmjs_bench, &[], 1_000_000, &mut NullHook);
            sim.proc.run(200_000, &mut NullHook); // gaps between bursts
        }
    });
    assert!(
        !asmjs_alarm,
        "asm.js must stay under the detection threshold"
    );
    let probing_alarm = workload("probing (300 probes):", &|sim| {
        for i in 0..300u64 {
            firefox::probe(sim, 0x9000_0000_0000 + i * 0x1000, &mut NullHook);
        }
    });
    assert!(probing_alarm, "probing must trip the detector");

    out += "\nmapped-only-AV policy (strict_unmapped_policy):\n";
    let (relaxed, strict) = (asmjs_under_policy(false), asmjs_under_policy(true));
    out += &format!(
        "  asm.js:   policy off → survived={} handled={}   policy on → survived={} handled={}\n",
        relaxed.survived, relaxed.handled_faults, strict.survived, strict.handled_faults
    );
    let (relaxed, strict) = (
        probing_under_policy(false, 10),
        probing_under_policy(true, 10),
    );
    out += &format!(
        "  probing:  policy off → survived={} probes={}      policy on → survived={} probes={}\n",
        relaxed.survived, relaxed.probes_before_crash, strict.survived, strict.probes_before_crash
    );
    assert!(strict.probes_before_crash == 0 && !strict.survived);
    out
}

/// **E7 — Figure 1**: the three-step probe loop (overwrite → trigger →
/// infer) on the Nginx `recv` oracle, one line per probe, as
/// `examples/quickstart.rs` walks it.
fn probe_loop() -> String {
    let mut out = banner("Figure 1 — the three-step probe loop (nginx recv oracle)");
    let mut oracle = cr_exploits::nginx::NginxOracle::new();
    let secret = 0x55_0000_3000u64;
    oracle.proc().mem.map(secret, 0x1000, Prot::RW);
    out += &format!("hidden region at {secret:#x} (no references anywhere)\n");
    out +=
        "each probe: overwrite the parked buffer pointer → trigger recv → infer from the reply\n";
    for addr in [secret - 0x2000, secret - 0x1000, secret, secret + 0x1000] {
        let verdict = oracle.probe(addr);
        out += &format!("  probe {addr:#014x} → {verdict:?}\n");
        assert_eq!(
            verdict == ProbeResult::Mapped,
            addr == secret,
            "probe {addr:#x}"
        );
        assert_ne!(verdict, ProbeResult::Inconclusive);
    }
    assert!(!oracle.crashed());
    out + &format!(
        "{} probes, crashes: {}\n",
        oracle.probes(),
        crashes(&oracle)
    )
}

/// **E8 — the §V-C aggregate numbers**: across 187 analyzed DLLs the
/// paper reports 6,745 C-specific exception handlers using 5,751
/// distinct filter functions, of which 808 survive symbolic execution
/// (handle access violations, catch-alls included). Every module is
/// generated, serialized and re-parsed, and every filter function is
/// symbolically executed: the scale test of the pipeline.
fn seh_totals() -> String {
    let mut out = banner("§V-C — full 187-DLL population (handlers / filters / after-SB)");
    let specs = full_population_specs();
    let (mut handlers, mut filters, mut filters_after, mut guarded_after, mut undecided) =
        (0usize, 0usize, 0usize, 0usize, 0usize);
    for spec in &specs {
        let a = analyze_module(&generate_dll(spec));
        handlers += a.guarded_before;
        filters += a.filters_before;
        filters_after += a.filters_after;
        guarded_after += a.guarded_after;
        undecided += a.filters_undecided;
    }
    out += &format!(
        "modules analyzed:                 {:>6}   (paper: 187)\n\
         C-specific exception handlers:    {handlers:>6}   (paper: 6,745)\n\
         distinct filter functions:        {filters:>6}   (paper: 5,751)\n\
         filters surviving symex:          {filters_after:>6}   (paper: 808)\n\
         AV-capable guarded locations:     {guarded_after:>6}   (paper: 1,797)\n\
         undecided filters (manual check): {undecided:>6}\n",
        specs.len()
    );
    assert_eq!(handlers, 6_745);
    assert_eq!(filters, 5_751);
    assert_eq!(filters_after, 808);
    assert_eq!(guarded_after, 1_797);
    out
}

/// **E9 — §VII-A, locating the primitives of previous work** (Gawlik et
/// al.'s two memory oracles). The Internet Explorer primitive (a
/// catch-all handler in jscript9) **is** found by the `.pdata` analysis;
/// its post-update variant (the filter delegates to a configuration
/// helper) survives only as *undecided*, for manual verification; the
/// Firefox primitive (a vectored handler registered at runtime) is
/// **not** found, since VEH state never appears in any scope table.
fn prior_work() -> String {
    let mut out = banner("§VII-A — locating the primitives of previous work");

    // IE: the MUTX::Enter catch-all scope.
    let sim = cr_targets::browsers::ie::build();
    let jscript9 = sim.proc.module("jscript9.dll").expect("loaded");
    let analysis = analyze_module(&jscript9.image);
    let mutx_va = jscript9.export("MUTX_Enter");
    let found = analysis
        .functions
        .iter()
        .find(|f| f.begin_va == mutx_va)
        .expect("MUTX function analyzed");
    assert!(found.survives());
    let catch_all = found
        .scopes
        .iter()
        .any(|s| matches!(s.class, FilterClass::CatchAll));
    assert!(catch_all);
    out += &format!("IE MUTX::Enter @ {mutx_va:#x}: located automatically — scope filter field = 0x1 (catch-all): {catch_all}\n");

    // IE post-update: the filter calls a config helper.
    let undecided: Vec<&str> = analysis
        .scopes
        .iter()
        .filter_map(|s| match &s.class {
            FilterClass::Undecided { reason } => Some(reason.as_str()),
            _ => None,
        })
        .collect();
    assert!(!undecided.is_empty());
    out += &format!(
        "post-update variant: {} filter(s) flagged for manual verification ({})\n",
        undecided.len(),
        undecided[0]
    );

    // Firefox: a runtime-registered VEH is invisible statically.
    let fx = firefox::build();
    let ntdll = fx.proc.module("ntdll.dll").expect("loaded");
    let handler_rva = (fx.veh_handler - ntdll.base) as u32;
    let in_scope_tables = ntdll.image.runtime_functions.iter().any(|rf| {
        rf.unwind
            .scopes
            .iter()
            .any(|s| s.filter == FilterRef::Function(handler_rva))
    });
    let registered = fx.proc.veh_handlers().contains(&fx.veh_handler);
    assert!(!in_scope_tables, "static analysis must miss the VEH oracle");
    assert!(registered);
    out += &format!(
        "Firefox VEH handler @ {:#x}: appears in scope tables: {in_scope_tables} — registered at runtime: {registered}\n",
        fx.veh_handler
    );
    out + "\n§VII-A reproduced: IE found automatically, Firefox missed (VEH limitation)\n"
}

/// **E10 — §II-B runtime re-randomization**: the IE oracle sweeps eight
/// slots upward for a hidden region that starts in slot 3, while the
/// defender relocates it to the next slot every `period` probes. A static
/// region is always located and still there when the scan ends;
/// relocating it every 2 probes leaves the scanner with a stale or
/// missing hit, though a slow enough defender can still lose.
fn rerand() -> String {
    use cr_defense::rerand::{scan_under_rerand, MovingRegion};

    let mut out = banner("§II-B — runtime re-randomization vs probing (IE 11 oracle, 8 slots)");
    out += "period      located  still valid  probes  relocations\n";
    let mut oracle = cr_exploits::ie::IeOracle::new();
    for (window, period) in [u64::MAX, 8, 4, 2, 1].into_iter().enumerate() {
        // Each defender gets a window of its own, so earlier regions stay
        // out of the way.
        let slots = (0..8u64)
            .map(|i| 0x4A_0000_0000 + window as u64 * 0x1_0000_0000 + i * 0x10_0000)
            .collect();
        let mut defender = MovingRegion::new(&mut oracle.sim().proc.mem, slots, 0x1000, period, 3);
        let outcome = scan_under_rerand(
            &mut oracle,
            &mut defender,
            |o| &mut o.sim().proc.mem as *mut _,
            0x10_0000,
        );
        let label = match period {
            u64::MAX => "static".to_string(),
            p => p.to_string(),
        };
        out += &format!(
            "{label:<10} {:>8} {:>12} {:>7} {:>12}\n",
            outcome.located,
            outcome.still_valid,
            outcome.probes,
            defender.relocations()
        );
        let attack_works = outcome.located && outcome.still_valid;
        match period {
            u64::MAX => assert!(attack_works),
            2 => assert!(
                !attack_works,
                "relocating every 2 probes must defeat the attack"
            ),
            _ => {}
        }
    }
    assert!(!oracle.crashed());
    out + &format!("crashes: {}\n", crashes(&oracle))
}

/// **E11 — probe cost vs hiding entropy**: with crash resistance, the
/// *only* cost of residual randomization entropy is attacker time (§I,
/// §II-B). A hidden region is placed behind n bits of entropy and the
/// Firefox background-thread oracle sweeps the window.
fn probe_cost() -> String {
    let mut out = banner("Probe cost vs. hiding entropy (Firefox oracle, 4 KiB stride)");
    out += " entropy         window     probes      virt time    crashes\n";
    let mut oracle = cr_exploits::firefox::FirefoxOracle::new();
    for bits in [6u32, 8, 10, 12] {
        let pages = 1u64 << bits;
        let base = 0x5000_0000_0000 + (bits as u64) * 0x1_0000_0000;
        let secret = base + (pages * 2 / 3).max(1) * 0x1000;
        oracle.sim().proc.mem.map(secret, 0x1000, Prot::RW);

        let probes_before = oracle.probes();
        let vtime_before = oracle.sim().proc.vtime;
        let found = find_region(&mut oracle, base, base + pages * 0x1000, 0x1000);
        assert_eq!(found, Some(secret), "{bits}-bit window");
        assert!(!oracle.crashed());
        out += &format!(
            "{bits:>7}b {:>10} KiB {:>10} {:>12}us {:>10}\n",
            pages * 4,
            oracle.probes() - probes_before,
            oracle.sim().proc.vtime - vtime_before,
            0
        );
    }
    out + "\nevery additional entropy bit doubles attacker *time*, never risk\n"
}

/// **E12 — crash-tolerant vs crash-resistant probing** (§I): both defeat
/// information hiding, but the restart-based brute force leaves a trail
/// of crashes while a memory oracle leaves none.
///
/// The crash-tolerant attacker corrupts a pointer lighttpd dereferences
/// in user mode, sends a request and watches the worker die; a
/// supervisor restarts the server and the attacker moves on (BROP-style).
/// The crash-resistant attacker scans the same window through the nginx
/// `recv` oracle.
fn stealth_compare() -> String {
    use cr_targets::servers::lighttpd;
    const WINDOW: u64 = 0x60_0000_0000;
    const PAGES: u64 = 24;
    const SECRET_SLOT: u64 = 17;

    let mut out = banner("§I — crash-tolerant vs crash-resistant probing (lighttpd)");
    let secret = WINDOW + SECRET_SLOT * 0x1000;

    // Crash-tolerant: corrupt a user-mode-dereferenced pointer.
    let t = lighttpd::target();
    let boot = || {
        let mut p = t.boot(&mut NullHook);
        p.mem.map(secret, 0x1000, Prot::R);
        p
    };
    let mut crashes = 0u64;
    let mut found_tolerant = None;
    let mut p = boot();
    // The path string must "parse" when mapped: leave zeros (NUL = empty
    // path → open fails gracefully; the deref itself is the probe).
    for addr in (0..PAGES).map(|i| WINDOW + i * 0x1000) {
        // Attacker write primitive: corrupt the touched path pointer.
        p.mem
            .write_u64(cr_targets::servers::DATA_BASE + 0x20, addr)
            .expect("the data segment is mapped");
        let conn = p.net.client_connect(t.port).expect("lighttpd listens");
        p.run(300_000, &mut NullHook);
        p.net.client_send(conn, b"GET /\n\n");
        p.run(1_500_000, &mut NullHook);
        if p.crash().is_none() {
            found_tolerant = Some(addr);
            break;
        }
        // Supervisor restarts the server; the attacker carries on.
        crashes += 1;
        p = boot();
    }
    assert_eq!(found_tolerant, Some(secret));
    assert_eq!(crashes, SECRET_SLOT);
    out += &format!(
        "crash-tolerant:  found {:?} after {crashes} crashes / {crashes} restarts — loud\n",
        Some(format!("{secret:#x}"))
    );

    // Crash-resistant: the read memory oracle.
    let mut oracle = cr_exploits::nginx::NginxOracle::new();
    oracle.proc().mem.map(secret, 0x1000, Prot::RW);
    let found = find_region(&mut oracle, WINDOW, WINDOW + PAGES * 0x1000, 0x1000);
    assert_eq!(found, Some(secret));
    assert!(!oracle.crashed());
    out += &format!(
        "crash-resistant: found {:?} after {} probes / 0 crashes — silent\n",
        Some(format!("{secret:#x}")),
        oracle.probes()
    );
    out + &format!("\nsame result, but the crash-resistant attacker is invisible to crash-count monitoring ({crashes} vs 0 crashes)\n")
}

/// **Ablations** of the design choices called out in DESIGN.md §5:
/// active invalidation vs passive candidate listing, symbolic execution
/// vs syntactic catch-all triage, byte- vs word-granular taint, and
/// execution-path cross-referencing.
fn ablations() -> String {
    let mut out = banner("Ablations");

    // 1. Without the invalidation phase every tainted-pointer syscall
    // would be reported usable; invalidation reveals most of them crash.
    out += "\n[1] active pointer invalidation (nginx):\n";
    let nginx = cr_targets::all_servers()
        .into_iter()
        .find(|t| t.name == "nginx")
        .expect("nginx is a server target");
    let findings = discover_server(&nginx).findings;
    let count = |keep: fn(&Classification) -> bool| {
        findings.iter().filter(|f| keep(&f.classification)).count()
    };
    let usable = count(|c| matches!(c, Classification::Usable { .. }));
    let crashing = count(|c| *c == Classification::CrashesOnInvalidation);
    assert!(crashing > usable, "invalidation must prune most candidates");
    out += &format!(
        "    passive listing would report usable: {}\n",
        findings.len()
    );
    out += &format!("    after invalidation:  usable {usable}, crash-on-invalidation {crashing}\n");

    // 2. Counting only scope entries with the literal `1` filter misses
    // every filter *function* that still accepts access violations.
    out += "\n[2] symbolic execution vs catch-all-only triage:\n";
    let mut missed_total = 0usize;
    for (i, c) in CALIBRATION.iter().filter(|c| c.in_table2).enumerate() {
        let img = generate_dll(&DllSpec::from_calib_x64(c, i));
        let catchall_only = img
            .runtime_functions
            .iter()
            .filter(|rf| {
                rf.unwind.handler_rva.is_some()
                    && rf
                        .unwind
                        .scopes
                        .iter()
                        .any(|s| s.filter == FilterRef::CatchAll)
            })
            .count();
        let with_symex = analyze_module(&img).guarded_after;
        let missed = with_symex.saturating_sub(catchall_only);
        missed_total += missed;
        out += &format!(
            "    {:<10} catch-all-only: {catchall_only:>3}   with symex: {with_symex:>3}   missed without symex: {missed:>3}\n",
            c.name
        );
    }
    assert!(
        missed_total > 0,
        "symex must add candidates beyond catch-all"
    );

    // 3. The paper extends libdft with byte-granular tracking. Rounding
    // the taint seed out to 8-byte words makes a 5-byte network command
    // falsely taint the pointer packed next to it — a phantom candidate.
    out += "\n[3] byte- vs word-granular taint (packed struct: 5-byte cmd, pointer at +5):\n";
    let byte_granular = packed_pointer_tainted(5); // exact 5 input bytes
    let word_granular = packed_pointer_tainted(8); // seed rounded out to the word
    assert!(!byte_granular && word_granular);
    out += &format!("    byte-granular: pointer tainted = {byte_granular} (correct)\n");
    out += &format!("    word-granular: pointer tainted = {word_granular} (false candidate)\n");

    // 4. Statically AV-capable guarded locations overstate what a
    // workload can actually trigger.
    out += "\n[4] static AV-capable locations vs actually-triggered (Table II):\n";
    let table2 = || CALIBRATION.iter().filter(|c| c.in_table2);
    let statically: u32 = table2().map(|c| c.guarded_after).sum();
    let on_path: u32 = table2().map(|c| c.on_path).sum();
    let factor = statically as f64 / on_path.max(1) as f64;
    out + &format!("    static after-symex: {statically}   on browse path: {on_path}   overstatement factor: {factor:.1}x\n")
}

/// Taint the first `seed_len` bytes of a buffer, load the pointer packed
/// at offset 5 and report whether it came out tainted.
fn packed_pointer_tainted(seed_len: u64) -> bool {
    use cr_isa::{Asm, Mem, Reg};
    use cr_vm::{Cpu, Exit, Memory};
    const BUF: u64 = 0x10_0000;

    let mut a = Asm::new(0x1000);
    a.mov_ri(Reg::Rdi, BUF + 5);
    a.load(Reg::Rsi, Mem::base(Reg::Rdi)); // load the packed pointer
    a.hlt();
    let mut mem = Memory::new();
    mem.map(0x1000, 0x1000, Prot::RX);
    let code = a.assemble().expect("labels resolve").code;
    mem.poke(0x1000, &code).expect("the code page is mapped");
    mem.map(BUF, 0x1000, Prot::RW);
    let mut taint = cr_taint::TaintEngine::new();
    taint.taint_region(BUF, seed_len, 1); // network-input label
    let mut cpu = Cpu::new();
    cpu.rip = 0x1000;
    while cpu.step(&mut mem, &mut taint) == Exit::Normal {}
    taint.reg_taint(Reg::Rsi, cr_isa::Width::B8).is_tainted()
}
