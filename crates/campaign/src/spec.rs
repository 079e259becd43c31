//! Campaign specifications — what a discovery campaign should run.
//!
//! A [`CampaignSpec`] enumerates independent analysis tasks over the
//! paper's three primitive families (Table I servers, §IV-C SEH
//! modules, the §V-B API funnel) plus the §VI PoC oracles. Specs
//! serialize to JSON (for `--spec` files and report embedding) and
//! decode back through the serde shim's [`serde::Deserialize`].

use crate::builder::CampaignSpecBuilder;
use crate::json::Json;
use serde::Deserialize;

/// The six task families a campaign draws from. Serializes to the
/// same short names (`server` / `seh` / `funnel` / `poc` / `scan` /
/// `arena`) the metrics JSON always used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TaskKind {
    /// Table-I server syscall discovery.
    Server,
    /// §IV-C SEH module analysis.
    Seh,
    /// §V-B Windows API funnel.
    Funnel,
    /// §VI PoC memory-oracle scan.
    Poc,
    /// Traceless static syscall-site scan (cr-scan).
    Scan,
    /// Adversarial arena: one probing strategy vs the detector roster.
    Arena,
}

impl TaskKind {
    /// Every kind, in the stable reporting order.
    pub const ALL: [TaskKind; 6] = [
        TaskKind::Server,
        TaskKind::Seh,
        TaskKind::Funnel,
        TaskKind::Poc,
        TaskKind::Scan,
        TaskKind::Arena,
    ];

    /// Stable machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            TaskKind::Server => "server",
            TaskKind::Seh => "seh",
            TaskKind::Funnel => "funnel",
            TaskKind::Poc => "poc",
            TaskKind::Scan => "scan",
            TaskKind::Arena => "arena",
        }
    }
}

impl serde::Serialize for TaskKind {
    fn write_json(&self, out: &mut String) {
        self.name().write_json(out);
    }
}

/// One unit of campaign work. Tasks are independent by construction —
/// the pool may run them in any order on any worker.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum CampaignTask {
    /// Run the Table-I syscall pipeline on one server target.
    ServerDiscovery(String),
    /// SEH-analyze one module from the §V-C population.
    SehAnalysis(String),
    /// Run the §V-B Windows API funnel with the given corpus size.
    ApiFunnel {
        /// Number of synthetic corpus functions (plus the curated set).
        corpus_size: usize,
    },
    /// Drive one §VI memory oracle over its probe window.
    PocScan(String),
    /// Statically scan one module (server target or harness-less
    /// corpus module) for syscall sites with temporal tags.
    StaticScan(String),
    /// Drive one arena probing strategy (by [`cr_arena::StrategyKind`]
    /// name) through the full detector roster.
    Arena(String),
}

impl CampaignTask {
    /// The task's family.
    pub fn kind(&self) -> TaskKind {
        match self {
            CampaignTask::ServerDiscovery(_) => TaskKind::Server,
            CampaignTask::SehAnalysis(_) => TaskKind::Seh,
            CampaignTask::ApiFunnel { .. } => TaskKind::Funnel,
            CampaignTask::PocScan(_) => TaskKind::Poc,
            CampaignTask::StaticScan(_) => TaskKind::Scan,
            CampaignTask::Arena(_) => TaskKind::Arena,
        }
    }

    /// Human-readable label, e.g. `seh:user32`.
    pub fn label(&self) -> String {
        match self {
            CampaignTask::ServerDiscovery(n) => format!("server:{n}"),
            CampaignTask::SehAnalysis(n) => format!("seh:{n}"),
            CampaignTask::ApiFunnel { corpus_size } => format!("funnel:{corpus_size}"),
            CampaignTask::PocScan(n) => format!("poc:{n}"),
            CampaignTask::StaticScan(n) => format!("scan:{n}"),
            CampaignTask::Arena(n) => format!("arena:{n}"),
        }
    }
}

/// A full campaign: a name, the RNG seed threaded into every
/// rand-driven workload, and the task list.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct CampaignSpec {
    /// Campaign name (report header).
    pub name: String,
    /// Seed for corpus generation and synthetic workloads.
    pub seed: u64,
    /// The tasks, in spec order. Report records keep this order
    /// regardless of worker scheduling.
    pub tasks: Vec<CampaignTask>,
}

/// Default seed — the paper's publication year, matching the CLI
/// funnel default.
pub const DEFAULT_SEED: u64 = 2017;

impl CampaignSpec {
    /// Start building a spec fluently; validation happens at
    /// [`CampaignSpecBuilder::build`].
    pub fn builder() -> CampaignSpecBuilder {
        CampaignSpecBuilder::new()
    }

    /// The built-in full campaign: every server, every calibrated DLL,
    /// the standard funnel, every PoC oracle.
    pub fn builtin(seed: u64) -> CampaignSpec {
        let mut b = CampaignSpec::builder().name("builtin-full").seed(seed);
        for s in ["nginx", "cherokee", "lighttpd", "memcached", "postgresql"] {
            b = b.server(s);
        }
        for c in cr_targets::browsers::CALIBRATION {
            b = b.seh(c.name);
        }
        b = b.funnel(2_000);
        for o in ["ie", "firefox", "nginx"] {
            b = b.poc(o);
        }
        for s in ["nginx", "cherokee", "lighttpd", "memcached", "postgresql"] {
            b = b.scan(s);
        }
        for m in cr_targets::corpus::modules() {
            b = b.scan(m.name);
        }
        for s in cr_arena::StrategyKind::ALL {
            b = b.arena(s.name());
        }
        b.build().expect("builtin spec is valid")
    }

    /// A small fixed campaign for smoke tests and chaos validation:
    /// one server, four modules, a small funnel, one oracle — every
    /// task family represented, but seconds instead of minutes.
    pub fn smoke(seed: u64) -> CampaignSpec {
        let mut b = CampaignSpec::builder()
            .name("builtin-smoke")
            .seed(seed)
            .server("nginx");
        for c in cr_targets::browsers::CALIBRATION.iter().take(4) {
            b = b.seh(c.name);
        }
        b.funnel(200)
            .poc("ie")
            .scan("vsftpd")
            .arena("bisect")
            .build()
            .expect("smoke spec is valid")
    }

    /// Parse a spec from its JSON form (the shape [`serde::Serialize`]
    /// emits; `name` and `seed` may be omitted).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed construct.
    pub fn from_json(text: &str) -> Result<CampaignSpec, String> {
        CampaignSpec::read_json(&Json::parse(text)?)
    }
}

/// The derived decoding, except that `name` and `seed` may be omitted
/// (defaulting to `"campaign"` and [`DEFAULT_SEED`]). Unknown top-level
/// keys are ignored, so request options can ride in the same document.
impl Deserialize for CampaignSpec {
    fn read_json(root: &Json) -> Result<CampaignSpec, String> {
        let name = match root.get("name") {
            Some(_) => serde::read_field(root, "name")?,
            None => "campaign".to_string(),
        };
        let seed = match root.get("seed") {
            Some(_) => serde::read_field(root, "seed")?,
            None => DEFAULT_SEED,
        };
        let tasks = serde::read_field(root, "tasks")?;
        Ok(CampaignSpec { name, seed, tasks })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Serialize;

    #[test]
    fn builtin_covers_all_families() {
        let spec = CampaignSpec::builtin(DEFAULT_SEED);
        for kind in TaskKind::ALL {
            assert!(
                spec.tasks.iter().any(|t| t.kind() == kind),
                "missing {}",
                kind.name()
            );
        }
        assert_eq!(
            spec.tasks
                .iter()
                .filter(|t| t.kind() == TaskKind::Seh)
                .count(),
            10
        );
        // The builder keeps spec order: servers, modules, funnel,
        // pocs, scans, arena strategies.
        assert_eq!(spec.tasks[0].kind(), TaskKind::Server);
        assert_eq!(spec.tasks.last().unwrap().kind(), TaskKind::Arena);
        assert_eq!(
            spec.tasks
                .iter()
                .filter(|t| t.kind() == TaskKind::Arena)
                .count(),
            4,
            "one task per probing strategy"
        );
    }

    #[test]
    fn smoke_covers_all_families_but_stays_small() {
        let spec = CampaignSpec::smoke(DEFAULT_SEED);
        for kind in TaskKind::ALL {
            assert!(
                spec.tasks.iter().any(|t| t.kind() == kind),
                "missing {}",
                kind.name()
            );
        }
        assert!(spec.tasks.len() <= 9);
    }

    #[test]
    fn kind_names_serialize_like_the_old_strings() {
        let names: Vec<&str> = TaskKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, ["server", "seh", "funnel", "poc", "scan", "arena"]);
        assert_eq!(TaskKind::Seh.to_json(), "\"seh\"");
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = CampaignSpec::builder()
            .name("rt")
            .seed(99)
            .server("nginx")
            .seh("user32")
            .funnel(123)
            .poc("ie")
            .scan("vsftpd")
            .arena("stealth")
            .build()
            .unwrap();
        let back = CampaignSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn defaults_fill_in() {
        let spec = CampaignSpec::from_json(r#"{"tasks":[{"PocScan":"ie"}]}"#).unwrap();
        assert_eq!(spec.name, "campaign");
        assert_eq!(spec.seed, DEFAULT_SEED);
        assert_eq!(spec.tasks.len(), 1);
    }

    #[test]
    fn malformed_specs_are_rejected() {
        assert!(CampaignSpec::from_json("{}").is_err());
        assert!(CampaignSpec::from_json(r#"{"tasks":[{"Bogus":1}]}"#).is_err());
        assert!(CampaignSpec::from_json(r#"{"tasks":[{"ApiFunnel":{}}]}"#).is_err());
        assert!(CampaignSpec::from_json(
            r#"{"tasks":[{"ServerDiscovery":"a","SehAnalysis":"b"}]}"#
        )
        .is_err());
    }
}
