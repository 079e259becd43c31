//! Seeded workload inputs: the cold campaign spec and the per-client
//! request rounds. Everything here is a pure function of `--seed`.

use cr_campaign::{CampaignSpec, CampaignTask};
use serde::Serialize;

/// The five Table-I servers.
pub const SERVERS: [&str; 5] = ["nginx", "cherokee", "lighttpd", "memcached", "postgresql"];
/// The three §VI PoC oracles.
pub const ORACLES: [&str; 3] = ["ie", "firefox", "nginx"];
/// Statically scanned modules: the Table-I servers plus the
/// harness-less corpus module.
pub const SCAN_MODULES: [&str; 6] = [
    "nginx",
    "cherokee",
    "lighttpd",
    "memcached",
    "postgresql",
    "vsftpd",
];
/// The four arena probing strategies.
pub const STRATEGIES: [&str; 4] = ["linear", "bisect", "stealth", "burst"];
/// Synthetic corpus size of the §V-B funnel task.
pub const FUNNEL_CORPUS: usize = 2_000;

/// Compute requests in mixed serve traffic draw from the interactive
/// targets only: the campaign's stragglers (cherokee discovery, the
/// firefox oracle, the stealth and burst strategies) each hold the
/// single executor for 0.2–1.3 s and are measured by `campaign-cold`.
const SERVE_SERVERS: [&str; 4] = ["nginx", "lighttpd", "memcached", "postgresql"];
const SERVE_ORACLES: [&str; 2] = ["ie", "nginx"];
const SERVE_STRATEGIES: [&str; 2] = ["bisect", "linear"];

/// Seed of every lookup spec and of the seed-independent compute specs.
pub const FIXED_SEED: u64 = 2017;
/// Requests per round; each client issues whole rounds.
pub const ROUND_LEN: usize = 40;
/// Compute requests in a `serve-mixed` round (one of each kind).
pub const COMPUTE_PER_ROUND: usize = 4;

/// SplitMix64: a self-contained generator, so the inputs depend on the
/// seed alone and never on a generator inside the code under test.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream of `seed` distinguished by `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A spec seed: 31 bits, so it survives any JSON number reader.
    pub fn spec_seed(&mut self) -> u64 {
        self.next_u64() >> 33
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

const STREAM_ORDER: u64 = 1;
const STREAM_SPEC_SEED: u64 = 2;
const STREAM_ROUNDS: u64 = 3;
const STREAM_ITERATION: u64 = 4;

/// The seed of a run's `i`-th cold campaign: every campaign of a run
/// gets its own task order and arena/funnel seeds, so a run's medians
/// cover many arena seeds instead of one.
pub fn iteration_seed(seed: u64, i: u64) -> u64 {
    Rng::new(seed, STREAM_ITERATION ^ (i << 8)).spec_seed()
}

/// Names of the 187 calibrated §V-C SEH modules.
pub fn seh_modules() -> Vec<String> {
    cr_targets::browsers::full_population_specs()
        .into_iter()
        .map(|s| s.name)
        .collect()
}

/// The cold campaign: 5 servers, 187 SEH modules plus `loopy`, one
/// funnel, 3 PoC oracles, 6 scans and 4 arena strategies (207 tasks).
/// The seed shuffles the task order and sets the spec seed, which is
/// the funnel corpus seed and the arena base seed.
pub fn campaign_spec(seed: u64) -> CampaignSpec {
    let mut tasks: Vec<CampaignTask> = Vec::new();
    tasks.extend(SERVERS.map(|s| CampaignTask::ServerDiscovery(s.into())));
    tasks.extend(seh_modules().into_iter().map(CampaignTask::SehAnalysis));
    tasks.push(CampaignTask::SehAnalysis("loopy".into()));
    tasks.push(CampaignTask::ApiFunnel {
        corpus_size: FUNNEL_CORPUS,
    });
    tasks.extend(ORACLES.map(|o| CampaignTask::PocScan(o.into())));
    tasks.extend(SCAN_MODULES.map(|m| CampaignTask::StaticScan(m.into())));
    tasks.extend(STRATEGIES.map(|s| CampaignTask::Arena(s.into())));
    Rng::new(seed, STREAM_ORDER).shuffle(&mut tasks);
    CampaignSpec::builder()
        .name(format!("bench-cold-{seed}"))
        .seed(Rng::new(seed, STREAM_SPEC_SEED).spec_seed())
        .tasks(tasks)
        .build()
        .expect("cold campaign spec is valid")
}

/// Whether a request reads warm state or computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A warmed single-module SEH or scan spec: cache reads only.
    Lookup,
    /// Discovery, PoC, funnel or a fresh-seed arena run: cache misses.
    Compute,
}

/// One request: its class, its spec and the exact wire payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Lookup or compute.
    pub class: Class,
    /// The spec the payload encodes.
    pub spec: CampaignSpec,
    /// The Request frame payload.
    pub payload: String,
}

impl Request {
    fn new(class: Class, spec: CampaignSpec) -> Request {
        Request {
            class,
            payload: spec.to_json(),
            spec,
        }
    }

    /// Whether this is an SEH lookup (the only kind that touches the
    /// resident parsed-image table).
    pub fn is_seh(&self) -> bool {
        matches!(self.spec.tasks[..], [CampaignTask::SehAnalysis(_)])
    }
}

fn single(name: String, seed: u64, task: CampaignTask) -> CampaignSpec {
    CampaignSpec::builder()
        .name(name)
        .seed(seed)
        .task(task)
        .build()
        .expect("single-task spec is valid")
}

/// The 193 warm lookups: every §V-C SEH module and every scan module,
/// one single-module spec each.
pub fn lookup_pool() -> Vec<Request> {
    let seh = seh_modules().into_iter().map(|m| {
        single(
            format!("lookup-seh-{m}"),
            FIXED_SEED,
            CampaignTask::SehAnalysis(m),
        )
    });
    let scan = SCAN_MODULES.iter().map(|m| {
        single(
            format!("lookup-scan-{m}"),
            FIXED_SEED,
            CampaignTask::StaticScan((*m).into()),
        )
    });
    seh.chain(scan)
        .map(|s| Request::new(Class::Lookup, s))
        .collect()
}

/// Compute specs that miss the cache whatever their seed (server
/// discovery, PoC and the funnel have no cache table): fixed payloads,
/// one reference each.
pub fn fixed_compute_specs() -> Vec<CampaignSpec> {
    let servers = SERVE_SERVERS.iter().map(|s| {
        single(
            format!("compute-server-{s}"),
            FIXED_SEED,
            CampaignTask::ServerDiscovery((*s).into()),
        )
    });
    let oracles = SERVE_ORACLES.iter().map(|o| {
        single(
            format!("compute-poc-{o}"),
            FIXED_SEED,
            CampaignTask::PocScan((*o).into()),
        )
    });
    let funnel = single(
        "compute-funnel".into(),
        FIXED_SEED,
        CampaignTask::ApiFunnel {
            corpus_size: FUNNEL_CORPUS,
        },
    );
    servers.chain(oracles).chain([funnel]).collect()
}

/// Traffic shape of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 36 lookups and one compute request of each kind per round.
    Serve,
    /// 40 lookups per round.
    Fleet,
}

/// Round `round` of client `client`: a pure function of the seed.
pub fn round(mix: Mix, pool: &[Request], seed: u64, client: u64, round: u64) -> Vec<Request> {
    let mut rng = Rng::new(seed, STREAM_ROUNDS ^ (client << 8) ^ (round << 16));
    let computes = match mix {
        Mix::Serve => COMPUTE_PER_ROUND,
        Mix::Fleet => 0,
    };
    let mut out: Vec<Request> = (0..ROUND_LEN - computes)
        .map(|_| pool[rng.below(pool.len())].clone())
        .collect();
    if mix == Mix::Serve {
        let fixed = fixed_compute_specs();
        let server = fixed[rng.below(SERVE_SERVERS.len())].clone();
        let oracle = fixed[SERVE_SERVERS.len() + rng.below(SERVE_ORACLES.len())].clone();
        let funnel = fixed[fixed.len() - 1].clone();
        // A fresh seed is a fresh arena cache key: the run misses and
        // writes the cache.
        let strategy = SERVE_STRATEGIES[rng.below(SERVE_STRATEGIES.len())];
        let arena_seed = rng.spec_seed();
        let arena = single(
            format!("compute-arena-{strategy}-{arena_seed}"),
            arena_seed,
            CampaignTask::Arena(strategy.into()),
        );
        for spec in [server, oracle, funnel, arena] {
            out.push(Request::new(Class::Compute, spec));
        }
    }
    rng.shuffle(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payloads(mix: Mix, seed: u64) -> Vec<String> {
        let pool = lookup_pool();
        let mut out = Vec::new();
        for client in 0..2 {
            for r in 0..3 {
                out.extend(
                    round(mix, &pool, seed, client, r)
                        .into_iter()
                        .map(|q| q.payload),
                );
            }
        }
        out
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        assert_eq!(
            campaign_spec(7).to_json().into_bytes(),
            campaign_spec(7).to_json().into_bytes()
        );
        for mix in [Mix::Serve, Mix::Fleet] {
            assert_eq!(payloads(mix, 7), payloads(mix, 7));
        }
    }

    #[test]
    fn iterations_of_a_run_differ() {
        assert_eq!(iteration_seed(5, 3), iteration_seed(5, 3));
        assert_ne!(iteration_seed(5, 0), iteration_seed(5, 1));
        assert_ne!(iteration_seed(5, 0), iteration_seed(6, 0));
    }

    #[test]
    fn different_seeds_change_order_and_seeds() {
        let (a, b) = (campaign_spec(1), campaign_spec(2));
        assert_ne!(a.tasks, b.tasks, "task order");
        assert_ne!(a.seed, b.seed, "funnel corpus and arena seed");
        let mut sorted_a: Vec<String> = a.tasks.iter().map(|t| t.label()).collect();
        let mut sorted_b: Vec<String> = b.tasks.iter().map(|t| t.label()).collect();
        sorted_a.sort();
        sorted_b.sort();
        assert_eq!(sorted_a, sorted_b, "same task multiset");
        assert_ne!(payloads(Mix::Serve, 1), payloads(Mix::Serve, 2));
        assert_ne!(payloads(Mix::Fleet, 1), payloads(Mix::Fleet, 2));
    }

    #[test]
    fn shapes_match_the_workload_definitions() {
        assert_eq!(campaign_spec(3).tasks.len(), 207);
        let pool = lookup_pool();
        assert_eq!(pool.len(), 193);
        let r = round(Mix::Serve, &pool, 3, 0, 0);
        assert_eq!(r.len(), ROUND_LEN);
        let computes = r.iter().filter(|q| q.class == Class::Compute).count();
        assert_eq!(computes, COMPUTE_PER_ROUND);
        let f = round(Mix::Fleet, &pool, 3, 1, 5);
        assert!(f.iter().all(|q| q.class == Class::Lookup));
        // Payloads parse back to their specs.
        for q in r.iter().chain(&f) {
            assert_eq!(CampaignSpec::from_json(&q.payload).unwrap(), q.spec);
        }
    }
}
