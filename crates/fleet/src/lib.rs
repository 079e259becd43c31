//! # cr-fleet — the supervised serve fleet
//!
//! The paper's discovery loop survives thousands of injected faults
//! in the *target*; this crate gives the serve tier the same
//! property. One [`Fleet`] runs N [`cr_serve::Server`] workers behind
//! a router that speaks the ordinary framed protocol, so any
//! [`cr_serve::Client`] — the CLI, the load bench, the tests — talks
//! to a fleet without knowing it is one.
//!
//! Two mechanisms, layered:
//!
//! * **Supervision** ([`supervisor`]) — heartbeat Pings judge each
//!   worker by its *serving phase* (queue depth, executor activity,
//!   completion progress), not just socket liveness; a worker past
//!   the miss threshold is killed and restarted with exponential
//!   backoff, and a crash-looping one is quarantined out of the ring.
//! * **Routing** ([`router`]) — requests are consistent-hashed by the
//!   modules they analyze, so the same module keeps hitting the node
//!   whose caches are warm for it; byte-identical concurrent requests
//!   coalesce onto one admission; on worker death or partition the
//!   admission fails over along the ring, and the delivery ledger
//!   guarantees each admitted request exactly one Result frame.
//!
//! Routing is the fleet's only warmth mechanism: a failover target or
//! a restarted generation starts cold, and answers with the same
//! bytes all the same.
//!
//! ## The failover idempotency contract
//!
//! Campaign results are deterministic functions of the spec: the
//! Result frame is byte-identical to a one-shot `crash-resist
//! campaign` run no matter which worker answers, how many times the
//! admission failed over, or how warm the answering node was. That is
//! what makes failover safe to do aggressively — re-executing on a
//! sibling cannot produce a different answer, so the router only has
//! to guarantee *delivery* exactly once, not *execution* exactly
//! once. The chaos plan `fleet` (node kills, partitions, heartbeat
//! drops) exists to hammer exactly this contract.

use cr_chaos::FaultInjector;
use std::io;
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub mod ring;
pub mod router;
pub mod supervisor;

pub use ring::HashRing;
pub use supervisor::{Supervisor, WorkerState};

/// Fleet knobs.
#[derive(Clone)]
pub struct FleetConfig {
    /// Front bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker count.
    pub workers: usize,
    /// Concurrent admissions before the router answers Busy.
    pub admit_capacity: usize,
    /// Fault injector for the fleet sites (`fleet.node.kill`,
    /// `fleet.partition`, `fleet.heartbeat.drop`).
    pub injector: Option<Arc<FaultInjector>>,
    /// Test/CI hook: kill the serving worker mid-request at this
    /// admission ordinal (1-based), once — the deterministic
    /// equivalent of one `fleet.node.kill` firing.
    pub kill_at_admission: Option<u64>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            addr: "127.0.0.1:0".into(),
            workers: 3,
            admit_capacity: 32,
            injector: None,
            kill_at_admission: None,
        }
    }
}

/// Fleet-lifetime counters (all advisory: timing- and
/// scheduling-dependent by nature).
#[derive(Default)]
pub struct FleetCounters {
    /// Worker processes spawned (initial + restarts).
    pub spawned: AtomicU64,
    /// Dead workers restarted.
    pub restarts: AtomicU64,
    /// Slots quarantined for crash-looping.
    pub quarantined: AtomicU64,
    /// Workers killed abruptly (injected or explicit).
    pub kills: AtomicU64,
    /// Workers declared dead by the miss threshold.
    pub deaths: AtomicU64,
    /// Injected partitions (dispatch attempts rerouted).
    pub partitions: AtomicU64,
    /// Injected heartbeat drops.
    pub heartbeats_dropped: AtomicU64,
    /// Healthy pongs observed.
    pub pongs_ok: AtomicU64,
    /// Heartbeat misses (transport, drop, or serving-phase wedge).
    pub misses: AtomicU64,
    /// Requests admitted at the router (including coalesced riders).
    pub requests_admitted: AtomicU64,
    /// Requests that coalesced onto an in-flight admission.
    pub coalesced: AtomicU64,
    /// Requests bounced with Busy at the router.
    pub busy_rejections: AtomicU64,
    /// Result frames delivered to waiters.
    pub results_delivered: AtomicU64,
    /// Dispatch attempts that failed over to another worker.
    pub failovers: AtomicU64,
    /// Workers rotated by graceful rolling restarts.
    pub rolling_restarts: AtomicU64,
    /// Delivery-ledger entries retired (front connection closed) with
    /// the exactly-once invariant intact.
    pub ledger_retired: AtomicU64,
    /// Delivery-ledger entries retired with a delivery count other
    /// than one: the exactly-once invariant was violated.
    pub ledger_violations: AtomicU64,
}

/// A point-in-time snapshot of [`FleetCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct FleetStats {
    /// Configured worker count.
    pub workers: u64,
    /// Worker processes spawned (initial + restarts).
    pub spawned: u64,
    /// Dead workers restarted.
    pub restarts: u64,
    /// Slots quarantined for crash-looping.
    pub quarantined: u64,
    /// Workers killed abruptly (injected or explicit).
    pub kills: u64,
    /// Workers declared dead by the miss threshold.
    pub deaths: u64,
    /// Injected partitions.
    pub partitions: u64,
    /// Injected heartbeat drops.
    pub heartbeats_dropped: u64,
    /// Healthy pongs observed.
    pub pongs_ok: u64,
    /// Heartbeat misses.
    pub misses: u64,
    /// Requests admitted at the router.
    pub requests_admitted: u64,
    /// Requests coalesced onto an in-flight admission.
    pub coalesced: u64,
    /// Requests bounced with Busy at the router.
    pub busy_rejections: u64,
    /// Result frames delivered.
    pub results_delivered: u64,
    /// Failovers across workers.
    pub failovers: u64,
    /// Always 0: the fleet does not replicate cache records. Kept
    /// because the fleet-warm benchmark still reports it.
    pub replications: u64,
    /// Rolling-restart rotations.
    pub rolling_restarts: u64,
    /// Ledger entries retired with exactly one delivery.
    pub ledger_retired: u64,
    /// Ledger entries retired with a delivery count other than one.
    pub ledger_violations: u64,
}

impl FleetCounters {
    fn snapshot(&self, workers: usize) -> FleetStats {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        FleetStats {
            workers: workers as u64,
            spawned: get(&self.spawned),
            restarts: get(&self.restarts),
            quarantined: get(&self.quarantined),
            kills: get(&self.kills),
            deaths: get(&self.deaths),
            partitions: get(&self.partitions),
            heartbeats_dropped: get(&self.heartbeats_dropped),
            pongs_ok: get(&self.pongs_ok),
            misses: get(&self.misses),
            requests_admitted: get(&self.requests_admitted),
            coalesced: get(&self.coalesced),
            busy_rejections: get(&self.busy_rejections),
            results_delivered: get(&self.results_delivered),
            failovers: get(&self.failovers),
            replications: 0,
            rolling_restarts: get(&self.rolling_restarts),
            ledger_retired: get(&self.ledger_retired),
            ledger_violations: get(&self.ledger_violations),
        }
    }
}

/// A running fleet: supervisor + monitor thread + router front.
pub struct Fleet {
    cfg: FleetConfig,
    supervisor: Arc<Supervisor>,
    router: Arc<router::Router>,
    counters: Arc<FleetCounters>,
    addr: String,
    front: Option<JoinHandle<io::Result<()>>>,
    monitor: Option<JoinHandle<()>>,
}

impl Fleet {
    /// Spawn the workers, the heartbeat monitor, and the router front.
    ///
    /// # Errors
    ///
    /// Socket bind failure (front or any worker).
    pub fn start(cfg: FleetConfig) -> io::Result<Fleet> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?.to_string();
        let counters = Arc::new(FleetCounters::default());
        let supervisor = Arc::new(Supervisor::start(cfg.clone(), counters.clone())?);
        let router = Arc::new(router::Router::new(
            cfg.clone(),
            supervisor.clone(),
            counters.clone(),
        ));

        let monitor = {
            let supervisor = supervisor.clone();
            let router = router.clone();
            let period = Duration::from_millis(crate::supervisor::HEARTBEAT_MS);
            std::thread::spawn(move || {
                while !router.is_shutdown() {
                    supervisor.heartbeat_tick();
                    std::thread::sleep(period);
                }
            })
        };
        let front = {
            let router = router.clone();
            std::thread::spawn(move || router.serve(&listener))
        };
        Ok(Fleet {
            cfg,
            supervisor,
            router,
            counters,
            addr,
            front: Some(front),
            monitor: Some(monitor),
        })
    }

    /// The front address clients connect to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> FleetStats {
        self.counters.snapshot(self.cfg.workers)
    }

    /// The live delivery ledger: `((front_conn, request_id),
    /// results)`. The fleet invariant is that every value is exactly
    /// 1; closed connections' entries are folded into the
    /// `ledger_retired` / `ledger_violations` stats counters, so the
    /// full invariant check is "every live count is 1 and
    /// `ledger_violations` is 0".
    pub fn delivery_counts(&self) -> Vec<((u64, u64), u32)> {
        self.router.delivery_counts()
    }

    /// `(id, state, generation)` per worker slot.
    pub fn worker_states(&self) -> Vec<(usize, WorkerState, u32)> {
        self.supervisor.worker_states()
    }

    /// Kill one worker abruptly (chaos / tests). Returns whether the
    /// id named a live worker.
    pub fn kill_worker(&self, id: usize) -> bool {
        self.supervisor.kill_worker(id)
    }

    /// Rolling restart: rotate every worker through a graceful
    /// drain-and-respawn, one at a time, behind the router. In-flight
    /// and concurrent requests are never dropped — the rotating
    /// worker is routed around while it drains.
    pub fn rolling_restart(&self) {
        for id in 0..self.cfg.workers {
            self.supervisor.rotate(id);
        }
    }

    /// Begin shutdown: stop admitting, let in-flight admissions
    /// finish.
    pub fn shutdown(&self) {
        self.router.shutdown();
    }

    /// Shut down and reap everything: waits for in-flight admissions
    /// (bounded), joins the front and monitor, drains the workers.
    /// Returns the final stats.
    pub fn join(mut self) -> FleetStats {
        self.router.shutdown();
        let deadline = Instant::now() + Duration::from_secs(30);
        while self.router.inflight() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        if let Some(t) = self.front.take() {
            let _ = t.join();
        }
        if let Some(t) = self.monitor.take() {
            let _ = t.join();
        }
        self.supervisor.shutdown_all();
        self.counters.snapshot(self.cfg.workers)
    }
}
