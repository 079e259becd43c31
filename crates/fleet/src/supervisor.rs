//! Worker lifecycle: spawn, heartbeat, restart, quarantine.
//!
//! Each worker is one in-process [`cr_serve::Server`] on its own
//! ephemeral port — the same frames a remote node would speak, so the
//! supervision protocol is exactly what a multi-host deployment uses.
//! Health is judged by *serving-phase* liveness, not process
//! liveness: a Pong that shows queued work, no executor running, and a
//! stalled completion counter across consecutive heartbeats counts as
//! a miss just like a dead socket does. A worker past the miss
//! threshold is killed and restarted with exponential backoff; one
//! that keeps crash-looping is quarantined out of the ring.

use crate::{FleetConfig, FleetCounters};
use cr_campaign::AnalysisCache;
use cr_chaos::Site;
use cr_serve::{Client, ServeConfig, Server, ServerHandle};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// One worker's place in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerState {
    /// Answering heartbeats; in the routing set.
    Healthy,
    /// Missed at least one heartbeat; still routed (the next pong
    /// clears it, the miss threshold kills it).
    Suspect,
    /// Being rotated out by a rolling restart; routed around, drains
    /// its in-flight work, then restarts gracefully.
    Draining,
    /// Killed or crashed; the monitor restarts it with backoff.
    Dead,
    /// Crash-looped past the quarantine threshold; never restarted,
    /// never routed.
    Quarantined,
}

impl WorkerState {
    /// Stable name for stats and logs.
    pub fn name(self) -> &'static str {
        match self {
            WorkerState::Healthy => "healthy",
            WorkerState::Suspect => "suspect",
            WorkerState::Draining => "draining",
            WorkerState::Dead => "dead",
            WorkerState::Quarantined => "quarantined",
        }
    }
}

/// One supervised worker slot. The slot persists across restarts; the
/// server behind it is generation-stamped.
struct WorkerSlot {
    id: usize,
    generation: u32,
    addr: String,
    handle: ServerHandle,
    thread: Option<JoinHandle<()>>,
    state: WorkerState,
    /// Consecutive heartbeat misses (transport failure, injected
    /// drop, or serving-phase wedge).
    misses: u32,
    /// Restarts since the last sustained-healthy streak; drives the
    /// backoff exponent and the quarantine verdict.
    consecutive_restarts: u32,
    /// Healthy pongs since the last restart; a long enough streak
    /// forgives the restart history.
    healthy_pongs: u32,
    /// Completion counter and queue depth from the previous pong, for
    /// the serving-phase wedge check.
    last_completed: u64,
    last_queue_len: u64,
    /// Router-maintained count of dispatches outstanding on this
    /// worker (drain gating for rolling restarts).
    in_flight: Arc<AtomicU64>,
    /// Persistent heartbeat connection, reused across ticks so the
    /// monitor does not open a fresh socket every `heartbeat_ms`;
    /// dropped whenever the worker changes generation.
    probe: Option<Client>,
}

/// Spawns and monitors the worker set.
pub struct Supervisor {
    cfg: FleetConfig,
    slots: Mutex<Vec<WorkerSlot>>,
    counters: Arc<FleetCounters>,
    /// Fleet-wide replica of the warm cache, pushed into every fresh
    /// generation so a restarted node comes back warm.
    replica: Arc<AnalysisCache>,
    shutdown: AtomicBool,
    /// Monotone heartbeat ordinal, the scope key for injected
    /// `fleet.heartbeat.drop` decisions.
    hb_seq: AtomicU64,
}

/// A healthy-pong streak long enough to forgive past restarts.
const FORGIVE_AFTER_PONGS: u32 = 10;

fn spawn_server(cfg: &FleetConfig) -> io::Result<(String, ServerHandle, JoinHandle<()>)> {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        jobs: cfg.worker_jobs,
        // The router owns fleet-level admission; give each worker
        // enough queue that router-approved work is never bounced.
        admit_capacity: cfg.admit_capacity.max(16),
        busy_retry_ms: 10,
        cache_dir: None, // fleet warmth travels by replication, not disk
        ..ServeConfig::default()
    })?;
    let addr = server.local_addr()?.to_string();
    let handle = server.handle();
    let thread = std::thread::spawn(move || {
        let _ = server.run();
    });
    Ok((addr, handle, thread))
}

impl Supervisor {
    /// Spawn the initial worker set.
    ///
    /// # Errors
    ///
    /// Propagates the first worker's bind failure.
    pub fn start(
        cfg: FleetConfig,
        counters: Arc<FleetCounters>,
        replica: Arc<AnalysisCache>,
    ) -> io::Result<Supervisor> {
        let mut slots = Vec::with_capacity(cfg.workers);
        for id in 0..cfg.workers {
            let (addr, handle, thread) = spawn_server(&cfg)?;
            counters.spawned.fetch_add(1, Ordering::Relaxed);
            slots.push(WorkerSlot {
                id,
                generation: 0,
                addr,
                handle,
                thread: Some(thread),
                state: WorkerState::Healthy,
                misses: 0,
                consecutive_restarts: 0,
                healthy_pongs: 0,
                last_completed: 0,
                last_queue_len: 0,
                in_flight: Arc::new(AtomicU64::new(0)),
                probe: None,
            });
        }
        Ok(Supervisor {
            cfg,
            slots: Mutex::new(slots),
            counters,
            replica,
            shutdown: AtomicBool::new(false),
            hb_seq: AtomicU64::new(0),
        })
    }

    /// Whether the router may dispatch to this worker right now.
    pub fn routable(&self, id: usize) -> bool {
        self.slots
            .lock()
            .unwrap()
            .get(id)
            .is_some_and(|s| matches!(s.state, WorkerState::Healthy | WorkerState::Suspect))
    }

    /// The worker's current address and in-flight gauge, if routable.
    pub fn dispatch_target(&self, id: usize) -> Option<(String, u32, Arc<AtomicU64>)> {
        let slots = self.slots.lock().unwrap();
        let s = slots.get(id)?;
        matches!(s.state, WorkerState::Healthy | WorkerState::Suspect)
            .then(|| (s.addr.clone(), s.generation, s.in_flight.clone()))
    }

    /// Kill a worker abruptly (the node-crash chaos action). Returns
    /// whether the id named a live worker.
    pub fn kill_worker(&self, id: usize) -> bool {
        let mut slots = self.slots.lock().unwrap();
        let Some(s) = slots.get_mut(id) else {
            return false;
        };
        if matches!(s.state, WorkerState::Quarantined | WorkerState::Dead) {
            return false;
        }
        s.handle.kill();
        s.state = WorkerState::Dead;
        s.probe = None;
        self.counters.kills.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// `(id, state, generation)` for every slot.
    pub fn worker_states(&self) -> Vec<(usize, WorkerState, u32)> {
        self.slots
            .lock()
            .unwrap()
            .iter()
            .map(|s| (s.id, s.state, s.generation))
            .collect()
    }

    /// Stop monitoring and gracefully drain every worker that is
    /// still alive (killed/quarantined ones are just joined).
    pub fn shutdown_all(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
        let mut slots = self.slots.lock().unwrap();
        for s in slots.iter_mut() {
            s.handle.shutdown();
        }
        for s in slots.iter_mut() {
            if let Some(t) = s.thread.take() {
                let _ = t.join();
            }
        }
    }

    /// One heartbeat pass over the fleet: ping the living, restart the
    /// dead, quarantine the crash-looping. Called by the monitor
    /// thread every `heartbeat_ms`.
    pub fn heartbeat_tick(&self) {
        if self.shutdown.load(Ordering::Relaxed) {
            return;
        }
        for id in 0..self.cfg.workers {
            if self.shutdown.load(Ordering::Relaxed) {
                return;
            }
            self.heartbeat_one(id);
        }
    }

    fn heartbeat_one(&self, id: usize) {
        // Probe outside the slots lock: a slow or dead peer must not
        // stall dispatch-target lookups for the whole fleet.
        let (addr, state, thread_done, probe_conn) = {
            let mut slots = self.slots.lock().unwrap();
            let s = &mut slots[id];
            if matches!(s.state, WorkerState::Quarantined | WorkerState::Draining) {
                return;
            }
            let done = s.thread.as_ref().is_some_and(JoinHandle::is_finished);
            (s.addr.clone(), s.state, done, s.probe.take())
        };
        if state == WorkerState::Dead || thread_done {
            if state != WorkerState::Dead {
                // The server thread exited underneath us (a crash the
                // kill path did not mediate).
                let mut slots = self.slots.lock().unwrap();
                slots[id].state = WorkerState::Dead;
            }
            self.restart(id);
            return;
        }

        let seq = self.hb_seq.fetch_add(1, Ordering::Relaxed);
        let probe = self.probe(&addr, probe_conn);
        let dropped = probe.is_ok()
            && self.cfg.injector.as_ref().is_some_and(|inj| {
                // Keyed per (worker, heartbeat ordinal): each drop
                // decision is independent, mirroring real packet loss.
                inj.fires(Site::FleetHeartbeatDrop, ((id as u64) << 32) | seq, 0)
                    .is_some()
            });
        if dropped {
            self.counters
                .heartbeats_dropped
                .fetch_add(1, Ordering::Relaxed);
        }

        let mut slots = self.slots.lock().unwrap();
        let s = &mut slots[id];
        if matches!(s.state, WorkerState::Quarantined | WorkerState::Draining) {
            return;
        }
        match probe {
            Ok((client, pong)) if !dropped => {
                // Serving-phase wedge: work queued, every executor idle, and
                // no completion progress since the last pong.
                let wedged = pong.queue_len > 0
                    && !pong.executing
                    && s.last_queue_len > 0
                    && pong.completed == s.last_completed;
                s.last_completed = pong.completed;
                s.last_queue_len = pong.queue_len;
                self.counters.pongs_ok.fetch_add(1, Ordering::Relaxed);
                if wedged {
                    self.miss(s);
                } else {
                    s.misses = 0;
                    s.state = WorkerState::Healthy;
                    s.healthy_pongs += 1;
                    if s.healthy_pongs >= FORGIVE_AFTER_PONGS {
                        s.consecutive_restarts = 0;
                    }
                }
                if s.state != WorkerState::Dead && s.addr == addr {
                    s.probe = Some(client);
                }
            }
            Ok((client, _)) => {
                // An injected drop loses the pong, not the socket.
                self.miss(s);
                if s.state != WorkerState::Dead && s.addr == addr {
                    s.probe = Some(client);
                }
            }
            Err(_) => self.miss(s),
        }
        let needs_restart = s.state == WorkerState::Dead;
        drop(slots);
        if needs_restart {
            self.restart(id);
        }
    }

    /// One short-deadline Ping round trip, reusing the slot's
    /// persistent heartbeat connection when one survives. A failed
    /// ping on a reused socket falls back to a fresh connection before
    /// counting as a miss, so a benignly-closed pool socket (e.g. a
    /// worker that restarted behind us) judges the worker exactly like
    /// a fresh probe would.
    fn probe(&self, addr: &str, reused: Option<Client>) -> io::Result<(Client, cr_serve::Pong)> {
        if let Some(mut client) = reused {
            if let Ok(pong) = client.ping() {
                return Ok((client, pong));
            }
        }
        let mut client = Client::connect(addr)?;
        client.set_read_timeout(Some(Duration::from_millis(
            self.cfg.heartbeat_ms.max(25) * 4,
        )))?;
        let pong = client.ping()?;
        Ok((client, pong))
    }

    fn miss(&self, s: &mut WorkerSlot) {
        s.misses += 1;
        s.healthy_pongs = 0;
        self.counters.misses.fetch_add(1, Ordering::Relaxed);
        if s.misses >= self.cfg.miss_threshold {
            s.handle.kill();
            s.state = WorkerState::Dead;
            s.probe = None;
            self.counters.deaths.fetch_add(1, Ordering::Relaxed);
        } else {
            s.state = WorkerState::Suspect;
        }
    }

    /// Restart a dead worker: join the old generation, back off
    /// exponentially, spawn the next generation, replicate the warm
    /// cache into it. Past the quarantine threshold the slot is
    /// quarantined instead.
    fn restart(&self, id: usize) {
        let (old_thread, restarts) = {
            let mut slots = self.slots.lock().unwrap();
            let s = &mut slots[id];
            if s.state != WorkerState::Dead {
                return;
            }
            if s.consecutive_restarts >= self.cfg.quarantine_after {
                s.state = WorkerState::Quarantined;
                self.counters.quarantined.fetch_add(1, Ordering::Relaxed);
                return;
            }
            (s.thread.take(), s.consecutive_restarts)
        };
        if let Some(t) = old_thread {
            let _ = t.join();
        }
        // Exponential backoff between restart attempts, capped; a
        // crash-looping worker burns quarantine budget, not CPU.
        let backoff = self
            .cfg
            .restart_backoff_ms
            .saturating_mul(1u64 << restarts.min(8))
            .min(self.cfg.restart_backoff_cap_ms);
        std::thread::sleep(Duration::from_millis(backoff));
        if self.shutdown.load(Ordering::Relaxed) {
            return;
        }
        let _span = cr_trace::span_advisory(cr_trace::Stage::Schedule, "fleet.restart");
        match spawn_server(&self.cfg) {
            Ok((addr, handle, thread)) => {
                self.counters.spawned.fetch_add(1, Ordering::Relaxed);
                self.counters.restarts.fetch_add(1, Ordering::Relaxed);
                let records = self.replica.export_jsonl();
                if !records.is_empty() {
                    // Warm the fresh generation before it takes
                    // traffic; failure is benign (it just runs cold).
                    if let Ok(mut c) = Client::connect(&addr) {
                        if c.sync_push(&records).is_ok() {
                            self.counters.replications.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                let mut slots = self.slots.lock().unwrap();
                let s = &mut slots[id];
                s.generation += 1;
                s.addr = addr;
                s.handle = handle;
                s.thread = Some(thread);
                s.state = WorkerState::Healthy;
                s.misses = 0;
                s.healthy_pongs = 0;
                s.consecutive_restarts += 1;
                s.last_completed = 0;
                s.last_queue_len = 0;
                s.probe = None;
            }
            Err(_) => {
                // Could not bind a replacement: leave the slot dead;
                // the next tick retries with more backoff.
                let mut slots = self.slots.lock().unwrap();
                slots[id].consecutive_restarts += 1;
            }
        }
    }

    /// Rotate one worker out gracefully for a rolling restart: route
    /// around it, wait for its in-flight work to drain, drain the
    /// server itself, then bring up the next generation warm.
    pub fn rotate(&self, id: usize) {
        let (addr, in_flight) = {
            let mut slots = self.slots.lock().unwrap();
            let Some(s) = slots.get_mut(id) else { return };
            if !matches!(s.state, WorkerState::Healthy | WorkerState::Suspect) {
                return;
            }
            s.state = WorkerState::Draining;
            (s.addr.clone(), s.in_flight.clone())
        };
        // Wait for the router's outstanding dispatches to finish; the
        // router stopped selecting this worker when it became
        // non-routable.
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while in_flight.load(Ordering::Relaxed) > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        // Graceful drain of the worker itself (it may still be
        // finishing the campaign behind an already-accounted reply).
        if let Ok(mut c) = Client::connect(&addr) {
            let _ = c.shutdown();
        } else {
            let slots = self.slots.lock().unwrap();
            slots[id].handle.shutdown();
        }
        let old_thread = self.slots.lock().unwrap()[id].thread.take();
        if let Some(t) = old_thread {
            let _ = t.join();
        }
        match spawn_server(&self.cfg) {
            Ok((addr, handle, thread)) => {
                self.counters.spawned.fetch_add(1, Ordering::Relaxed);
                let records = self.replica.export_jsonl();
                if !records.is_empty() {
                    if let Ok(mut c) = Client::connect(&addr) {
                        if c.sync_push(&records).is_ok() {
                            self.counters.replications.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                let mut slots = self.slots.lock().unwrap();
                let s = &mut slots[id];
                s.generation += 1;
                s.addr = addr;
                s.handle = handle;
                s.thread = Some(thread);
                s.state = WorkerState::Healthy;
                s.misses = 0;
                s.healthy_pongs = 0;
                s.last_completed = 0;
                s.last_queue_len = 0;
                s.probe = None;
                self.counters
                    .rolling_restarts
                    .fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                // No replacement came up: hand the drained slot to the
                // heartbeat restart path (backoff + quarantine
                // accounting) instead of stranding it in Draining.
                let mut slots = self.slots.lock().unwrap();
                slots[id].state = WorkerState::Dead;
            }
        }
    }
}
