//! The trace collector: global session state, per-thread ring buffers,
//! and the span/event emission API.
//!
//! ## Zero cost when disabled
//!
//! Every entry point loads one relaxed [`AtomicBool`] and returns
//! before touching thread-locals, taking locks, or building detail
//! strings (detail closures are only invoked when tracing is active).
//!
//! ## Lock-free hot path
//!
//! When active, each thread records into its own [`Ring`] behind a
//! `thread_local!` — no cross-thread synchronisation per event. Rings
//! drain into the global session under a mutex only at task boundaries
//! ([`flush_local`]), at thread exit, and at [`finish`].
//!
//! ## Determinism
//!
//! Deterministic events draw from a per-attempt sequence counter that
//! [`task_scope`] resets, so the `(run, task, attempt, virtual_ms,
//! seq)` key orders them identically at any worker count. Advisory
//! events (`det: false`) use a separate counter so their presence or
//! absence (e.g. a solver call elided by a cache hit on another
//! worker) cannot shift the deterministic numbering.

use crate::event::{Event, Stage};
use crate::ring::Ring;
use crate::trace::Trace;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// Default per-thread ring capacity (events).
pub const DEFAULT_RING_CAPACITY: usize = 1 << 14;

static ACTIVE: AtomicBool = AtomicBool::new(false);
/// Bumped on every start/finish so stale thread-locals from a previous
/// session refuse to flush into the current one.
static EPOCH: AtomicU64 = AtomicU64::new(0);
static NEXT_RUN: AtomicU32 = AtomicU32::new(0);
static CURRENT_RUN: AtomicU32 = AtomicU32::new(0);

struct Session {
    events: Vec<Event>,
    dropped: u64,
    start: Option<Instant>,
    capacity: usize,
}

static SESSION: Mutex<Session> = Mutex::new(Session {
    events: Vec::new(),
    dropped: 0,
    start: None,
    capacity: DEFAULT_RING_CAPACITY,
});

fn session() -> MutexGuard<'static, Session> {
    SESSION.lock().unwrap_or_else(|e| e.into_inner())
}

struct Local {
    epoch: u64,
    start: Option<Instant>,
    ring: Ring,
    task: Option<u64>,
    attempt: u32,
    seq_det: u64,
    seq_adv: u64,
    virtual_ms: u64,
}

impl Local {
    fn fresh() -> Local {
        Local {
            epoch: u64::MAX,
            start: None,
            ring: Ring::new(1),
            task: None,
            attempt: 0,
            seq_det: 0,
            seq_adv: 0,
            virtual_ms: 0,
        }
    }

    /// Re-home this thread-local onto the current session if it still
    /// belongs to a previous one (discarding any stale records).
    fn ensure_epoch(&mut self) {
        let epoch = EPOCH.load(Ordering::Acquire);
        if self.epoch == epoch {
            return;
        }
        let (start, capacity) = {
            let s = session();
            (s.start, s.capacity)
        };
        self.epoch = epoch;
        self.start = start;
        self.ring = Ring::new(capacity);
        self.task = None;
        self.attempt = 0;
        self.seq_det = 0;
        self.seq_adv = 0;
        self.virtual_ms = 0;
    }

    fn session_elapsed_us(&self) -> u64 {
        self.start.map_or(0, |s| s.elapsed().as_micros() as u64)
    }

    fn push_event(
        &mut self,
        stage: Stage,
        name: &'static str,
        detail: String,
        det: bool,
        start_us: Option<u64>,
        dur_us: Option<u64>,
    ) {
        let seq = if det {
            let s = self.seq_det;
            self.seq_det += 1;
            s
        } else {
            let s = self.seq_adv;
            self.seq_adv += 1;
            s
        };
        let wall_us = start_us.unwrap_or_else(|| self.session_elapsed_us());
        self.ring.push(Event {
            run: CURRENT_RUN.load(Ordering::Relaxed),
            task: self.task,
            attempt: self.attempt,
            seq,
            stage,
            name: name.to_string(),
            detail,
            det,
            virtual_ms: self.virtual_ms,
            wall_us,
            dur_us,
        });
    }

    fn flush(&mut self) {
        if self.ring.is_empty() && self.ring.dropped() == 0 {
            return;
        }
        let (events, dropped) = self.ring.drain();
        let mut s = session();
        if self.epoch == EPOCH.load(Ordering::Acquire) {
            s.events.extend(events);
            s.dropped += dropped;
        }
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        // Safety net: a thread exiting mid-session still contributes
        // its buffered events.
        self.flush();
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::fresh());
}

fn local_with<R>(f: impl FnOnce(&mut Local) -> R) -> Option<R> {
    LOCAL
        .try_with(|cell| {
            let mut l = cell.borrow_mut();
            l.ensure_epoch();
            f(&mut l)
        })
        .ok()
}

/// Whether a trace session is active. The one branch every
/// instrumentation site pays when tracing is off.
#[inline]
pub fn enabled() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Begin a trace session with the default ring capacity. Returns
/// `false` (and changes nothing) if a session is already active.
pub fn start() -> bool {
    start_with_capacity(DEFAULT_RING_CAPACITY)
}

/// Begin a trace session with `capacity` events buffered per thread.
/// Returns `false` (and changes nothing) if a session is already
/// active.
pub fn start_with_capacity(capacity: usize) -> bool {
    let mut s = session();
    if ACTIVE.load(Ordering::Acquire) {
        return false;
    }
    s.events.clear();
    s.dropped = 0;
    s.start = Some(Instant::now());
    s.capacity = capacity.max(1);
    EPOCH.fetch_add(1, Ordering::Release);
    NEXT_RUN.store(0, Ordering::Release);
    CURRENT_RUN.store(0, Ordering::Release);
    ACTIVE.store(true, Ordering::Release);
    true
}

/// End the active session and return everything collected, sorted into
/// the canonical deterministic order. Returns an empty [`Trace`] when
/// no session was active.
pub fn finish() -> Trace {
    if !enabled() {
        return Trace::default();
    }
    // Flush this thread's ring while the session (and epoch) are still
    // live — after the epoch bump below it would be discarded.
    let _ = local_with(|l| l.flush());
    let mut s = session();
    ACTIVE.store(false, Ordering::Release);
    EPOCH.fetch_add(1, Ordering::Release);
    s.start = None;
    let mut events = std::mem::take(&mut s.events);
    let dropped = std::mem::take(&mut s.dropped);
    drop(s);
    events.sort_by_key(Event::sort_key);
    Trace { events, dropped }
}

/// Mark the start of a campaign run within the session, returning its
/// run index. Subsequent events carry that index until the next
/// `begin_run`. Emits a deterministic `schedule`/`run.begin` event.
pub fn begin_run(name: &str) -> u32 {
    if !enabled() {
        return 0;
    }
    let run = NEXT_RUN.fetch_add(1, Ordering::AcqRel);
    CURRENT_RUN.store(run, Ordering::Release);
    let detail = format!("name={name}");
    let _ = local_with(|l| l.push_event(Stage::Schedule, "run.begin", detail, true, None, None));
    run
}

/// Emit a deterministic point event. The detail closure only runs when
/// tracing is active.
pub fn emit(stage: Stage, name: &'static str, detail: impl FnOnce() -> String) {
    if !enabled() {
        return;
    }
    let detail = detail();
    let _ = local_with(|l| l.push_event(stage, name, detail, true, None, None));
}

/// Run `f` with events attributed to `(task, attempt)`, resetting the
/// per-attempt sequence and virtual-time counters. Restores the
/// enclosing attribution afterwards (also on unwind).
pub fn task_scope<R>(task: u64, attempt: u32, f: impl FnOnce() -> R) -> R {
    struct Guard {
        saved: Option<(Option<u64>, u32, u64, u64, u64)>,
    }
    impl Drop for Guard {
        fn drop(&mut self) {
            if let Some((task, attempt, seq_det, seq_adv, virtual_ms)) = self.saved.take() {
                if enabled() {
                    let _ = local_with(|l| {
                        l.task = task;
                        l.attempt = attempt;
                        l.seq_det = seq_det;
                        l.seq_adv = seq_adv;
                        l.virtual_ms = virtual_ms;
                    });
                }
            }
        }
    }
    let saved = if enabled() {
        local_with(|l| {
            let saved = (l.task, l.attempt, l.seq_det, l.seq_adv, l.virtual_ms);
            l.task = Some(task);
            l.attempt = attempt;
            l.seq_det = 0;
            l.seq_adv = 0;
            l.virtual_ms = 0;
            saved
        })
    } else {
        None
    };
    let _guard = Guard { saved };
    f()
}

/// Charge `ms` of virtual time to the current attempt (injected stalls
/// advance virtual time deterministically; wall time does not).
pub fn advance_virtual(ms: u64) {
    if !enabled() {
        return;
    }
    let _ = local_with(|l| l.virtual_ms += ms);
}

/// Drain this thread's ring into the session buffer. Call at task
/// boundaries so long-lived workers don't overflow their rings.
pub fn flush_local() {
    if !enabled() {
        return;
    }
    let _ = local_with(|l| l.flush());
}

/// An in-flight span; emits one event carrying its wall duration when
/// dropped. Obtained from [`span`] / [`span_advisory`]; a no-op shell
/// when tracing is disabled.
#[must_use = "a span measures until it is dropped"]
#[derive(Debug)]
pub struct Span {
    inner: Option<SpanInner>,
}

#[derive(Debug)]
struct SpanInner {
    stage: Stage,
    name: &'static str,
    detail: String,
    det: bool,
    start_us: u64,
    begun: Instant,
}

/// Open a deterministic span. Its event is part of the byte-comparable
/// sequence, so only open it at sites whose execution count does not
/// depend on scheduling.
pub fn span(stage: Stage, name: &'static str) -> Span {
    make_span(stage, name, true)
}

/// Open an advisory (`det: false`) span for sites whose execution
/// count is scheduling-dependent — e.g. solver calls elided by a
/// shared-cache hit. Excluded from deterministic comparisons but still
/// feeds the latency histograms.
pub fn span_advisory(stage: Stage, name: &'static str) -> Span {
    make_span(stage, name, false)
}

fn make_span(stage: Stage, name: &'static str, det: bool) -> Span {
    if !enabled() {
        return Span { inner: None };
    }
    let start_us = local_with(|l| l.session_elapsed_us()).unwrap_or(0);
    Span {
        inner: Some(SpanInner {
            stage,
            name,
            detail: String::new(),
            det,
            start_us,
            begun: Instant::now(),
        }),
    }
}

impl Span {
    /// Replace the span's detail string. The closure only runs when the
    /// span is live (tracing enabled at creation).
    pub fn set_detail(&mut self, f: impl FnOnce() -> String) {
        if let Some(inner) = &mut self.inner {
            inner.detail = f();
        }
    }

    /// Append to the span's detail string (space-separated). Useful to
    /// record identity up front and outcome later, so the identity
    /// survives even if an unwind drops the span early.
    pub fn append_detail(&mut self, f: impl FnOnce() -> String) {
        if let Some(inner) = &mut self.inner {
            if !inner.detail.is_empty() {
                inner.detail.push(' ');
            }
            inner.detail.push_str(&f());
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            if !enabled() {
                return;
            }
            let dur = inner.begun.elapsed().as_micros() as u64;
            let SpanInner {
                stage,
                name,
                detail,
                det,
                start_us,
                ..
            } = inner;
            let _ =
                local_with(|l| l.push_event(stage, name, detail, det, Some(start_us), Some(dur)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The collector is process-global; tests touching it serialize
    /// through this lock.
    static SOLO: Mutex<()> = Mutex::new(());

    fn solo() -> MutexGuard<'static, ()> {
        SOLO.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_is_inert() {
        let _g = solo();
        assert!(!enabled());
        emit(Stage::Parse, "noop", || {
            unreachable!("detail closure must not run")
        });
        let mut s = span(Stage::Symex, "noop");
        s.set_detail(|| unreachable!("detail closure must not run"));
        drop(s);
        let t = finish();
        assert!(t.events.is_empty());
    }

    #[test]
    fn collects_and_orders_across_threads() {
        let _g = solo();
        assert!(start());
        assert!(!start(), "nested start must be refused");
        begin_run("demo");
        std::thread::scope(|scope| {
            for task in 0..4u64 {
                scope.spawn(move || {
                    task_scope(task, 0, || {
                        emit(Stage::Parse, "first", || format!("task={task}"));
                        advance_virtual(10);
                        emit(Stage::Retry, "second", String::new);
                    });
                    flush_local();
                });
            }
        });
        let t = finish();
        // 1 run.begin + 4 tasks * 2 events.
        assert_eq!(t.events.len(), 9);
        assert_eq!(t.dropped, 0);
        let keys: Vec<_> = t.events.iter().map(Event::sort_key).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        // Task events first (in task order), coordinator event last.
        assert_eq!(t.events[0].task, Some(0));
        assert_eq!(t.events[0].seq, 0);
        assert_eq!(t.events[1].virtual_ms, 10);
        assert_eq!(t.events[8].task, None);
        assert_eq!(t.events[8].name, "run.begin");
    }

    #[test]
    fn advisory_events_do_not_shift_det_sequence() {
        let _g = solo();
        let run_once = |with_advisory: bool| {
            assert!(start());
            task_scope(7, 1, || {
                emit(Stage::Parse, "a", String::new);
                if with_advisory {
                    drop(span_advisory(Stage::Symex, "adv"));
                }
                emit(Stage::Cache, "b", String::new);
            });
            flush_local();
            finish().deterministic_json()
        };
        assert_eq!(run_once(true), run_once(false));
    }

    #[test]
    fn task_scope_restores_attribution_on_unwind() {
        let _g = solo();
        assert!(start());
        emit(Stage::Schedule, "outer.before", String::new);
        let _ = std::panic::catch_unwind(|| {
            task_scope(3, 0, || {
                emit(Stage::Schedule, "inner", String::new);
                panic!("boom");
            })
        });
        emit(Stage::Schedule, "outer.after", String::new);
        let t = finish();
        let outer: Vec<_> = t
            .events
            .iter()
            .filter(|e| e.task.is_none())
            .map(|e| (e.name.as_str(), e.seq))
            .collect();
        assert_eq!(outer, [("outer.before", 0), ("outer.after", 1)]);
        assert_eq!(
            t.events.iter().find(|e| e.task == Some(3)).map(|e| e.seq),
            Some(0)
        );
    }

    #[test]
    fn ring_overflow_reports_dropped() {
        let _g = solo();
        assert!(start_with_capacity(4));
        task_scope(0, 0, || {
            for _ in 0..10 {
                emit(Stage::Parse, "spam", String::new);
            }
        });
        let t = finish();
        assert_eq!(t.events.len(), 4);
        assert_eq!(t.dropped, 6);
    }

    #[test]
    fn spans_measure_duration() {
        let _g = solo();
        assert!(start());
        {
            let mut s = span(Stage::Cache, "load");
            s.set_detail(|| "filters=3".into());
            s.append_detail(|| "ok".into());
        }
        let t = finish();
        assert_eq!(t.events.len(), 1);
        let e = &t.events[0];
        assert_eq!(e.name, "load");
        assert_eq!(e.detail, "filters=3 ok");
        assert!(e.dur_us.is_some());
        assert!(e.det);
    }
}
