//! Campaign metrics — wall-time and outcome accounting.
//!
//! Metrics are deliberately separated from task *results*: results are
//! deterministic (the `--jobs 8` report must equal the serial one byte
//! for byte), while wall times and scheduling metadata vary run to
//! run. [`crate::engine::CampaignReport::results_json`] serializes only
//! the deterministic half.

use crate::cache::CacheCounts;
use crate::error::TaskErrorKind;
use crate::pool::TaskExecution;
use crate::spec::TaskKind;
use cr_symex::SolverCounters;

/// Scheduling/outcome metadata for one task.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct TaskMetrics {
    /// Task index in spec order.
    pub index: usize,
    /// Human-readable label (`seh:user32`, …).
    pub label: String,
    /// Task family; serializes to `server` / `seh` / `funnel` / `poc`
    /// / `scan` / `arena`.
    pub kind: TaskKind,
    /// Whether the task produced a result.
    pub ok: bool,
    /// Attempts used (1 = first-try success).
    pub attempts: u32,
    /// Failed attempts, by error class, in attempt order. Non-empty
    /// with `ok: true` means the task recovered on retry. Serializes
    /// to the same snake_case names as before.
    pub attempt_errors: Vec<TaskErrorKind>,
    /// Wall time across attempts, microseconds.
    pub wall_us: u64,
    /// Milliseconds slept in retry backoff.
    pub backoff_ms: u64,
}

/// Whole-campaign metrics.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct CampaignMetrics {
    /// Worker count the campaign ran with.
    pub jobs: usize,
    /// Tasks that produced a result.
    pub succeeded: usize,
    /// Tasks that kept failing past the retry bound.
    pub failed: usize,
    /// End-to-end campaign wall time, microseconds.
    pub total_wall_us: u64,
    /// Sum of per-task wall times, microseconds (≫ `total_wall_us`
    /// when sharding helps).
    pub task_wall_us: u64,
    /// Total milliseconds slept in retry backoff across all tasks.
    pub backoff_ms: u64,
    /// SAT-solver invocations made by this run's task attempts, each
    /// attempt tallied on its own worker thread. Zero on a fully warm
    /// rerun. Memo hits count: they are check invocations, answered
    /// without blasting or solving.
    pub solver_calls: u64,
    /// Normalized-query memo probes made by this run's attempts.
    pub solver_memo_lookups: u64,
    /// Memo probes of this run's attempts that found an entry —
    /// structurally repeated queries answered beneath the
    /// content-addressed verdict cache.
    pub solver_memo_hits: u64,
    /// Explorer paths run to a `ret` by this run's attempts. Zero on a
    /// fully warm rerun.
    pub paths_completed: u64,
    /// Infeasible branch sides pruned by this run's attempts — what
    /// bounds loopy filters.
    pub paths_pruned: u64,
    /// Cache lines quarantined while loading `--cache DIR`.
    pub quarantined: u64,
    /// Cache hits and misses of this run's attempts, each attempt
    /// tallied on its own worker thread.
    pub cache: CacheCounts,
    /// Per-task rows, in spec order.
    pub tasks: Vec<TaskMetrics>,
}

impl CampaignMetrics {
    /// Assemble metrics from pool executions.
    pub fn from_executions<T>(
        jobs: usize,
        total_wall_us: u64,
        solver: SolverCounters,
        quarantined: u64,
        cache: CacheCounts,
        labels: &[(String, TaskKind)],
        execs: &[TaskExecution<T>],
    ) -> CampaignMetrics {
        let tasks: Vec<TaskMetrics> = execs
            .iter()
            .map(|e| TaskMetrics {
                index: e.index,
                label: labels[e.index].0.clone(),
                kind: labels[e.index].1,
                ok: e.outcome.is_ok(),
                attempts: e.attempts,
                attempt_errors: e.attempt_errors.iter().map(|err| err.kind).collect(),
                wall_us: e.wall.as_micros() as u64,
                backoff_ms: e.backoff_ms,
            })
            .collect();
        CampaignMetrics {
            jobs,
            succeeded: tasks.iter().filter(|t| t.ok).count(),
            failed: tasks.iter().filter(|t| !t.ok).count(),
            total_wall_us,
            task_wall_us: tasks.iter().map(|t| t.wall_us).sum(),
            backoff_ms: tasks.iter().map(|t| t.backoff_ms).sum(),
            solver_calls: solver.solver_calls,
            solver_memo_lookups: solver.memo_lookups,
            solver_memo_hits: solver.memo_hits,
            paths_completed: solver.paths_completed,
            paths_pruned: solver.paths_pruned,
            quarantined,
            cache,
            tasks,
        }
    }
}
