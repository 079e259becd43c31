//! The strategies × detectors grid.
//!
//! [`run_strategy`] drives one strategy for a configured number of
//! seeded rounds and judges every round with every detector, folding
//! the verdicts into one integer-only [`ArenaSummary`] per strategy
//! (detection rate, mean virtual time-to-detect, false positives on
//! the shared benign workload, blocked escalation syscalls).
//! [`run_matrix`] sweeps all four strategies.
//!
//! Summaries carry integers exclusively — virtual milliseconds, round
//! counts — so renders are byte-identical across hosts and worker
//! counts for a given seed.

use crate::detectors::{Cusum, DetectorKind, SyscallFilter};
use crate::strategies::{self, run_benign, run_round, DropFn, ProbeSession, StrategyKind};
use cr_defense::RateDetector;
use cr_os::STEPS_PER_MS;

/// Arena run parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArenaConfig {
    /// Base seed; each (strategy, round) derives its own stream.
    pub seed: u64,
    /// Seeded rounds per strategy.
    pub rounds: usize,
    /// Module whose static scan generates the syscall filter.
    pub filter_module: String,
}

impl Default for ArenaConfig {
    fn default() -> Self {
        ArenaConfig {
            seed: 2017,
            rounds: 3,
            filter_module: "vsftpd".into(),
        }
    }
}

/// One (strategy, detector) cell of the grid.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ArenaPair {
    /// Detector name.
    pub detector: String,
    /// Rounds in which the detector caught the strategy.
    pub detected_rounds: usize,
    /// Mean virtual time-to-detect over caught rounds, in ms (0 when
    /// never caught).
    pub time_to_detect_ms: u64,
    /// Alarms (or blocked benign syscalls, for the filter) on the
    /// benign browsing workload.
    pub false_positives: u64,
    /// Escalation syscalls blocked across all rounds (filter only;
    /// always 0 for log-based detectors).
    pub blocked_escalations: u64,
}

/// Per-strategy summary over all rounds and detectors.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ArenaSummary {
    /// Strategy name.
    pub strategy: String,
    /// Rounds driven.
    pub rounds: usize,
    /// Probes attempted across all rounds (dropped ones included).
    pub probes: u64,
    /// Probes swallowed by the chaos drop predicate.
    pub dropped: u64,
    /// Rounds in which the secret region was located.
    pub located_rounds: usize,
    /// One cell per detector, in [`DetectorKind::ALL`] order.
    pub pairs: Vec<ArenaPair>,
}

impl ArenaSummary {
    /// The cell for `detector`, if present.
    pub fn pair(&self, detector: DetectorKind) -> Option<&ArenaPair> {
        self.pairs.iter().find(|p| p.detector == detector.name())
    }
}

/// Derive the per-round seed stream from the base seed.
fn round_seed(base: u64, kind: StrategyKind, round: usize) -> u64 {
    let k = StrategyKind::ALL.iter().position(|x| *x == kind).unwrap() as u64;
    base ^ (k << 32) ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Detector verdict on one session: caught, and at which virtual time.
fn judge(
    detector: DetectorKind,
    filter: &SyscallFilter,
    s: &ProbeSession,
) -> (bool, Option<u64>, u64) {
    match detector {
        DetectorKind::Rate => {
            let r = RateDetector::default().analyze(&s.log, s.start_vtime, s.end_vtime);
            (r.alarm, r.alarm_at, 0)
        }
        DetectorKind::Cusum => {
            let r = Cusum::default().analyze(&s.log, s.start_vtime, s.end_vtime);
            (r.alarm, r.alarm_at, 0)
        }
        DetectorKind::Filter => {
            let blocked = filter.blocked(&s.escalation).len() as u64;
            // Enforcement fires at escalation time — session end.
            (blocked > 0, (blocked > 0).then_some(s.end_vtime), blocked)
        }
    }
}

/// False positives of `detector` on the benign browsing session: an
/// alarm for the log-based detectors, blocked footprint syscalls for
/// the filter.
fn benign_false_positives(
    detector: DetectorKind,
    filter: &SyscallFilter,
    benign: &ProbeSession,
) -> u64 {
    match detector {
        DetectorKind::Rate => u64::from(
            RateDetector::default()
                .analyze(&benign.log, benign.start_vtime, benign.end_vtime)
                .alarm,
        ),
        DetectorKind::Cusum => u64::from(
            Cusum::default()
                .analyze(&benign.log, benign.start_vtime, benign.end_vtime)
                .alarm,
        ),
        DetectorKind::Filter => filter.blocked(&strategies::BENIGN_SYSCALLS).len() as u64,
    }
}

/// Drive `kind` for `cfg.rounds` seeded rounds and judge each with
/// every detector. The drop predicate models the `arena.probe.drop`
/// chaos site; pass `&mut |_| false` for the honest run.
pub fn run_strategy(kind: StrategyKind, cfg: &ArenaConfig, drop: DropFn<'_>) -> ArenaSummary {
    let filter = SyscallFilter::for_module(&cfg.filter_module);
    let benign = run_benign();

    let sessions: Vec<ProbeSession> = (0..cfg.rounds)
        .map(|r| run_round(kind, round_seed(cfg.seed, kind, r), drop))
        .collect();

    let pairs = DetectorKind::ALL
        .into_iter()
        .map(|d| {
            let mut detected = 0usize;
            let mut ttd_sum = 0u64;
            let mut blocked = 0u64;
            for s in &sessions {
                let (caught, at, b) = judge(d, &filter, s);
                blocked += b;
                if caught {
                    detected += 1;
                    ttd_sum +=
                        at.unwrap_or(s.end_vtime).saturating_sub(s.start_vtime) / STEPS_PER_MS;
                }
            }
            ArenaPair {
                detector: d.name().to_string(),
                detected_rounds: detected,
                time_to_detect_ms: if detected > 0 {
                    ttd_sum / detected as u64
                } else {
                    0
                },
                false_positives: benign_false_positives(d, &filter, &benign),
                blocked_escalations: blocked,
            }
        })
        .collect();

    ArenaSummary {
        strategy: kind.name().to_string(),
        rounds: cfg.rounds,
        probes: sessions.iter().map(|s| s.probes).sum(),
        dropped: sessions.iter().map(|s| s.dropped).sum(),
        located_rounds: sessions.iter().filter(|s| s.located).count(),
        pairs,
    }
}

/// Run the full 4×3 grid with no chaos drops.
pub fn run_matrix(cfg: &ArenaConfig) -> Vec<ArenaSummary> {
    StrategyKind::ALL
        .into_iter()
        .map(|k| run_strategy(k, cfg, &mut |_| false))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Serialize;

    fn cell(s: &ArenaSummary, d: DetectorKind) -> &ArenaPair {
        s.pair(d).expect("cell present")
    }

    #[test]
    fn matrix_matches_the_calibrated_story() {
        let cfg = ArenaConfig {
            rounds: 2,
            ..ArenaConfig::default()
        };
        let matrix = run_matrix(&cfg);
        assert_eq!(matrix.len(), 4);
        for s in &matrix {
            assert_eq!(
                s.located_rounds, s.rounds,
                "{}: honest runs locate",
                s.strategy
            );
            // CUSUM catches everything; the filter blocks every
            // escalation with zero benign false positives.
            assert_eq!(
                cell(s, DetectorKind::Cusum).detected_rounds,
                s.rounds,
                "{}",
                s.strategy
            );
            let f = cell(s, DetectorKind::Filter);
            assert_eq!(f.detected_rounds, s.rounds, "{}", s.strategy);
            assert_eq!(f.blocked_escalations, 3 * s.rounds as u64, "{}", s.strategy);
            for p in &s.pairs {
                assert_eq!(p.false_positives, 0, "{}/{}", s.strategy, p.detector);
            }
        }
        let by_name = |n: &str| matrix.iter().find(|s| s.strategy == n).unwrap();
        // The naive rate threshold catches the loud strategies…
        assert_eq!(
            cell(by_name("linear"), DetectorKind::Rate).detected_rounds,
            2
        );
        assert_eq!(
            cell(by_name("burst"), DetectorKind::Rate).detected_rounds,
            2
        );
        // …but both low-rate strategies slip past it.
        assert_eq!(
            cell(by_name("bisect"), DetectorKind::Rate).detected_rounds,
            0
        );
        assert_eq!(
            cell(by_name("stealth"), DetectorKind::Rate).detected_rounds,
            0
        );
        // Headline: stealth is still caught — by accumulation.
        let stealth = by_name("stealth");
        assert!(cell(stealth, DetectorKind::Cusum).time_to_detect_ms > 0);
    }

    #[test]
    fn summaries_render_deterministically() {
        let cfg = ArenaConfig {
            rounds: 1,
            ..ArenaConfig::default()
        };
        let a = run_strategy(StrategyKind::Bisect, &cfg, &mut |_| false);
        let b = run_strategy(StrategyKind::Bisect, &cfg, &mut |_| false);
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.to_json().starts_with("{\"strategy\":\"bisect\""));
    }

    #[test]
    fn chaos_drops_degrade_without_nondeterminism() {
        let cfg = ArenaConfig {
            rounds: 1,
            ..ArenaConfig::default()
        };
        // Drop the first 16 probes of the round.
        let a = run_strategy(StrategyKind::Bisect, &cfg, &mut |i| i < 16);
        let b = run_strategy(StrategyKind::Bisect, &cfg, &mut |i| i < 16);
        assert_eq!(a, b);
        assert_eq!(a.dropped, 16);
    }
}
