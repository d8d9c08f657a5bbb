//! Error-manifestation classification (§5.1 of the paper).
//!
//! Every injection experiment ends in exactly one of six classes:
//! `Correct` (the fault did not manifest), `Crash`, `Hang`,
//! `AppDetected`, `MpiDetected`, or `Incorrect` (clean completion with
//! wrong output — "most dangerous of all possible errors because there is
//! little sign during the execution that can alert the user").
//!
//! fl-guard extends the taxonomy with two guarded-execution classes:
//! `DetectedByGuard` (the guard noticed the fault but could not finish
//! the run within its restart budget) and `Recovered` (the guard
//! intervened — CRC retransmit, watchdog rollback — and the run still
//! completed with correct output). Unguarded campaigns never produce
//! either, so pre-guard reports are unchanged.

use fl_mpi::WorldExit;
use std::fmt;

/// The §5.1 manifestation classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Manifestation {
    /// The injected fault had no observable effect.
    Correct,
    /// Abnormal termination (signal, MPI internal error, glibc abort,
    /// nonzero/premature exit).
    Crash,
    /// The application failed to complete within its budget or
    /// deadlocked.
    Hang,
    /// Output differs from the fault-free reference with no error
    /// indication — silent data corruption.
    Incorrect,
    /// An application internal consistency check caught the fault and
    /// aborted.
    AppDetected,
    /// The user-registered MPI error handler fired.
    MpiDetected,
    /// fl-guard detected the fault (CRC exhaustion, watchdog trip, or
    /// repeated failure) but the restart budget ran out before a clean
    /// finish.
    DetectedByGuard,
    /// fl-guard detected the fault, intervened, and the run completed
    /// with output matching the fault-free reference.
    Recovered,
    /// The heartbeat failure detector declared a rank dead (or wedged)
    /// and no recovery path completed the run — the fl-ft analogue of a
    /// job-killing process failure.
    RankLost,
    /// A replicated run outvoted a divergent replica and completed with
    /// correct output — the fault was both detected *and* masked.
    MaskedByReplica,
    /// The *application itself* recovered from a process failure through
    /// the fl-ulfm API — it observed `MPIX_ERR_PROC_FAILED`, agreed,
    /// shrank the world, restored its own checkpoint, and completed with
    /// output matching the fault-free reference. The harness never
    /// intervened.
    RecoveredByApp,
    /// The channel guard's CRC caught an in-flight corruption and the
    /// retransmitted pristine copy completed the run with correct
    /// output — the fault never left the wire (fl-chaos' provable CRC
    /// coverage class).
    MaskedByChannel,
    /// The run completed with correct output but measurably slower than
    /// the fault-free reference — the fl-perturb class for performance
    /// interference that degrades without corrupting.
    Degraded,
}

impl Manifestation {
    /// All classes: the paper's six in table order, the two
    /// guarded-execution classes fl-guard added, the two process-level
    /// classes fl-ft added, fl-ulfm's application-recovery class,
    /// fl-chaos' channel-masking class, then fl-perturb's degradation
    /// class.
    pub const ALL: [Manifestation; 13] = [
        Manifestation::Correct,
        Manifestation::Crash,
        Manifestation::Hang,
        Manifestation::Incorrect,
        Manifestation::AppDetected,
        Manifestation::MpiDetected,
        Manifestation::DetectedByGuard,
        Manifestation::Recovered,
        Manifestation::RankLost,
        Manifestation::MaskedByReplica,
        Manifestation::RecoveredByApp,
        Manifestation::MaskedByChannel,
        Manifestation::Degraded,
    ];

    /// True if the fault manifested at all (everything except `Correct`).
    /// The paper's "error rate" is the fraction of injections for which
    /// this holds.
    pub fn is_error(self) -> bool {
        self != Manifestation::Correct
    }

    /// Machine-readable slug — the single source of truth for JSONL
    /// field values and the wire protocol. Round-trips through
    /// [`Manifestation::from_slug`].
    pub fn slug(self) -> &'static str {
        match self {
            Manifestation::Correct => "correct",
            Manifestation::Crash => "crash",
            Manifestation::Hang => "hang",
            Manifestation::Incorrect => "incorrect",
            Manifestation::AppDetected => "app-detected",
            Manifestation::MpiDetected => "mpi-detected",
            Manifestation::DetectedByGuard => "guard-detected",
            Manifestation::Recovered => "recovered",
            Manifestation::RankLost => "rank-lost",
            Manifestation::MaskedByReplica => "masked-by-replica",
            Manifestation::RecoveredByApp => "recovered-by-app",
            Manifestation::MaskedByChannel => "masked-by-channel",
            Manifestation::Degraded => "degraded",
        }
    }

    /// Parse a [`Manifestation::slug`] back into the class.
    pub fn from_slug(s: &str) -> Option<Manifestation> {
        Manifestation::ALL.into_iter().find(|m| m.slug() == s)
    }
}

impl fmt::Display for Manifestation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Manifestation::Correct => "Correct",
            Manifestation::Crash => "Crash",
            Manifestation::Hang => "Hang",
            Manifestation::Incorrect => "Incorrect",
            Manifestation::AppDetected => "App Detected",
            Manifestation::MpiDetected => "MPI Detected",
            Manifestation::DetectedByGuard => "Guard Detected",
            Manifestation::Recovered => "Recovered",
            Manifestation::RankLost => "Rank Lost",
            Manifestation::MaskedByReplica => "Masked (Replica)",
            Manifestation::RecoveredByApp => "Recovered (App)",
            Manifestation::MaskedByChannel => "Masked (Channel)",
            Manifestation::Degraded => "Degraded",
        };
        f.write_str(s)
    }
}

/// Classify a finished run: the world's exit plus, for clean exits, the
/// comparison of the app's output against the fault-free reference.
pub fn classify(exit: &WorldExit, output: &[u8], golden_output: &[u8]) -> Manifestation {
    match exit {
        WorldExit::Clean => {
            if output == golden_output {
                Manifestation::Correct
            } else {
                Manifestation::Incorrect
            }
        }
        WorldExit::Crashed { .. } => Manifestation::Crash,
        WorldExit::Hung { .. } => Manifestation::Hang,
        WorldExit::AppAborted { .. } => Manifestation::AppDetected,
        WorldExit::MpiDetected { .. } => Manifestation::MpiDetected,
        WorldExit::GuardDetected { .. } => Manifestation::DetectedByGuard,
        WorldExit::RankFailed { .. } => Manifestation::RankLost,
    }
}

/// `num` in percent of `den` (0 with an empty denominator) — every
/// rate and coverage figure the reports print.
pub(crate) fn percent(num: u64, den: u64) -> f64 {
    if den == 0 {
        return 0.0;
    }
    100.0 * num as f64 / den as f64
}

/// Aggregated counts for one injection region (one row of Tables 2–4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Injections performed.
    pub executions: u32,
    /// Count per manifestation class, indexed as [`Manifestation::ALL`].
    counts: [u32; 13],
}

impl Tally {
    /// Record one outcome.
    pub fn record(&mut self, m: Manifestation) {
        self.executions += 1;
        let idx = Manifestation::ALL.iter().position(|&x| x == m).unwrap();
        self.counts[idx] += 1;
    }

    /// Count of one class.
    pub fn count(&self, m: Manifestation) -> u32 {
        self.counts[Manifestation::ALL.iter().position(|&x| x == m).unwrap()]
    }

    /// Total manifested errors.
    pub fn errors(&self) -> u32 {
        self.executions - self.count(Manifestation::Correct)
    }

    /// The paper's error rate: errors / executions, in percent.
    pub fn error_rate_percent(&self) -> f64 {
        percent(self.errors().into(), self.executions.into())
    }

    /// Percentage of *manifested errors* in class `m` — the tables'
    /// "Error Manifestations (Percent)" columns.
    pub fn manifestation_percent(&self, m: Manifestation) -> f64 {
        if m == Manifestation::Correct {
            return 0.0;
        }
        percent(self.count(m).into(), self.errors().into())
    }

    /// Merge another tally into this one.
    pub fn merge(&mut self, other: &Tally) {
        self.executions += other.executions;
        for i in 0..self.counts.len() {
            self.counts[i] += other.counts[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_all_exits() {
        let g = b"out".to_vec();
        assert_eq!(
            classify(&WorldExit::Clean, b"out", &g),
            Manifestation::Correct
        );
        assert_eq!(
            classify(&WorldExit::Clean, b"bad", &g),
            Manifestation::Incorrect
        );
        assert_eq!(
            classify(
                &WorldExit::Crashed {
                    rank: 0,
                    reason: "x".into()
                },
                b"",
                &g
            ),
            Manifestation::Crash
        );
        assert_eq!(
            classify(&WorldExit::Hung { reason: "x".into() }, b"", &g),
            Manifestation::Hang
        );
        assert_eq!(
            classify(
                &WorldExit::AppAborted {
                    rank: 0,
                    msg: "x".into()
                },
                b"",
                &g
            ),
            Manifestation::AppDetected
        );
        assert_eq!(
            classify(
                &WorldExit::MpiDetected {
                    rank: 0,
                    what: "x".into()
                },
                b"",
                &g
            ),
            Manifestation::MpiDetected
        );
        assert_eq!(
            classify(
                &WorldExit::GuardDetected {
                    rank: 0,
                    what: "x".into()
                },
                b"",
                &g
            ),
            Manifestation::DetectedByGuard
        );
        assert_eq!(
            classify(&WorldExit::RankFailed { rank: 0, round: 7 }, b"", &g),
            Manifestation::RankLost
        );
    }

    #[test]
    fn tally_percentages() {
        let mut t = Tally::default();
        for _ in 0..60 {
            t.record(Manifestation::Correct);
        }
        for _ in 0..20 {
            t.record(Manifestation::Crash);
        }
        for _ in 0..10 {
            t.record(Manifestation::Hang);
        }
        for _ in 0..10 {
            t.record(Manifestation::Incorrect);
        }
        assert_eq!(t.executions, 100);
        assert_eq!(t.errors(), 40);
        assert!((t.error_rate_percent() - 40.0).abs() < 1e-12);
        assert!((t.manifestation_percent(Manifestation::Crash) - 50.0).abs() < 1e-12);
        assert!((t.manifestation_percent(Manifestation::Hang) - 25.0).abs() < 1e-12);
        assert_eq!(t.manifestation_percent(Manifestation::Correct), 0.0);
    }

    #[test]
    fn empty_tally_is_safe() {
        let t = Tally::default();
        assert_eq!(t.error_rate_percent(), 0.0);
        assert_eq!(t.manifestation_percent(Manifestation::Crash), 0.0);
    }

    #[test]
    fn merge_adds() {
        let mut a = Tally::default();
        a.record(Manifestation::Crash);
        let mut b = Tally::default();
        b.record(Manifestation::Correct);
        b.record(Manifestation::Crash);
        a.merge(&b);
        assert_eq!(a.executions, 3);
        assert_eq!(a.count(Manifestation::Crash), 2);
    }

    #[test]
    fn is_error_classification() {
        assert!(!Manifestation::Correct.is_error());
        for m in Manifestation::ALL.into_iter().skip(1) {
            assert!(m.is_error());
        }
    }
}
