//! Progress-metric hang detection (§7 of the paper).
//!
//! "Although determining if an execution will terminate is undecidable,
//! simple progress metrics (e.g., FLOPS, messages per second or loop
//! iterations per minute) can provide some practical detection
//! mechanisms. If the application's performance drops below a
//! user-defined threshold, it is very likely that the code is in a
//! non-terminating mode."
//!
//! [`ProgressMonitor`] samples the cluster-wide counters between
//! scheduler rounds and flags a stall when *all* of the configured
//! metrics stop advancing for a number of consecutive windows — catching
//! spin-loop hangs long before the instruction budget expires, and
//! catching deadlocks trivially (nothing advances at all).
//!
//! The module also carries [`EngineProgress`], the campaign engine's
//! progress event. One-shot CLI progress lines, the server's status
//! responses and the watch stream are all subscribers of this single
//! event source ([`StderrProgress`] is the CLI one) — there is no
//! ad-hoc progress printing anywhere else.

use crate::engine::EngineSink;
use fl_mpi::MpiWorld;
use std::sync::atomic::{AtomicU64, Ordering};

/// A snapshot of a campaign engine run's progress counters, emitted to
/// every [`EngineSink`] after each trial completes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineProgress {
    /// Trials in the campaign's slot space.
    pub total: u64,
    /// Slots finished so far this run, including adopted ones.
    pub done: u64,
    /// Slots adopted from a previous run's records rather than executed.
    pub resumed: u64,
    /// Wall-clock nanoseconds since the engine run started.
    pub wall_nanos: u64,
}

impl EngineProgress {
    /// Trials actually executed by this run (done minus adopted).
    pub fn executed(&self) -> u64 {
        self.done.saturating_sub(self.resumed)
    }

    /// Has every slot finished (the run was not stopped early)?
    pub fn complete(&self) -> bool {
        self.done == self.total
    }

    /// Completed fraction in percent (100 for an empty campaign).
    pub fn percent(&self) -> f64 {
        if self.total == 0 {
            return 100.0;
        }
        100.0 * self.done as f64 / self.total as f64
    }

    /// Executed-trial throughput in trials per second (0 before any
    /// wall time has elapsed).
    pub fn trials_per_sec(&self) -> f64 {
        if self.wall_nanos == 0 {
            return 0.0;
        }
        self.executed() as f64 * 1e9 / self.wall_nanos as f64
    }

    /// One-line human rendering, shared by the CLI progress line and
    /// the server's watch stream.
    pub fn render(&self) -> String {
        let mut line = format!(
            "{}/{} trials ({:.0}%), {:.1} trials/s",
            self.done,
            self.total,
            self.percent(),
            self.trials_per_sec()
        );
        if self.resumed > 0 {
            line.push_str(&format!(" ({} resumed)", self.resumed));
        }
        line
    }
}

/// The one-shot CLI's progress subscriber: rewrites a stderr status
/// line every `every` trials (and on completion). Stderr so piped
/// stdout (JSONL, TSV) stays clean.
pub struct StderrProgress {
    every: u64,
    last: AtomicU64,
}

impl StderrProgress {
    /// Report every `every` trials (clamped to at least 1).
    pub fn new(every: u64) -> StderrProgress {
        StderrProgress {
            every: every.max(1),
            last: AtomicU64::new(0),
        }
    }
}

impl EngineSink for StderrProgress {
    fn progress(&self, p: EngineProgress) {
        if !p.done.is_multiple_of(self.every) && p.done != p.total {
            return;
        }
        // Monotonic filter: completion-order updates may arrive slightly
        // out of order across workers; never paint a stale count.
        let prev = self.last.fetch_max(p.done, Ordering::Relaxed);
        if p.done < prev {
            return;
        }
        eprint!("\r  {}", p.render());
        if p.done == p.total {
            eprintln!();
        }
    }
}

/// Aggregate progress counters across all ranks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProgressSample {
    /// Instructions retired (cluster-wide).
    pub insns: u64,
    /// Floating-point operations retired.
    pub flops: u64,
    /// MPI calls issued.
    pub mpi_calls: u64,
    /// Basic blocks retired.
    pub blocks: u64,
}

impl ProgressSample {
    /// Snapshot a world's counters.
    pub fn take(world: &MpiWorld, nranks: u16) -> ProgressSample {
        let mut s = ProgressSample::default();
        for r in 0..nranks {
            let c = &world.machine(r).counters;
            s.insns += c.insns;
            s.flops += c.flops;
            s.mpi_calls += c.mpi_calls;
            s.blocks += c.blocks;
        }
        s
    }
}

/// Verdict after each sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgressVerdict {
    /// At least one useful-work metric advanced in the last window.
    Progressing,
    /// No useful-work metric has advanced for this many consecutive
    /// windows (instructions may still be retiring — a spin loop).
    Stalled(u32),
}

/// Sliding stall detector over the §7 metrics.
#[derive(Debug, Clone)]
pub struct ProgressMonitor {
    last: Option<ProgressSample>,
    consecutive_stalls: u32,
    /// Windows of no useful progress before [`ProgressMonitor::hung`]
    /// reports true.
    pub stall_threshold: u32,
}

impl ProgressMonitor {
    /// Create a monitor that reports a hang after `stall_threshold`
    /// windows without FLOP or MPI progress.
    pub fn new(stall_threshold: u32) -> ProgressMonitor {
        ProgressMonitor {
            last: None,
            consecutive_stalls: 0,
            stall_threshold,
        }
    }

    /// Feed the next sample.
    pub fn observe(&mut self, s: ProgressSample) -> ProgressVerdict {
        let verdict = match self.last {
            None => ProgressVerdict::Progressing,
            Some(prev) => {
                let useful = s.flops > prev.flops || s.mpi_calls > prev.mpi_calls;
                if useful {
                    self.consecutive_stalls = 0;
                    ProgressVerdict::Progressing
                } else {
                    self.consecutive_stalls += 1;
                    ProgressVerdict::Stalled(self.consecutive_stalls)
                }
            }
        };
        self.last = Some(s);
        verdict
    }

    /// Whether the stall threshold has been reached.
    pub fn hung(&self) -> bool {
        self.consecutive_stalls >= self.stall_threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(flops: u64, mpi: u64, insns: u64) -> ProgressSample {
        ProgressSample {
            insns,
            flops,
            mpi_calls: mpi,
            blocks: insns / 5,
        }
    }

    #[test]
    fn engine_progress_derivations() {
        let p = EngineProgress {
            total: 200,
            done: 50,
            resumed: 10,
            wall_nanos: 2_000_000_000,
        };
        assert_eq!(p.executed(), 40);
        assert!((p.percent() - 25.0).abs() < 1e-12);
        assert!((p.trials_per_sec() - 20.0).abs() < 1e-12);
        let line = p.render();
        assert!(line.contains("50/200"), "{line}");
        assert!(line.contains("(10 resumed)"), "{line}");
        assert_eq!(EngineProgress::default().percent(), 100.0);
        assert_eq!(EngineProgress::default().trials_per_sec(), 0.0);
    }

    #[test]
    fn progressing_while_flops_advance() {
        let mut m = ProgressMonitor::new(3);
        assert_eq!(m.observe(s(0, 0, 0)), ProgressVerdict::Progressing);
        assert_eq!(m.observe(s(10, 0, 100)), ProgressVerdict::Progressing);
        assert_eq!(m.observe(s(20, 0, 200)), ProgressVerdict::Progressing);
        assert!(!m.hung());
    }

    #[test]
    fn spin_loop_detected_despite_retiring_instructions() {
        // The key §7 case: instructions advance, useful work does not.
        let mut m = ProgressMonitor::new(3);
        m.observe(s(10, 5, 100));
        assert_eq!(m.observe(s(10, 5, 10_000)), ProgressVerdict::Stalled(1));
        assert_eq!(m.observe(s(10, 5, 20_000)), ProgressVerdict::Stalled(2));
        assert_eq!(m.observe(s(10, 5, 30_000)), ProgressVerdict::Stalled(3));
        assert!(m.hung());
    }

    #[test]
    fn mpi_progress_counts_as_useful() {
        let mut m = ProgressMonitor::new(2);
        m.observe(s(10, 5, 100));
        m.observe(s(10, 5, 200));
        assert_eq!(m.observe(s(10, 6, 300)), ProgressVerdict::Progressing);
        assert!(!m.hung());
    }

    #[test]
    fn stall_counter_resets_on_progress() {
        let mut m = ProgressMonitor::new(3);
        m.observe(s(1, 0, 1));
        m.observe(s(1, 0, 2));
        m.observe(s(1, 0, 3));
        assert_eq!(m.observe(s(2, 0, 4)), ProgressVerdict::Progressing);
        m.observe(s(2, 0, 5));
        assert_eq!(m.observe(s(2, 0, 6)), ProgressVerdict::Stalled(2));
        assert!(!m.hung());
    }
}
