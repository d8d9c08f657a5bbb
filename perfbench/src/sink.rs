//! The engine sink the benchmark times campaigns with.
//!
//! It sees the engine only from outside, through the public
//! [`EngineSink`] callbacks: every finished trial (stamped on arrival)
//! and every progress event. The first progress event carries the
//! nanoseconds since the engine's trial phase began, which places the
//! end of set-up without any hook inside the engine. On traced rounds
//! the sink also records one span per trial as it completes, so the
//! traced trial phase carries the cost of tracing it.

use crate::spans::{SpanId, Spans};
use fl_apps::AppKind;
use fl_inject::{
    record_line, run_spec, CampaignSpec, EngineControl, EngineProgress, EngineSink, SpecOutcome,
    TrialOutput,
};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One trial as the sink saw it complete.
#[derive(Debug, Clone)]
pub struct Done {
    pub at: Instant,
    pub ci: usize,
    pub k: u32,
    pub line: String,
    pub class: &'static str,
    pub detail: String,
    pub outcome: &'static str,
    pub insns: u64,
}

#[derive(Default)]
struct State {
    phase_start: Option<Instant>,
    last_progress: Option<Instant>,
    trials: Vec<Done>,
}

/// Where the sink records trial spans.
pub struct TrialSpans<'a> {
    pub spans: &'a mut Spans,
    pub layer: &'static str,
    pub parent: Option<SpanId>,
    pub round: usize,
    /// Index of the spec in its workload.
    pub spec: usize,
}

pub struct TimingSink<'a> {
    app: AppKind,
    state: Mutex<State>,
    spans: Mutex<TrialSpans<'a>>,
}

impl EngineSink for TimingSink<'_> {
    fn trial(&self, t: &TrialOutput) {
        let at = Instant::now();
        let done = Done {
            at,
            ci: t.ci,
            k: t.k,
            line: record_line(self.app, t),
            class: t.record.class.name(),
            detail: t.record.detail.clone(),
            outcome: t.record.outcome.slug(),
            insns: t.insns,
        };
        self.state.lock().expect("sink lock").trials.push(done);
    }

    fn progress(&self, p: EngineProgress) {
        let now = Instant::now();
        let mut st = self.state.lock().expect("sink lock");
        let phase_start = *st
            .phase_start
            .get_or_insert(now - Duration::from_nanos(p.wall_nanos));
        st.last_progress = Some(now);
        // One worker: the trial just reported ran from the previous
        // completion (or the start of the trial phase) to its own.
        let mut ts = self.spans.lock().expect("span lock");
        let n = st.trials.len();
        if ts.spans.enabled() && n > 0 {
            let start = if n > 1 {
                st.trials[n - 2].at
            } else {
                phase_start
            };
            let t = &st.trials[n - 1];
            let (layer, parent, round, spec) = (ts.layer, ts.parent, ts.round, ts.spec);
            ts.spans.record(
                format!("trial {} {}", t.class, t.outcome),
                layer,
                start,
                t.at,
                parent,
                round,
                Some((spec, t.ci, t.k)),
            );
        }
    }
}

/// A campaign run through `run_spec`, timed from outside.
pub struct TimedRun {
    /// Seconds from the `run_spec` call to the start of the trial phase.
    pub setup_s: f64,
    /// Seconds from the start of the trial phase to the last trial.
    pub phase_s: f64,
    pub call_start: Instant,
    pub phase_start: Instant,
    /// Trials in completion order.
    pub trials: Vec<Done>,
    /// Per-trial latency in ms, aligned with `trials`: with one engine
    /// worker, the gap between consecutive completions.
    pub lat_ms: Vec<f64>,
    pub outcome: SpecOutcome,
}

impl TimedRun {
    pub fn insns(&self) -> u64 {
        self.trials.iter().map(|t| t.insns).sum()
    }

    /// The canonical record stream: lines sorted by slot `(ci, k)`.
    pub fn canonical(&self) -> String {
        let text: Vec<&str> = self.trials.iter().map(|t| t.line.as_str()).collect();
        fl_inject::sort_records_jsonl(&text.join("\n"))
    }

    /// Whether the outcome's tallies add up to the trials run.
    pub fn tallies_sum(&self) -> bool {
        let n = self.trials.len() as u64;
        let sum: u64 = match &self.outcome {
            SpecOutcome::Campaign(r) => r.classes.iter().map(|c| c.tally.executions as u64).sum(),
            SpecOutcome::Chaos(r) => r.cells.iter().map(|c| c.tally.executions as u64).sum(),
            SpecOutcome::Perturb(r) => r.cells.iter().map(|c| c.tally.executions as u64).sum(),
            SpecOutcome::Coverage(_) | SpecOutcome::Ft(_) => return false,
        };
        sum == n
    }
}

/// Run one spec to completion on the engine with a timing sink.
pub fn run_timed(spec: &CampaignSpec, spans: TrialSpans<'_>) -> Result<TimedRun, String> {
    let sink = TimingSink {
        app: spec.app,
        state: Mutex::new(State::default()),
        spans: Mutex::new(spans),
    };
    let call_start = Instant::now();
    let outcome = run_spec(spec, &sink, &EngineControl::new(), None)
        .ok_or("engine run stopped before completion")?;
    let st = sink.state.into_inner().expect("sink lock");
    let phase_start = st.phase_start.ok_or("engine reported no progress")?;
    let last = st.last_progress.unwrap_or(phase_start);
    let mut prev = phase_start;
    let lat_ms = st
        .trials
        .iter()
        .map(|t| {
            let d = t.at.saturating_duration_since(prev);
            prev = t.at;
            d.as_secs_f64() * 1e3
        })
        .collect();
    Ok(TimedRun {
        setup_s: phase_start
            .saturating_duration_since(call_start)
            .as_secs_f64(),
        phase_s: last.saturating_duration_since(phase_start).as_secs_f64(),
        call_start,
        phase_start,
        trials: st.trials,
        lat_ms,
        outcome,
    })
}
