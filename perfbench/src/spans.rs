//! In-memory span recorder with a Chrome trace-event writer.
//!
//! Spans are recorded by the benchmark around the public calls it makes
//! into each layer, plus one span per trial built from the engine sink's
//! completion timestamps. Nothing is written while the benchmark runs;
//! [`Spans::write_chrome`] emits the whole set once at the end as a
//! trace-event JSON array that Perfetto and `chrome://tracing` open.

use fl_inject::json::escape;
use std::fmt::Write as _;
use std::time::Instant;

/// Identifies a recorded span (index into the recorder).
pub type SpanId = usize;

/// One closed interval of work attributed to a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    /// Layer (crate) the span's time belongs to: the trace category.
    pub layer: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<SpanId>,
    /// Benchmark round the span belongs to.
    pub round: usize,
    /// `(spec index, class index, trial index)` for per-trial spans.
    pub trial: Option<(usize, usize, u32)>,
}

/// The recorder. While disabled it accepts every call and keeps nothing,
/// so untraced rounds run the same code.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    workload: String,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool, workload: &str) -> Spans {
        Spans {
            enabled,
            origin: Instant::now(),
            workload: workload.to_string(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Record a finished span; returns its id (usable as a parent).
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        name: impl Into<String>,
        layer: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        round: usize,
        trial: Option<(usize, usize, u32)>,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name: name.into(),
            layer,
            start,
            end,
            parent,
            round,
            trial,
        });
        Some(self.spans.len() - 1)
    }

    /// Time `f` as one span; returns its result and seconds taken.
    pub fn time<T>(
        &mut self,
        name: &str,
        layer: &'static str,
        parent: Option<SpanId>,
        round: usize,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, layer, start, end, parent, round, None);
        (out, (end - start).as_secs_f64())
    }

    /// Widen a span to cover `[start, end]` (used for a parent opened
    /// before its children were known).
    pub fn set_bounds(&mut self, id: Option<SpanId>, start: Instant, end: Instant) {
        if let Some(s) = id.and_then(|i| self.spans.get_mut(i)) {
            s.start = start;
            s.end = end;
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The trace as Chrome trace-event JSON (complete `X` events,
    /// microsecond timestamps from the recorder's creation).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let ts = s.start.saturating_duration_since(self.origin).as_nanos() as f64 / 1e3;
            let dur = (s.end - s.start).as_nanos() as f64 / 1e3;
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{ts:.3},\"dur\":{dur:.3},\"pid\":1,\"tid\":1,\"args\":{{\"id\":{i},\"parent\":{},\"workload\":\"{}\",\"round\":{}",
                escape(&s.name),
                s.layer,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                escape(&self.workload),
                s.round,
            );
            if let Some((spec, ci, k)) = s.trial {
                let _ = write!(out, ",\"spec\":{spec},\"ci\":{ci},\"k\":{k}");
            }
            out.push_str("}}");
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }

    /// Write the trace once, at the end of the run.
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_chrome_json())
    }
}
