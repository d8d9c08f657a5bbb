//! The workloads and one round of each.
//!
//! A round drains every spec of the workload once through the public
//! campaign surface (`run_spec` with a timing sink; for `serve-resume`
//! also an in-process `fl-serve` daemon driven over loopback HTTP) and
//! returns its end-to-end figures, its record hashes for the
//! correctness gate, its exact counts and, on traced rounds, the
//! per-layer figures.

use crate::gate::Hashes;
use crate::layers::{fork_attribution, probe, AppProbe};
use crate::sink::{run_timed, TimedRun, TrialSpans};
use crate::spans::{SpanId, Spans};
use crate::stats::median;
use fl_apps::AppKind;
use fl_inject::json::{parse, Json};
use fl_inject::{
    parse_record_line, record_line, CampaignSpec, ChaosPolicy, Manifestation, PerturbPolicy,
    SpecMode, SpecOutcome,
};
use fl_serve::{client, ServeConfig, Server};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Defense,
    Serve,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::Defense, Workload::Serve];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Defense => "defense-matrix",
            Workload::Serve => "serve-resume",
        }
    }

    pub fn parse(s: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!(
                    "unknown workload `{s}` (expected one of {})",
                    names.join(", ")
                )
            })
    }

    /// The specs one round drains, in order. Every spec runs one engine
    /// worker on a tiny app, and a round holds about 200 distinct trials
    /// so the 95th latency percentile has 10 trials beyond it.
    pub fn specs(self, seed: u64) -> Vec<CampaignSpec> {
        let spec = |app: AppKind, injections: u32, mode: SpecMode| {
            let mut s = CampaignSpec::new(app);
            s.tiny = true;
            s.campaign.injections = injections;
            s.campaign.seed = seed;
            s.campaign.threads = 1;
            s.mode = mode;
            s
        };
        match self {
            Workload::Defense => vec![
                spec(
                    AppKind::Jacobi3d,
                    3,
                    SpecMode::Chaos(ChaosPolicy::default()),
                ),
                spec(
                    AppKind::Jacobi3d,
                    3,
                    SpecMode::Perturb(PerturbPolicy::default()),
                ),
            ],
            Workload::Serve => {
                let mut s = spec(AppKind::Wavetoy, 26, SpecMode::Campaign);
                s.campaign.obs_capacity = 1024;
                vec![s]
            }
        }
    }
}

/// One engine-timed trial of a round.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Gap since the previous completion (one engine worker).
    pub lat_ms: f64,
    pub class: &'static str,
    pub detail: String,
}

/// What one round measured.
#[derive(Default)]
pub struct Round {
    /// Wall time of the whole round.
    pub wall_s: f64,
    pub setup_s: f64,
    pub phase_s: f64,
    /// Trials executed in the measured trial phase.
    pub executed: u64,
    pub insns: u64,
    /// Every timed trial, in completion order: from the engine sink, or
    /// for `serve-resume` from the daemon's streamed record file.
    pub samples: Vec<Sample>,
    /// Trials whose records the gate checked this round.
    pub attempted: u64,
    /// Trials that failed a check inside the round (tallies, served
    /// stream against the one-shot stream).
    pub failed: u64,
    pub problems: Vec<String>,
    /// Record hashes of the round's canonical streams.
    pub hashes: Hashes,
    /// Simulated statistics that must repeat exactly.
    pub counts: BTreeMap<String, u64>,
    /// Per-layer figures (traced rounds only).
    pub layer: BTreeMap<String, f64>,
}

impl Round {
    pub fn trials_per_s(&self) -> f64 {
        self.executed as f64 / self.phase_s
    }

    pub fn guest_mips(&self) -> f64 {
        self.insns as f64 / self.phase_s / 1e6
    }
}

/// Trial-span category by mode: plain-campaign trials spend their time
/// in VM execution and MPI delivery, matrix trials in the guard and ft
/// runners around them.
fn trial_layer(spec: &CampaignSpec) -> &'static str {
    match spec.mode {
        SpecMode::Campaign => "fl-machine/fl-mpi",
        _ => "fl-guard/fl-ft",
    }
}

/// Run one round of `w`.
pub fn run_round(
    w: Workload,
    seed: u64,
    round: usize,
    traced: bool,
    spans: &mut Spans,
    work_dir: &Path,
) -> Result<Round, String> {
    let round_start = Instant::now();
    let root = spans.record(
        format!("{} round {round}", w.name()),
        "perfbench",
        round_start,
        round_start,
        None,
        round,
        None,
    );
    let specs = w.specs(seed);
    let serve = w == Workload::Serve;
    let mut r = Round::default();
    let mut streams = Vec::new();
    let mut probes: Vec<AppProbe> = Vec::new();
    let mut runs: Vec<TimedRun> = Vec::new();
    // `serve-resume` drains its spec through `run_spec` on the first
    // round (the one-shot stream every served stream must equal) and on
    // traced rounds (for the layer figures); its timed figures are the
    // daemon's.
    let one_shot = !serve || round == 0 || traced;
    for (si, spec) in specs.iter().enumerate().filter(|_| one_shot) {
        if traced {
            probes.push(probe(spec, spans, root, round)?);
        }
        let now = Instant::now();
        let call = spans.record(
            format!("run_spec {} {}", spec.app.name(), spec.mode.name()),
            "engine",
            now,
            now,
            root,
            round,
            None,
        );
        let run = run_timed(
            spec,
            TrialSpans {
                spans: &mut *spans,
                layer: trial_layer(spec),
                parent: call,
                round,
                spec: si,
            },
        )?;
        let last = run.trials.last().map_or(run.phase_start, |t| t.at);
        spans.set_bounds(call, run.call_start, last);
        spans.record(
            "set-up",
            "engine",
            run.call_start,
            run.phase_start,
            call,
            round,
            None,
        );
        if !run.tallies_sum() {
            r.failed += run.trials.len() as u64;
            r.problems.push(format!(
                "{} {}: tallies do not sum to the trial count",
                spec.app.name(),
                spec.mode.name()
            ));
        }
        r.attempted += run.trials.len() as u64;
        streams.push(run.canonical());
        if let SpecOutcome::Campaign(c) = &run.outcome {
            let e = &c.exec_stats;
            for (k, v) in [
                ("machine.block_hits", e.block_hits),
                ("machine.block_misses", e.block_misses),
                ("machine.trace_passes", e.trace_hits),
                ("machine.trace_side_exits", e.trace_side_exits),
                ("machine.demotions", e.demotions),
            ] {
                *r.counts.entry(k.to_string()).or_default() += v;
            }
        }
        runs.push(run);
    }

    if serve {
        let state_dir = work_dir.join(format!("serve-state-{}-{round}", std::process::id()));
        let served = serve_legs(&specs[0], &state_dir, spans, root, round)?;
        if let Some(one) = streams.first() {
            if served.records != *one {
                let bad = Hashes::of_streams(std::slice::from_ref(&served.records))?
                    .mismatches(&Hashes::of_streams(std::slice::from_ref(one))?);
                r.failed += bad.max(1);
                r.problems.push(format!(
                    "served /records differ from the one-shot run_spec stream ({bad} trials)"
                ));
            }
        }
        r.setup_s = served.setup_s;
        r.phase_s = served.phase_s;
        r.executed = served.executed;
        r.samples = served.samples;
        // The workload's record stream is the served one.
        streams = vec![served.records];
        if traced {
            let l = &mut r.layer;
            l.insert("serve.submit_ms".into(), served.submit_ms);
            l.insert("serve.status_p50_ms".into(), median(&served.status_ms));
            l.insert("serve.resume_adopt_ms".into(), served.adopt_ms);
            l.insert("serve.resumed_trials".into(), served.resumed as f64);
            l.insert("serve.records_get_ms".into(), served.records_ms);
        }
    } else {
        r.setup_s = runs.iter().map(|x| x.setup_s).sum();
        r.phase_s = runs.iter().map(|x| x.phase_s).sum();
        r.executed = runs.iter().map(|x| x.trials.len() as u64).sum();
        for run in &runs {
            for (t, &lat_ms) in run.trials.iter().zip(&run.lat_ms) {
                r.samples.push(Sample {
                    lat_ms,
                    class: t.class,
                    detail: t.detail.clone(),
                });
            }
        }
    }
    r.hashes = Hashes::of_streams(&streams)?;
    if serve {
        r.attempted += r.hashes.0.len() as u64;
    }

    // Simulated statistics of the records: exact.
    let mut outcomes = [0u64; Manifestation::ALL.len()];
    let mut events = 0;
    for text in &streams {
        for line in text.lines() {
            let t = parse_record_line(line)?;
            r.insns += t.insns;
            events += t.metrics.as_ref().map_or(0, |m| m.events_total);
            let i = Manifestation::ALL
                .iter()
                .position(|&m| m == t.record.outcome)
                .expect("every outcome is listed");
            outcomes[i] += 1;
        }
    }
    r.counts.insert("trials".into(), r.hashes.0.len() as u64);
    r.counts.insert("insns".into(), r.insns);
    r.counts.insert("obs.events".into(), events);
    for (m, n) in Manifestation::ALL.iter().zip(outcomes) {
        r.counts.insert(format!("inject.outcome.{}", m.slug()), n);
    }

    if traced {
        layer_figures(&mut r, &specs, &probes, &runs, spans, root, round)?;
    }
    let end = Instant::now();
    spans.set_bounds(root, round_start, end);
    r.wall_s = (end - round_start).as_secs_f64();
    Ok(r)
}

/// The per-layer figures of a traced round.
fn layer_figures(
    r: &mut Round,
    specs: &[CampaignSpec],
    probes: &[AppProbe],
    runs: &[TimedRun],
    spans: &mut Spans,
    root: Option<SpanId>,
    round: usize,
) -> Result<(), String> {
    let sum = |f: &dyn Fn(&AppProbe) -> f64| probes.iter().map(f).sum::<f64>();
    let l = &mut r.layer;
    l.insert("lang.compile_ms".into(), sum(&|p| p.compile_ms));
    l.insert("apps.golden_ms".into(), sum(&|p| p.golden_ms));
    l.insert("inject.dict_build_ms".into(), sum(&|p| p.dict_build_ms));
    l.insert("machine.predecode_ms".into(), sum(&|p| p.predecode_ms));
    l.insert("snap.epoch_build_ms".into(), sum(&|p| p.epoch_build_ms));
    let restores: Vec<f64> = probes
        .iter()
        .filter(|p| p.epochs > 0)
        .map(|p| p.restore_us)
        .collect();
    l.insert("snap.restore_us".into(), median(&restores));
    let fast: (u64, f64) = probes
        .iter()
        .fold((0, 0.0), |a, p| (a.0 + p.fast.0, a.1 + p.fast.1));
    let interp: (u64, f64) = probes
        .iter()
        .fold((0, 0.0), |a, p| (a.0 + p.interp.0, a.1 + p.interp.1));
    l.insert("machine.fast_mips".into(), fast.0 as f64 / fast.1 / 1e6);
    l.insert(
        "machine.interp_mips".into(),
        interp.0 as f64 / interp.1 / 1e6,
    );
    let rounds: u64 = probes.iter().map(|p| p.rounds).sum();
    l.insert("mpi.round_us".into(), fast.1 * 1e6 / rounds as f64);

    let c = &mut r.counts;
    c.insert("snap.epochs".into(), probes.iter().map(|p| p.epochs).sum());
    c.insert("mpi.rounds".into(), rounds);
    c.insert("mpi.msgs".into(), probes.iter().map(|p| p.msgs).sum());
    c.insert(
        "mpi.header_bytes".into(),
        probes.iter().map(|p| p.header_bytes).sum(),
    );
    c.insert(
        "mpi.payload_bytes".into(),
        probes.iter().map(|p| p.payload_bytes).sum(),
    );
    // Interpreter and fast path must retire the same instructions.
    if fast.0 != interp.0 {
        r.failed += 1;
        r.problems.push(format!(
            "fault-free runs diverge: fast path {} insns, interpreter {}",
            fast.0, interp.0
        ));
    }

    let (mut forked, mut skipped, mut campaign_insns, mut campaign_trials) = (0, 0, 0, 0);
    for ((spec, p), run) in specs.iter().zip(probes).zip(runs) {
        if spec.mode == SpecMode::Campaign {
            let (f, s) = fork_attribution(p.cache.as_ref(), &run.trials)?;
            forked += f;
            skipped += s;
            campaign_insns += run.insns();
            campaign_trials += run.trials.len() as u64;
        }
    }
    c.insert("snap.forked_trials".into(), forked);
    c.insert("snap.skipped_insns".into(), skipped);
    let l = &mut r.layer;
    l.insert("snap.forked_frac".into(), ratio(forked, campaign_trials));
    l.insert(
        "snap.prefix_skip_frac".into(),
        ratio(skipped, campaign_insns),
    );
    let side_exits = r
        .counts
        .get("machine.trace_side_exits")
        .copied()
        .unwrap_or(0);
    let passes = r.counts.get("machine.trace_passes").copied().unwrap_or(0);
    l.insert("machine.side_exit_ratio".into(), ratio(side_exits, passes));

    // Record codec over the round's records: decode every canonical
    // line, re-encode it, and require the bytes to round-trip.
    let lines: Vec<(AppKind, &str)> = runs
        .iter()
        .zip(specs)
        .flat_map(|(run, s)| run.trials.iter().map(move |t| (s.app, t.line.as_str())))
        .collect();
    let start = Instant::now();
    let decoded: Vec<_> = lines
        .iter()
        .map(|(_, l)| parse_record_line(l))
        .collect::<Result<_, _>>()?;
    let mid = Instant::now();
    let encoded: Vec<String> = lines
        .iter()
        .zip(&decoded)
        .map(|((app, _), t)| record_line(*app, t))
        .collect();
    let end = Instant::now();
    spans.record("parse_record_line", "engine", start, mid, root, round, None);
    spans.record("record_line", "engine", mid, end, root, round, None);
    let n = lines.len().max(1) as f64;
    let bytes: usize = lines.iter().map(|(_, l)| l.len()).sum();
    let l = &mut r.layer;
    l.insert(
        "engine.record_decode_us".into(),
        (mid - start).as_secs_f64() * 1e6 / n,
    );
    l.insert(
        "engine.record_encode_us".into(),
        (end - mid).as_secs_f64() * 1e6 / n,
    );
    r.counts.insert("engine.record_bytes".into(), bytes as u64);
    if encoded.iter().zip(&lines).any(|(e, (_, l))| e != l) {
        r.failed += 1;
        r.problems
            .push("record lines do not round-trip through the codec".into());
    }
    Ok(())
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// The daemon's view of a served campaign.
struct Served {
    setup_s: f64,
    phase_s: f64,
    executed: u64,
    records: String,
    /// Trials timed from the daemon's streamed record file.
    samples: Vec<Sample>,
    submit_ms: f64,
    status_ms: Vec<f64>,
    adopt_ms: f64,
    resumed: u64,
    records_ms: f64,
}

struct Status {
    status: String,
    done: u64,
    resumed: u64,
    wall_nanos: u64,
    /// When the response arrived.
    at: Instant,
}

/// Submit `spec` to an in-process daemon on loopback, stop it half way,
/// resubmit so the daemon adopts the streamed records, wait for done
/// and fetch the canonical records.
fn serve_legs(
    spec: &CampaignSpec,
    state_dir: &Path,
    spans: &mut Spans,
    root: Option<SpanId>,
    round: usize,
) -> Result<Served, String> {
    let _ = std::fs::remove_dir_all(state_dir);
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        state_dir: state_dir.to_path_buf(),
    })
    .map_err(|e| format!("cannot start the campaign service: {e}"))?;
    let addr = server.local_addr().to_string();
    let out = drive(&addr, spec, state_dir, spans, root, round);
    server.shutdown();
    let _ = std::fs::remove_dir_all(state_dir);
    out
}

/// A record line as the tailer read it: when, and how many lines that
/// read returned.
struct Stamped {
    at: Instant,
    batch: usize,
    line: String,
}

/// How often the tailer looks for new record lines.
const TAIL_EVERY: Duration = Duration::from_micros(500);

/// How often the benchmark polls the daemon's status, as the
/// repository's own client does while it waits.
const POLL_EVERY: Duration = Duration::from_millis(25);

/// Follow a growing record file until `stop`, stamping each complete
/// line when it is first read. The daemon flushes a line the moment its
/// trial completes, so with one engine worker the gap between two
/// stamps is a trial's latency to within the tailer's period.
fn tail(path: &Path, stop: &AtomicBool) -> Vec<Stamped> {
    let mut out = Vec::new();
    let mut file: Option<File> = None;
    let (mut offset, mut partial) = (0u64, String::new());
    loop {
        let last = stop.load(Ordering::SeqCst);
        if file.is_none() {
            file = File::open(path).ok();
        }
        if let Some(f) = file.as_mut() {
            let len = f.metadata().map_or(0, |m| m.len());
            if len < offset {
                // Rewritten on resume (a torn tail was dropped): re-read;
                // lines already stamped keep their first stamp.
                offset = 0;
                partial.clear();
            }
            if len > offset && f.seek(SeekFrom::Start(offset)).is_ok() {
                let mut buf = Vec::new();
                if f.read_to_end(&mut buf).is_ok() {
                    let now = Instant::now();
                    offset += buf.len() as u64;
                    partial.push_str(&String::from_utf8_lossy(&buf));
                    let mut lines = Vec::new();
                    while let Some(i) = partial.find('\n') {
                        lines.push(partial[..i].to_string());
                        partial.drain(..=i);
                    }
                    let batch = lines.len();
                    out.extend(lines.into_iter().map(|line| Stamped {
                        at: now,
                        batch,
                        line,
                    }));
                }
            }
        }
        if last {
            return out;
        }
        std::thread::sleep(TAIL_EVERY);
    }
}

/// Per-trial samples from the stamped lines: the gap to the previous
/// completion of the same leg. The first trial of each leg has no
/// predecessor and no sample, and neither has a trial whose line, or
/// whose predecessor's, was read together with another: its stamp is
/// later than its completion, so the gap is not its latency. Also
/// returns when the first trial the resumed run executed was read.
fn served_samples(
    lines: &[Stamped],
    resubmitted: Instant,
) -> Result<(Vec<Sample>, Option<Instant>), String> {
    let mut seen = std::collections::BTreeSet::new();
    let mut out = Vec::new();
    let mut first_resumed = None;
    let mut prev: Option<&Stamped> = None;
    for s in lines {
        let t = parse_record_line(&s.line)?;
        if !seen.insert((t.ci, t.k)) {
            continue;
        }
        let at = s.at;
        if at >= resubmitted && first_resumed.is_none() {
            first_resumed = Some(at);
        }
        let timed = |p: &&Stamped| {
            p.batch == 1 && s.batch == 1 && !(p.at < resubmitted && at >= resubmitted)
        };
        if let Some(p) = prev.filter(timed).map(|p| p.at) {
            out.push(Sample {
                lat_ms: at.saturating_duration_since(p).as_secs_f64() * 1e3,
                class: t.record.class.name(),
                detail: t.record.detail.clone(),
            });
        }
        prev = Some(s);
    }
    Ok((out, first_resumed))
}

fn drive(
    addr: &str,
    spec: &CampaignSpec,
    state_dir: &Path,
    spans: &mut Spans,
    root: Option<SpanId>,
    round: usize,
) -> Result<Served, String> {
    let json = spec.to_json();
    let total = spec.classes.len() as u64 * spec.campaign.injections as u64;
    let deadline = Instant::now() + Duration::from_secs(120);
    let status_ms = std::cell::RefCell::new(Vec::new());
    let poll = |id: &str, spans: &mut Spans| -> Result<Status, String> {
        if Instant::now() > deadline {
            return Err("served campaign did not finish within 120 s".into());
        }
        std::thread::sleep(POLL_EVERY);
        let start = Instant::now();
        let body = client::status(addr, id)?;
        let at = Instant::now();
        spans.record("client::status", "fl-serve", start, at, root, round, None);
        status_ms
            .borrow_mut()
            .push((at - start).as_secs_f64() * 1e3);
        let v = parse(&body)?;
        let num = |k: &str| v.get(k).and_then(Json::as_u64).unwrap_or(0);
        Ok(Status {
            status: client::status_field(&body),
            done: num("done"),
            resumed: num("resumed"),
            wall_nanos: num("wall_nanos"),
            at,
        })
    };

    let (id, submit_s) = spans.time("client::submit", "fl-serve", root, round, || {
        client::submit(addr, &json)
    });
    let id = id?;
    let submitted = Instant::now() - Duration::from_secs_f64(submit_s);
    let records_path = state_dir.join(&id).join("records.jsonl");
    let stop_tail = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let tailer = scope.spawn(|| tail(&records_path, &stop_tail));
        let legs = (|| -> Result<_, String> {
            // Leg 1: stop once half the trials are done.
            let mut phase1 = None;
            loop {
                let s = poll(&id, spans)?;
                if phase1.is_none() && s.done >= 1 {
                    phase1 = Some(s.at - Duration::from_nanos(s.wall_nanos));
                }
                if s.done >= total / 2 {
                    break;
                }
                if s.status != "running" {
                    return Err(format!(
                        "served campaign ended `{}` before the stop",
                        s.status
                    ));
                }
            }
            client::control(addr, &id, "stop")?;
            let stopped = loop {
                let s = poll(&id, spans)?;
                match s.status.as_str() {
                    "stopped" => break s,
                    "stopping" | "running" => {}
                    other => {
                        return Err(format!(
                            "served campaign ended `{other}` instead of stopping"
                        ))
                    }
                }
            };

            // Leg 2: resubmit; the daemon adopts the streamed records.
            let resubmitted = Instant::now();
            let (resub, _) = spans.time("client::submit (resume)", "fl-serve", root, round, || {
                client::submit(addr, &json)
            });
            resub?;
            let mut phase2 = None;
            let finished = loop {
                let s = poll(&id, spans)?;
                // Until the new engine run catches up with the stopped
                // run's counters the status still shows them; `resumed`
                // marks the new run.
                if s.resumed > 0 && phase2.is_none() {
                    phase2 = Some(s.at - Duration::from_nanos(s.wall_nanos));
                }
                match s.status.as_str() {
                    "done" => break s,
                    "running" => {}
                    other => return Err(format!("resumed campaign ended `{other}`")),
                }
            };
            Ok((phase1, stopped, resubmitted, phase2, finished))
        })();
        stop_tail.store(true, Ordering::SeqCst);
        let lines = tailer.join().expect("record tailer panicked");
        let (phase1, stopped, resubmitted, phase2, finished) = legs?;
        if finished.resumed == 0 || finished.resumed != stopped.done {
            return Err(format!(
                "daemon adopted {} records after stopping at {}",
                finished.resumed, stopped.done
            ));
        }
        let (records, records_s) = spans.time("client::records", "fl-serve", root, round, || {
            client::records(addr, &id)
        });
        let records = records?;
        let phase1 = phase1.ok_or("no progress seen before the stop")?;
        let phase2 = phase2.unwrap_or(resubmitted);
        let (samples, first_resumed) = served_samples(&lines, resubmitted)?;
        Ok(Served {
            setup_s: phase1.saturating_duration_since(submitted).as_secs_f64()
                + phase2.saturating_duration_since(resubmitted).as_secs_f64(),
            phase_s: (stopped.wall_nanos + finished.wall_nanos) as f64 / 1e9,
            executed: stopped.done + (total - finished.resumed),
            records,
            samples,
            submit_ms: submit_s * 1e3,
            status_ms: status_ms.take(),
            adopt_ms: first_resumed.map_or(0.0, |at| (at - resubmitted).as_secs_f64() * 1e3),
            resumed: finished.resumed,
            records_ms: records_s * 1e3,
        })
    })
}
