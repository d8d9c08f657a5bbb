//! `perfbench`: one workload of the campaign benchmark, measured for a
//! fixed wall time.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           --work-dir <dir> --reference-dir <dir> [--write-reference]
//! ```
//!
//! The workload's specs are drained round after round until `--seconds`
//! have passed. Untraced (`--trace 0`), every round measures the
//! end-to-end figures and each metric is the median over rounds.
//! Traced (`--trace 1`), rounds alternate between untraced and traced;
//! traced rounds also probe every layer's public entry points under
//! spans, and the extra wall time of a traced round is the tracing
//! overhead. The last stdout line is one JSON report: every metric's
//! value with the median, quartiles and count of its per-round values,
//! the correctness verdict and the record digest.

mod gate;
mod layers;
mod sink;
mod spans;
mod stats;
mod workload;

use fl_inject::perturb::perturb_models;
use fl_inject::{Defense, Detection, FaultModel, Manifestation, TargetClass};
use gate::Hashes;
use spans::Spans;
use stats::{median, percentile, summarize, Summary};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;
use workload::{run_round, Round, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
    reference_dir: PathBuf,
    write_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut work_dir, mut reference_dir, mut write_reference) = (None, None, false);
    while let Some(flag) = it.next() {
        if flag == "--write-reference" {
            write_reference = true;
            continue;
        }
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: `{v}` is not a number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&val)?),
            "--seed" => seed = Some(num(&val)?),
            "--seconds" => seconds = Some(num(&val)? as f64),
            "--trace" => trace = Some(num(&val)? != 0),
            "--work-dir" => work_dir = Some(PathBuf::from(val)),
            "--reference-dir" => reference_dir = Some(PathBuf::from(val)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        work_dir: work_dir.ok_or("--work-dir is required")?,
        reference_dir: reference_dir.ok_or("--reference-dir is required")?,
        write_reference,
    })
}

/// End-to-end metrics: name, unit.
const END_TO_END: [(&str, &str); 6] = [
    ("trials_per_s", "trials/s"),
    ("guest_mips", "Minsn/s"),
    ("setup_s", "s"),
    ("trial_p50_ms", "ms"),
    ("trial_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric with its unit, in report order. A traced run
/// reports all of them on every workload; a layer the workload does not
/// exercise reads 0.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("lang.compile_ms", "ms"),
        ("apps.golden_ms", "ms"),
        ("inject.dict_build_ms", "ms"),
        ("machine.predecode_ms", "ms"),
        ("snap.epoch_build_ms", "ms"),
        ("snap.epochs", "count"),
        ("snap.restore_us", "us"),
        ("snap.forked_frac", "fraction"),
        ("snap.prefix_skip_frac", "fraction"),
        ("machine.block_hits", "count"),
        ("machine.block_misses", "count"),
        ("machine.trace_passes", "count"),
        ("machine.trace_side_exits", "count"),
        ("machine.demotions", "count"),
        ("machine.side_exit_ratio", "fraction"),
        ("machine.fast_mips", "Minsn/s"),
        ("machine.interp_mips", "Minsn/s"),
        ("mpi.rounds", "count"),
        ("mpi.msgs", "count"),
        ("mpi.header_bytes", "bytes"),
        ("mpi.payload_bytes", "bytes"),
        ("mpi.round_us", "us"),
        ("inject.hang_frac", "fraction"),
        ("engine.record_encode_us", "us"),
        ("engine.record_decode_us", "us"),
        ("engine.record_bytes", "bytes"),
        ("obs.events_per_trial", "count"),
        ("serve.submit_ms", "ms"),
        ("serve.status_p50_ms", "ms"),
        ("serve.resume_adopt_ms", "ms"),
        ("serve.resumed_trials", "count"),
        ("serve.records_get_ms", "ms"),
        ("trace.overhead_frac", "fraction"),
        ("trace.untraced_trials_per_s", "trials/s"),
        ("trace.traced_trials_per_s", "trials/s"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for m in Manifestation::ALL {
        v.push((format!("inject.outcome.{}", m.slug()), "count"));
    }
    for r in TargetClass::ALL.map(|c| c.name()) {
        v.push((format!("inject.class_p50_ms.{r}"), "ms"));
    }
    let columns = Defense::ALL
        .iter()
        .map(|d| d.name())
        .chain(Detection::ALL.iter().map(|d| d.name()));
    for c in columns {
        v.push((format!("matrix.defense_p50_ms.{c}"), "ms"));
    }
    let mut models: Vec<FaultModel> = FaultModel::chaos_models().to_vec();
    for m in perturb_models() {
        if !models.contains(&m) {
            models.push(m);
        }
    }
    for m in models {
        v.push((format!("matrix.model_p50_ms.{}", m.label()), "ms"));
    }
    v
}

/// Counts that are per-layer metrics and must repeat exactly.
const EXACT_LAYER: [&str; 10] = [
    "snap.epochs",
    "machine.block_hits",
    "machine.block_misses",
    "machine.trace_passes",
    "machine.trace_side_exits",
    "machine.demotions",
    "mpi.rounds",
    "mpi.msgs",
    "mpi.header_bytes",
    "mpi.payload_bytes",
];

/// One round's median trial latency by region, by matrix column and by
/// fault model.
fn group_latencies(r: &Round) -> BTreeMap<String, f64> {
    let mut by: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for s in &r.samples {
        // Matrix records read `<column>/<model>: <detail>`.
        let groups = match s
            .detail
            .split_once(": ")
            .and_then(|(h, _)| h.split_once('/'))
        {
            Some((column, model)) => vec![
                format!("matrix.defense_p50_ms.{column}"),
                format!("matrix.model_p50_ms.{model}"),
            ],
            None => vec![format!("inject.class_p50_ms.{}", s.class)],
        };
        for g in groups {
            by.entry(g).or_default().push(s.lat_ms);
        }
    }
    by.into_iter().map(|(k, v)| (k, median(&v))).collect()
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(ok) => std::process::exit(if ok { 0 } else { 1 }),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.work_dir.display()))?;
    let mut spans = Spans::new(false, w.name());

    if args.write_reference {
        let r = run_round(w, args.seed, 0, false, &mut spans, &args.work_dir)?;
        if r.failed > 0 {
            return Err(format!(
                "round failed its checks: {}",
                r.problems.join("; ")
            ));
        }
        let path = gate::reference_path(&args.reference_dir, w.name(), args.seed);
        std::fs::write(&path, r.hashes.to_text(w.name(), args.seed))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!(
            "wrote {} ({} trials, digest {})",
            path.display(),
            r.hashes.0.len(),
            r.hashes.digest()
        );
        return Ok(true);
    }

    // Rounds until the time is up; a round that would end more than
    // half a round past it is not started. Each kind of round runs at
    // least twice.
    let budget = args.seconds;
    let started = Instant::now();
    let mut rounds: Vec<(Round, bool)> = Vec::new();
    loop {
        let i = rounds.len();
        let traced = args.trace && i % 2 == 1;
        spans.set_enabled(traced);
        let r = run_round(w, args.seed, i, traced, &mut spans, &args.work_dir)?;
        eprintln!(
            "{} round {i}{}: {} trials, {:.1} trials/s, set-up {:.1} ms",
            w.name(),
            if traced { " (traced)" } else { "" },
            r.executed,
            r.trials_per_s(),
            r.setup_s * 1e3
        );
        rounds.push((r, traced));
        let elapsed = started.elapsed().as_secs_f64();
        let per_round = elapsed / rounds.len() as f64;
        let enough = rounds.len() >= if args.trace { 4 } else { 2 };
        if enough && elapsed + per_round / 2.0 >= budget {
            break;
        }
    }
    let measured_s = started.elapsed().as_secs_f64();

    // Correctness gate: every round's records against the stored
    // reference for this seed, or against the first round when the
    // benchmark keeps none; exact counts against their first value.
    let reference = gate::load_reference(&args.reference_dir, w.name(), args.seed)?;
    let base: Hashes = reference
        .clone()
        .unwrap_or_else(|| rounds[0].0.hashes.clone());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut problems: Vec<String> = Vec::new();
    let mut first: BTreeMap<String, u64> = BTreeMap::new();
    for (i, (r, _)) in rounds.iter().enumerate() {
        attempted += r.attempted;
        failed += r.failed;
        problems.extend(r.problems.iter().map(|p| format!("round {i}: {p}")));
        let bad = r.hashes.mismatches(&base);
        if bad > 0 {
            failed += bad;
            problems.push(format!(
                "round {i}: {bad} trial records differ from the {}",
                if reference.is_some() {
                    "stored reference"
                } else {
                    "first round"
                }
            ));
        }
        for (k, v) in &r.counts {
            let f = *first.entry(k.clone()).or_insert(*v);
            if f != *v {
                failed += r.executed;
                problems.push(format!("round {i}: {k} = {v}, first seen {f}"));
            }
        }
    }
    let digest = rounds[0].0.hashes.digest();
    let correct = failed == 0;

    let plain: Vec<&Round> = rounds.iter().filter(|(_, t)| !t).map(|(r, _)| r).collect();
    let traced: Vec<&Round> = rounds.iter().filter(|(_, t)| *t).map(|(r, _)| r).collect();
    let series = |f: &dyn Fn(&Round) -> f64, rs: &[&Round]| -> Vec<f64> {
        rs.iter().map(|r| f(r)).collect()
    };
    let lat = |r: &Round| r.samples.iter().map(|s| s.lat_ms).collect::<Vec<_>>();

    // (name, unit, per-round values); the reported value is their median.
    let mut metrics: Vec<(String, &str, Vec<f64>)> = Vec::new();
    if !args.trace {
        let rss = peak_rss_mb();
        for ((name, unit), per_round) in END_TO_END.iter().zip([
            series(&|r| r.trials_per_s(), &plain),
            series(&|r| r.guest_mips(), &plain),
            series(&|r| r.setup_s, &plain),
            series(&|r| percentile(&lat(r), 50.0), &plain),
            series(&|r| percentile(&lat(r), 95.0), &plain),
            vec![rss],
        ]) {
            metrics.push((name.to_string(), unit, per_round));
        }
    } else {
        let wall = |rs: &[&Round]| median(&series(&|r| r.wall_s, rs));
        let overhead = (wall(&traced) - wall(&plain)) / wall(&plain);
        let groups: Vec<BTreeMap<String, f64>> =
            rounds.iter().map(|(r, _)| group_latencies(r)).collect();
        for (name, unit) in per_layer() {
            let n = name.as_str();
            let count = |r: &Round, k: &str| r.counts.get(k).copied().unwrap_or(0) as f64;
            let per_round = match n {
                "trace.overhead_frac" => vec![overhead],
                "trace.untraced_trials_per_s" => series(&|r| r.trials_per_s(), &plain),
                "trace.traced_trials_per_s" => series(&|r| r.trials_per_s(), &traced),
                "engine.record_bytes" => series(
                    &|r| count(r, "engine.record_bytes") / count(r, "trials").max(1.0),
                    &traced,
                ),
                "inject.hang_frac" => series(
                    &|r| count(r, "inject.outcome.hang") / count(r, "trials").max(1.0),
                    &traced,
                ),
                "obs.events_per_trial" => series(
                    &|r| count(r, "obs.events") / count(r, "trials").max(1.0),
                    &traced,
                ),
                _ if n.starts_with("inject.outcome.") || EXACT_LAYER.contains(&n) => {
                    series(&|r| count(r, n), &traced)
                }
                // Regions, columns and models the workload does not
                // run read 0.
                _ if n.starts_with("inject.class_p50_ms.") || n.starts_with("matrix.") => groups
                    .iter()
                    .map(|g| g.get(n).copied().unwrap_or(0.0))
                    .collect(),
                _ => series(&|r| r.layer.get(n).copied().unwrap_or(0.0), &traced),
            };
            metrics.push((name, unit, per_round));
        }
    }

    let trace_file = if args.trace {
        let path = args
            .work_dir
            .join(format!("trace-{}-seed{}.json", w.name(), args.seed));
        spans
            .write_chrome(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("wrote {} ({} spans)", path.display(), spans.len());
        Some(path)
    } else {
        None
    };

    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"host_threads\":{},\"rounds\":{},\"traced_rounds\":{},\"trials_per_round\":{},\"timed_trials\":{},\"measured_s\":{},\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"digest\":\"{digest}\",\"reference\":\"{}\",\"problems\":[",
        w.name(),
        args.seed,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        rounds.len(),
        traced.len(),
        rounds[0].0.hashes.0.len(),
        rounds.iter().map(|(r, _)| r.samples.len()).sum::<usize>(),
        json_num(measured_s),
        match &reference {
            None => "none",
            Some(r) if r.mismatches(&rounds[0].0.hashes) == 0 => "match",
            Some(_) => "mismatch",
        },
    );
    for (i, p) in problems.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\"", fl_inject::json::escape(p));
    }
    out.push_str("],\"trace_file\":");
    match &trace_file {
        Some(p) => {
            let _ = write!(
                out,
                "\"{}\"",
                fl_inject::json::escape(&p.display().to_string())
            );
        }
        None => out.push_str("null"),
    }
    out.push_str(",\"metrics\":{");
    for (i, (name, unit, per_round)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let s: Summary = summarize(per_round);
        let _ = write!(
            out,
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\",\"q1\":{},\"q3\":{},\"rounds\":{}}}",
            json_num(s.median),
            json_num(s.q1),
            json_num(s.q3),
            s.n
        );
    }
    out.push_str("}}");
    for p in &problems {
        eprintln!("perfbench: FAILED {p}");
    }
    println!("{out}");
    Ok(correct)
}
