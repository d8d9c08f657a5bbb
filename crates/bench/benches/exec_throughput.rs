//! Interpreter fast-path throughput: pre-decoded superblock traces +
//! software TLB versus the plain per-instruction slow path.
//!
//! Sweeps all four applications at their tiny parameter sets. For each
//! app it runs the identical fault-free world cold both ways, checks
//! the two paths retire the same instruction count and produce the
//! same output (the zero-divergence contract), and times both. Results
//! land in `BENCH_exec.json` at the workspace root: a per-app entry
//! plus the geometric-mean speedup, with the wavetoy numbers mirrored
//! at the top level for consumers of the original one-app schema. The CI
//! perf-smoke step gates both the wavetoy `speedup` and the
//! `geomean_speedup` at `≥ threshold_speedup` (4.0 — margin under the
//! ≥5x target for CI noise).

use criterion::{criterion_group, criterion_main, Criterion};
use fl_apps::{App, AppKind, AppParams};
use fl_mpi::{MpiWorld, WorldConfig, WorldExit};
use std::fmt::Write as _;

/// One cold trial: fresh world, full run, instruction total.
fn cold_run(app: &App, cfg: WorldConfig) -> (MpiWorld, u64) {
    let mut w = MpiWorld::new(&app.image, cfg);
    assert_eq!(w.run(), WorldExit::Clean);
    let insns = fl_inject::world_insns(&w);
    (w, insns)
}

/// One app's fast/slow measurement.
struct AppResult {
    name: &'static str,
    insns: u64,
    fast_tps: f64,
    slow_tps: f64,
    fast_mips: f64,
    slow_mips: f64,
    speedup: f64,
}

fn measure_app(c: &mut Criterion, kind: AppKind) -> AppResult {
    let app = App::build(kind, AppParams::tiny(kind));
    let fast_cfg = app.world_config(2_000_000_000);
    let mut slow_cfg = fast_cfg;
    slow_cfg.machine.fastpath = false;

    // Zero-divergence check before timing anything: both paths must
    // retire the same instructions and emit the same output. (Moldyn's
    // nondeterministic schedule is seeded from the config, identical
    // here on both sides.)
    let (fast_w, insns) = cold_run(&app, fast_cfg);
    let (slow_w, slow_insns) = cold_run(&app, slow_cfg);
    assert_eq!(
        insns,
        slow_insns,
        "{}: fast path diverged in retired insns",
        kind.name()
    );
    assert_eq!(
        app.comparable_output(&fast_w),
        app.comparable_output(&slow_w),
        "{}: fast path diverged in output",
        kind.name()
    );

    c.bench_function(format!("exec_throughput/fastpath/{}", kind.name()), |b| {
        b.iter(|| cold_run(&app, fast_cfg).1)
    });
    let fast_ns = c.last_ns_per_iter.expect("bench must have run");

    c.bench_function(
        format!("exec_throughput/no_fastpath/{}", kind.name()),
        |b| b.iter(|| cold_run(&app, slow_cfg).1),
    );
    let slow_ns = c.last_ns_per_iter.expect("bench must have run");

    let r = AppResult {
        name: kind.name(),
        insns,
        fast_tps: 1e9 / fast_ns,
        slow_tps: 1e9 / slow_ns,
        fast_mips: insns as f64 * 1e3 / fast_ns,
        slow_mips: insns as f64 * 1e3 / slow_ns,
        speedup: slow_ns / fast_ns,
    };
    println!(
        "exec_throughput/{}: fast {:.2} trials/s ({:.1} MIPS), \
         slow {:.2} trials/s ({:.1} MIPS), speedup {:.2}x",
        r.name, r.fast_tps, r.fast_mips, r.slow_tps, r.slow_mips, r.speedup
    );
    r
}

fn bench_exec_throughput(c: &mut Criterion) {
    let results: Vec<AppResult> = AppKind::ALL.iter().map(|&k| measure_app(c, k)).collect();

    let geomean =
        (results.iter().map(|r| r.speedup.ln()).sum::<f64>() / results.len() as f64).exp();
    println!(
        "exec_throughput: geomean speedup {geomean:.2}x over {} apps",
        results.len()
    );

    // Wavetoy stays the headline entry (the PR 4 schema CI parses);
    // the sweep lands under "apps".
    let w = &results[0];
    assert_eq!(w.name, "wavetoy", "wavetoy must lead AppKind::ALL");
    let mut json = format!(
        "{{\n  \"bench\": \"exec_throughput\",\n  \"app\": \"wavetoy-tiny\",\n  \
         \"insns_per_trial\": {},\n  \
         \"fastpath_trials_per_sec\": {:.3},\n  \
         \"no_fastpath_trials_per_sec\": {:.3},\n  \
         \"fastpath_mips\": {:.3},\n  \
         \"no_fastpath_mips\": {:.3},\n  \
         \"speedup\": {:.3},\n  \
         \"geomean_speedup\": {geomean:.3},\n  \
         \"threshold_speedup\": 4.0,\n  \"apps\": [\n",
        w.insns, w.fast_tps, w.slow_tps, w.fast_mips, w.slow_mips, w.speedup
    );
    for (i, r) in results.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"app\": \"{}-tiny\", \"insns_per_trial\": {}, \
             \"fastpath_trials_per_sec\": {:.3}, \"no_fastpath_trials_per_sec\": {:.3}, \
             \"fastpath_mips\": {:.3}, \"no_fastpath_mips\": {:.3}, \"speedup\": {:.3}}}{}",
            r.name,
            r.insns,
            r.fast_tps,
            r.slow_tps,
            r.fast_mips,
            r.slow_mips,
            r.speedup,
            if i + 1 < results.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_exec.json");
    std::fs::write(path, json).expect("write BENCH_exec.json");
    println!("wrote {path}");
}

criterion_group!(benches, bench_exec_throughput);
criterion_main!(benches);
