//! Per-layer probes for the traced run.
//!
//! Each probe calls one layer's public entry point directly from the
//! benchmark, under a span, with the configuration the campaign engine
//! uses for the same spec. Nothing here hooks into the program: these
//! are the same calls a campaign makes during set-up, repeated outside
//! it so their cost can be attributed to a crate.

use crate::sink::Done;
use crate::spans::{SpanId, Spans};
use crate::stats::median;
use fl_apps::{App, AppParams};
use fl_inject::{CampaignSpec, Dictionaries, SpecMode};
use fl_mpi::{MpiWorld, WorldConfig, WorldExit};
use fl_snap::EpochCache;
use std::time::Instant;

/// What the probes of one spec's application measured.
pub struct AppProbe {
    pub compile_ms: f64,
    pub golden_ms: f64,
    pub dict_build_ms: f64,
    pub predecode_ms: f64,
    pub epoch_build_ms: f64,
    pub epochs: u64,
    pub restore_us: f64,
    /// Fault-free run with the fast path, `(insns, seconds)`.
    pub fast: (u64, f64),
    /// Fault-free run on the per-instruction interpreter.
    pub interp: (u64, f64),
    pub rounds: u64,
    pub msgs: u64,
    pub header_bytes: u64,
    pub payload_bytes: u64,
    /// The epoch cache, kept to attribute forked trials (`None` when
    /// the spec runs every trial cold).
    pub cache: Option<EpochCache>,
}

/// The world configuration the engine runs a spec's trials under: the
/// app's own configuration plus the spec's recording and fast-path
/// knobs, with the engine's hang budget.
fn trial_config(app: &App, spec: &CampaignSpec, golden_insns: &[u64]) -> WorldConfig {
    let max = golden_insns.iter().copied().max().unwrap_or(0);
    let budget = (max as f64 * spec.campaign.budget_factor) as u64 + 2_000_000;
    let mut cfg = app.world_config(budget);
    cfg.machine.obs_capacity = spec.campaign.obs_capacity;
    cfg.machine.fastpath = spec.campaign.fastpath;
    cfg
}

fn insns_of(w: &MpiWorld) -> u64 {
    (0..w.nranks()).map(|r| w.machine(r).counters.insns).sum()
}

/// Probe every layer a campaign of `spec` sets up, under `parent`.
pub fn probe(
    spec: &CampaignSpec,
    spans: &mut Spans,
    parent: Option<SpanId>,
    round: usize,
) -> Result<AppProbe, String> {
    let kind = spec.app;
    let params = if spec.tiny {
        AppParams::tiny(kind)
    } else {
        AppParams::default_for(kind)
    };
    let (app, compile_s) = spans.time("App::build", "fl-lang", parent, round, || {
        App::build(kind, params)
    });
    let (golden, golden_s) = spans.time("App::golden", "fl-apps", parent, round, || {
        app.golden(2_000_000_000)
    });
    let (_dicts, dict_s) = spans.time("Dictionaries::build", "fl-inject", parent, round, || {
        Dictionaries::build(&app)
    });
    let (code, predecode_s) = spans.time(
        "ProgramImage::pre_decode",
        "fl-machine",
        parent,
        round,
        || app.image.pre_decode(),
    );
    let cfg = trial_config(&app, spec, &golden.insns);

    // The engine forks only plain campaigns of deterministic apps, and
    // only with epochs on.
    let forks = spec.mode == SpecMode::Campaign && spec.campaign.epoch_rounds > 0 && !cfg.nondet;
    let (cache, epoch_s) = if forks {
        let (c, s) = spans.time(
            "EpochCache::build_with_code",
            "fl-snap",
            parent,
            round,
            || {
                EpochCache::build_with_code(
                    &app.image,
                    cfg,
                    spec.campaign.epoch_rounds,
                    Some(&code),
                )
            },
        );
        (Some(c), s)
    } else {
        (None, 0.0)
    };
    let mut restore_us = Vec::new();
    if let Some(c) = &cache {
        for e in c.epochs() {
            let start = Instant::now();
            let w = e.snap.restore();
            let end = Instant::now();
            drop(w);
            spans.record(
                "Epoch.snap.restore",
                "fl-snap",
                start,
                end,
                parent,
                round,
                None,
            );
            restore_us.push((end - start).as_secs_f64() * 1e6);
        }
    }

    // Fault-free runs: the fast path against a fresh shared store, round
    // by round, then the interpreter alone.
    let fresh = app.image.pre_decode();
    let start = Instant::now();
    let mut w = MpiWorld::new_with_code(&app.image, cfg, Some(&fresh));
    let exit = loop {
        if let Some(e) = w.run_round() {
            break e;
        }
    };
    let end = Instant::now();
    spans.record(
        "MpiWorld::run_round (fast)",
        "fl-mpi",
        start,
        end,
        parent,
        round,
        None,
    );
    if exit != WorldExit::Clean {
        return Err(format!("{}: fault-free run ended {exit:?}", kind.name()));
    }
    let fast = (insns_of(&w), (end - start).as_secs_f64());
    let rounds = w.round();
    let (mut msgs, mut header_bytes, mut payload_bytes) = (0, 0, 0);
    for r in 0..w.nranks() {
        let p = w.profile(r);
        msgs += p.control_msgs + p.data_msgs;
        header_bytes += p.header_bytes;
        payload_bytes += p.payload_bytes;
    }
    drop(w);

    let mut slow = cfg;
    slow.machine.fastpath = false;
    let ((exit, interp_insns), interp_s) = spans.time(
        "MpiWorld::run (interpreter)",
        "fl-machine",
        parent,
        round,
        || {
            let mut w = MpiWorld::new(&app.image, slow);
            let exit = w.run();
            (exit, insns_of(&w))
        },
    );
    if exit != WorldExit::Clean {
        return Err(format!("{}: interpreter run ended {exit:?}", kind.name()));
    }

    Ok(AppProbe {
        compile_ms: compile_s * 1e3,
        golden_ms: golden_s * 1e3,
        dict_build_ms: dict_s * 1e3,
        predecode_ms: predecode_s * 1e3,
        epoch_build_ms: epoch_s * 1e3,
        epochs: cache.as_ref().map_or(0, |c| c.len() as u64),
        restore_us: median(&restore_us),
        fast,
        interp: (interp_insns, interp_s),
        rounds,
        msgs,
        header_bytes,
        payload_bytes,
        cache,
    })
}

/// The injection point a plain-campaign record names: `rank R t=T: …`
/// for register and memory faults, `rank R recv byte B bit b` for
/// message faults.
enum Point {
    Insns(u16, u64),
    Recv(u16, u64),
}

fn parse_point(detail: &str) -> Option<Point> {
    let rest = detail.strip_prefix("rank ")?;
    let (rank, rest) = rest.split_once(' ')?;
    let rank: u16 = rank.parse().ok()?;
    if let Some(t) = rest.strip_prefix("t=") {
        let (t, _) = t.split_once(':')?;
        return Some(Point::Insns(rank, t.parse().ok()?));
    }
    let b = rest.strip_prefix("recv byte ")?;
    let (b, _) = b.split_once(' ')?;
    Some(Point::Recv(rank, b.parse().ok()?))
}

/// Trials that restored a checkpoint past round 0, and the guest
/// instructions those restores skipped, by looking each record's
/// injection point up in the epoch cache the way the engine does.
pub fn fork_attribution(cache: Option<&EpochCache>, trials: &[Done]) -> Result<(u64, u64), String> {
    let Some(cache) = cache else {
        return Ok((0, 0));
    };
    let (mut forked, mut skipped) = (0, 0);
    for t in trials {
        let point = parse_point(&t.detail)
            .ok_or_else(|| format!("unrecognised injection point in `{}`", t.detail))?;
        let epoch = match point {
            Point::Insns(r, at) => cache.best_for_insns(r, at),
            Point::Recv(r, at) => cache.best_for_recv(r, at),
        };
        if let Some(e) = epoch.filter(|e| e.round > 0) {
            forked += 1;
            skipped += (0..e.snap.nranks()).map(|r| e.rank_insns(r)).sum::<u64>();
        }
    }
    Ok((forked, skipped))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injection_points_parse() {
        assert!(matches!(
            parse_point("rank 2 t=1234: EAX bit 3"),
            Some(Point::Insns(2, 1234))
        ));
        assert!(matches!(
            parse_point("rank 0 recv byte 77 bit 5"),
            Some(Point::Recv(0, 77))
        ));
        assert!(parse_point("crc/net-drop: rank 1").is_none());
    }
}
