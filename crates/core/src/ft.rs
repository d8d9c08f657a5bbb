//! Process-failure recovery campaigns: rank kills under every fl-ft
//! discipline, and replica voting against message corruption.
//!
//! The guarded campaigns ([`crate::guarded`]) answer "does channel-level
//! detection catch the paper's faults?"; this module asks the follow-up
//! the paper's §7 conclusion points at — what happens when the fault is
//! not a flipped bit but a *lost process*. Every kill trial draws one
//! [`RankKill`] from the trial seed and runs it four ways from the same
//! draw: bare (the victim strands its peers), detector-only shrink
//! recovery, and buddy-checkpoint respawn recovery. Replication trials
//! pair each §3.3 message fault with an N-replica voted run to measure
//! how often a single corrupt replica is outvoted and masked.

use crate::campaign::{
    draw_fault, trial_budget, trial_seed, trial_world_config, CampaignConfig, Dictionaries,
};
use crate::engine::{run_pool, EngineControl, EngineSink};
use crate::matrix::shrunken_output;
use crate::outcome::{classify, percent, Manifestation, Tally};
use crate::target::TargetClass;
use fl_apps::{App, AppKind, Golden};
use fl_ft::{run_app, run_replicated, run_respawn, run_shrink, FtMode, FtPolicy, RankKill};
use fl_mpi::{MpiWorld, WorldExit};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// Draw the kill for trial seed `s`: victim rank, a firing clock inside
/// its golden block count (so the kill always lands mid-run), and the
/// kill flavour. Recomputable from the campaign coordinates, like every
/// other fault draw.
pub fn draw_kill(golden: &Golden, s: u64, nranks: u16) -> (RankKill, String) {
    let mut rng = StdRng::seed_from_u64(s);
    let rank = rng.gen_range(0..nranks);
    let at_blocks = rng.gen_range(1..golden.blocks[rank as usize].max(2));
    let wedge = rng.gen_range(0..2u32) == 1;
    let kill = RankKill {
        rank,
        at_blocks,
        wedge,
    };
    let detail = format!(
        "{} rank {rank} @ block {at_blocks}",
        if wedge { "wedge" } else { "kill" }
    );
    (kill, detail)
}

/// One rank-kill trial: the identical kill under no recovery, shrink
/// recovery, and respawn recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FtKillTrial {
    /// Human-readable kill point (same draw in all three runs).
    pub detail: String,
    /// Outcome with no detector: the §5.1 classification of the strand.
    pub baseline: Manifestation,
    /// Outcome under detector + shrink (checked against the
    /// survivor-count golden — the apps are weak-scaled).
    pub shrink: Manifestation,
    /// Outcome under detector + buddy-checkpoint respawn (checked
    /// against the original golden).
    pub respawn: Manifestation,
    /// Respawns the respawn run performed.
    pub respawns: u32,
    /// Outcome in ulfm mode, where the *application* owns recovery
    /// (checked against the original golden — an app that shrinks must
    /// still solve the same global problem). Apps without fl-ulfm code
    /// do not recover here; that asymmetry is the experiment.
    pub app: Manifestation,
    /// Shrinks the application itself performed in the ulfm run.
    pub app_shrinks: u32,
}

impl FtKillTrial {
    /// Did shrink convert a baseline error into a recovery?
    pub fn shrink_recovered(&self) -> bool {
        self.baseline.is_error() && self.shrink == Manifestation::Recovered
    }

    /// Did respawn convert a baseline error into a recovery?
    pub fn respawn_recovered(&self) -> bool {
        self.baseline.is_error() && self.respawn == Manifestation::Recovered
    }

    /// Did the application itself convert a baseline error into a
    /// recovery through the fl-ulfm API?
    pub fn app_recovered(&self) -> bool {
        self.baseline.is_error() && self.app == Manifestation::RecoveredByApp
    }
}

/// One replication trial: the identical message fault in a lone world
/// and in one replica of a voted set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FtReplicaTrial {
    /// Human-readable fault point.
    pub detail: String,
    /// Outcome of the unreplicated run.
    pub baseline: Manifestation,
    /// Outcome of the voted run.
    pub replicated: Manifestation,
    /// Replicas voted out.
    pub votes: u32,
}

impl FtReplicaTrial {
    /// Did the vote mask a baseline error?
    pub fn masked(&self) -> bool {
        self.baseline.is_error() && self.replicated == Manifestation::MaskedByReplica
    }
}

/// A full fault-tolerance campaign for one application.
#[derive(Debug, Clone)]
pub struct FtResult {
    /// Which application.
    pub app: AppKind,
    /// The recovery configuration every run used.
    pub policy: FtPolicy,
    /// Paired rank-kill trials, in trial order.
    pub kills: Vec<FtKillTrial>,
    /// Paired replication trials, in trial order.
    pub replicas: Vec<FtReplicaTrial>,
    /// The fault-free reference run.
    pub golden: Golden,
}

impl FtResult {
    /// Kill trials whose baseline manifested an error (the recovery
    /// denominator; a kill always fires, so normally all of them).
    pub fn kill_errors(&self) -> u32 {
        self.kills.iter().filter(|t| t.baseline.is_error()).count() as u32
    }

    /// Baseline kill errors shrink converted to `Recovered`, in percent.
    pub fn shrink_recovery_percent(&self) -> f64 {
        percent(
            self.kills.iter().filter(|t| t.shrink_recovered()).count() as u64,
            self.kill_errors().into(),
        )
    }

    /// Baseline kill errors respawn converted to `Recovered`, in percent.
    pub fn respawn_recovery_percent(&self) -> f64 {
        percent(
            self.kills.iter().filter(|t| t.respawn_recovered()).count() as u64,
            self.kill_errors().into(),
        )
    }

    /// Baseline kill errors the application converted to
    /// `RecoveredByApp`, in percent.
    pub fn app_recovery_percent(&self) -> f64 {
        percent(
            self.kills.iter().filter(|t| t.app_recovered()).count() as u64,
            self.kill_errors().into(),
        )
    }

    /// Replication trials whose baseline manifested an error.
    pub fn replica_errors(&self) -> u32 {
        self.replicas
            .iter()
            .filter(|t| t.baseline.is_error())
            .count() as u32
    }

    /// Baseline message-fault errors the vote masked, in percent.
    pub fn masked_percent(&self) -> f64 {
        percent(
            self.replicas.iter().filter(|t| t.masked()).count() as u64,
            self.replica_errors().into(),
        )
    }

    /// Outcome tallies of one column of the campaign.
    pub fn tally(&self, pick: impl Fn(&FtKillTrial) -> Manifestation) -> Tally {
        let mut t = Tally::default();
        for k in &self.kills {
            t.record(pick(k));
        }
        t
    }
}

/// Classify a run under a recovery discipline. A clean exit after the
/// discipline acted — `acted` is the class that earns: `Recovered` for
/// shrink and respawn, `RecoveredByApp` for app-owned (fl-ulfm)
/// recovery, `MaskedByReplica` for a replica vote — counts only if the
/// output matches `expected` (the golden output, or the shrunken one
/// when a shrink left the survivors solving a smaller problem), and is
/// `Incorrect` otherwise. An untouched or unclean run classifies as
/// usual against `golden_output`.
pub fn classify_recovery(
    exit: &WorldExit,
    output: &[u8],
    acted: Option<Manifestation>,
    expected: &[u8],
    golden_output: &[u8],
) -> Manifestation {
    match (exit, acted) {
        (WorldExit::Clean, Some(m)) if output == expected => m,
        (WorldExit::Clean, Some(_)) => Manifestation::Incorrect,
        _ => classify(exit, output, golden_output),
    }
}

/// One ft trial's slot: the two trial families share the engine pool's
/// flattened slot space (kills are group 0, replicas group 1).
enum FtTrial {
    Kill(FtKillTrial),
    Replica(FtReplicaTrial),
}

/// Ft campaign on the shared engine pool: kills and replication trials
/// are one flattened slot space, stolen across workers; pause/stop via
/// `control`, progress through `sink`. `kill_trials` rank kills are each
/// run bare + shrink + respawn + app-owned; `replica_trials` message
/// faults are each run bare + replicated. All runs are cold — recovery
/// owns its own checkpoints. Returns `None` when stopped before every
/// trial completed.
pub fn run_ft_engine(
    app: &App,
    cfg: &CampaignConfig,
    policy: &FtPolicy,
    kill_trials: u32,
    replica_trials: u32,
    sink: &dyn EngineSink,
    control: &EngineControl,
) -> Option<FtResult> {
    let golden = app.golden(2_000_000_000);
    let budget = trial_budget(&golden, cfg);
    let dicts = Dictionaries::build(app);

    // The survivor-count reference: the same image run cold at one fewer
    // rank (the apps are weak-scaled, so this is a different answer).
    let shrunken_output = shrunken_output(app, budget, cfg.fastpath);

    // Kill trials are class position 0 of the seed space, replication
    // trials position 1 — the same coordinates the old per-family loops
    // used, so records are unchanged.
    let run_kill = |k: u32| {
        let seed = trial_seed(cfg.seed, 0, k);
        let (kill, detail) = draw_kill(&golden, seed, app.params.nranks);
        let mut wcfg = trial_world_config(app, budget, 0, cfg.fastpath);
        wcfg.seed = seed;

        // The baseline strand: no detector, no app-visible failures.
        // (A no-op for the paper's three apps; jacobi3d's own config
        // asks for ulfm, which would let it recover out of the
        // baseline column.)
        let mut bare_cfg = wcfg;
        bare_cfg.ulfm = false;
        bare_cfg.ft.enabled = false;
        let mut bare = MpiWorld::new(&app.image, bare_cfg);
        bare.set_rank_kill(kill);
        let bare_exit = bare.run();
        let baseline = classify(&bare_exit, &app.comparable_output(&bare), &golden.output);

        let (sw, sr) = run_shrink(&app.image, wcfg, policy, |w| w.set_rank_kill(kill));
        let shrink = classify_recovery(
            &sr.exit,
            &app.comparable_output(&sw),
            sr.intervened().then_some(Manifestation::Recovered),
            &shrunken_output,
            &golden.output,
        );

        let (rw, rr) = run_respawn(&app.image, wcfg, policy, |w| w.set_rank_kill(kill));
        let respawn = classify_recovery(
            &rr.exit,
            &app.comparable_output(&rw),
            rr.intervened().then_some(Manifestation::Recovered),
            &golden.output,
            &golden.output,
        );

        let (aw, ar) = run_app(&app.image, wcfg, policy, |w| w.set_rank_kill(kill));
        let app_m = classify_recovery(
            &ar.exit,
            &app.comparable_output(&aw),
            (ar.shrinks > 0).then_some(Manifestation::RecoveredByApp),
            &golden.output,
            &golden.output,
        );

        FtKillTrial {
            detail,
            baseline,
            shrink,
            respawn,
            respawns: rr.respawns,
            app: app_m,
            app_shrinks: ar.shrinks,
        }
    };
    let run_replica = |k: u32| {
        let seed = trial_seed(cfg.seed, 1, k);
        let mut wcfg = trial_world_config(app, budget, 0, cfg.fastpath);
        wcfg.seed = seed;

        let drawn = draw_fault(
            &golden,
            &dicts,
            TargetClass::Message,
            seed,
            app.params.nranks,
        );
        let detail = drawn.detail.clone();
        let mut bare = MpiWorld::new(&app.image, wcfg);
        drawn.arm(&mut bare);
        let bare_exit = bare.run();
        let baseline = classify(&bare_exit, &app.comparable_output(&bare), &golden.output);

        let (vw, vr) = run_replicated(
            &app.image,
            wcfg,
            policy,
            |replica, w| {
                if replica == 0 {
                    // Re-draw the identical fault for the one corrupt
                    // replica (arm() consumes it).
                    draw_fault(
                        &golden,
                        &dicts,
                        TargetClass::Message,
                        seed,
                        app.params.nranks,
                    )
                    .arm(w);
                }
            },
            |w| app.comparable_output(w),
        );
        let replicated = classify_recovery(
            &vr.exit,
            &app.comparable_output(&vw),
            (vr.votes > 0).then_some(Manifestation::MaskedByReplica),
            &golden.output,
            &golden.output,
        );

        FtReplicaTrial {
            detail,
            baseline,
            replicated,
            votes: vr.votes,
        }
    };

    let counts = [kill_trials, replica_trials];
    let (mut slots, progress) = run_pool(&counts, cfg.threads, control, sink, 0, |g, k| {
        if g == 0 {
            FtTrial::Kill(run_kill(k))
        } else {
            FtTrial::Replica(run_replica(k))
        }
    });
    if !progress.complete() {
        return None;
    }
    let replicas = slots
        .pop()
        .unwrap()
        .into_iter()
        .map(|r| match r.expect("every replica trial slot filled") {
            FtTrial::Replica(t) => t,
            FtTrial::Kill(_) => unreachable!("group 1 holds replication trials"),
        })
        .collect();
    let kills = slots
        .pop()
        .unwrap()
        .into_iter()
        .map(|r| match r.expect("every kill trial slot filled") {
            FtTrial::Kill(t) => t,
            FtTrial::Replica(_) => unreachable!("group 0 holds kill trials"),
        })
        .collect();

    Some(FtResult {
        app: app.kind,
        policy: *policy,
        kills,
        replicas,
        golden,
    })
}

/// Render an ft campaign as a text table: baseline vs recovery outcome
/// counts for the kill trials, plus the replication masking summary.
pub fn render_ft(r: &FtResult, title: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "detector: probe every {} rounds, suspect after {}; buddy line every {} rounds; {} replicas",
        r.policy.detector.probe_rounds,
        r.policy.detector.suspect_rounds,
        r.policy.buddy_rounds,
        r.policy.replicas
    );
    let _ = writeln!(
        out,
        "{:<10} {:>6} | {:>8} {:>9} | {:>9} {:>10} {:>7}",
        "Trials", "Kills", "BaseErr", "RankLost", "Shrink(%)", "Respawn(%)", "App(%)"
    );
    let _ = writeln!(out, "{}", "-".repeat(70));
    let base = r.tally(|t| t.baseline);
    let _ = writeln!(
        out,
        "{:<10} {:>6} | {:>8} {:>9} | {:>9.1} {:>10.1} {:>7.1}",
        "kill-rank",
        r.kills.len(),
        base.errors(),
        r.tally(|t| t.shrink).count(Manifestation::RankLost)
            + r.tally(|t| t.respawn).count(Manifestation::RankLost),
        r.shrink_recovery_percent(),
        r.respawn_recovery_percent(),
        r.app_recovery_percent(),
    );
    let _ = writeln!(out, "{}", "-".repeat(70));
    let _ = writeln!(
        out,
        "replication: {} message faults, {} baseline errors, {:.1}% masked by vote",
        r.replicas.len(),
        r.replica_errors(),
        r.masked_percent(),
    );
    out
}

/// Render the single-discipline focus view of an ft campaign (the CLI's
/// `ft --mode M`): one [`FtMode`] column's outcome tally and recovery
/// rate, instead of the full side-by-side table.
pub fn render_ft_focus(r: &FtResult, mode: FtMode) -> String {
    let (tally, trials, recovered) = match mode {
        FtMode::Baseline => (r.tally(|t| t.baseline), r.kills.len(), None),
        FtMode::Shrink => (
            r.tally(|t| t.shrink),
            r.kills.len(),
            Some(("recovered by harness shrink", r.shrink_recovery_percent())),
        ),
        FtMode::Respawn => (
            r.tally(|t| t.respawn),
            r.kills.len(),
            Some(("recovered by harness respawn", r.respawn_recovery_percent())),
        ),
        FtMode::App => (
            r.tally(|t| t.app),
            r.kills.len(),
            Some((
                "recovered by the application (fl-ulfm)",
                r.app_recovery_percent(),
            )),
        ),
        FtMode::Replicated => {
            let mut t = Tally::default();
            for x in &r.replicas {
                t.record(x.replicated);
            }
            (
                t,
                r.replicas.len(),
                Some(("masked by replica vote", r.masked_percent())),
            )
        }
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} / mode {mode}: {trials} {} trials",
        r.app.name(),
        if mode == FtMode::Replicated {
            "message-fault"
        } else {
            "rank-kill"
        }
    );
    for m in Manifestation::ALL {
        let n = tally.count(m);
        if n > 0 {
            let _ = writeln!(out, "  {m:<22} {n:>5}");
        }
    }
    if let Some((what, pct)) = recovered {
        let _ = writeln!(out, "  {what}: {pct:.1}%");
    }
    out
}

/// Render an ft campaign as TSV: one row per recovery mode with full
/// outcome counts.
pub fn render_ft_tsv(r: &FtResult) -> String {
    let mut out = String::from("mode\ttrials");
    for m in Manifestation::ALL {
        let _ = write!(out, "\t{}", m.slug());
    }
    out.push_str("\trecovery_pct\n");
    let rows: [(&str, Tally, f64); 4] = [
        ("baseline", r.tally(|t| t.baseline), 0.0),
        ("shrink", r.tally(|t| t.shrink), r.shrink_recovery_percent()),
        (
            "respawn",
            r.tally(|t| t.respawn),
            r.respawn_recovery_percent(),
        ),
        ("app", r.tally(|t| t.app), r.app_recovery_percent()),
    ];
    for (mode, tally, pct) in rows {
        let _ = write!(out, "{mode}\t{}", tally.executions);
        for m in Manifestation::ALL {
            let _ = write!(out, "\t{}", tally.count(m));
        }
        let _ = writeln!(out, "\t{pct:.2}");
    }
    let mut rep_base = Tally::default();
    let mut rep_voted = Tally::default();
    for t in &r.replicas {
        rep_base.record(t.baseline);
        rep_voted.record(t.replicated);
    }
    for (mode, tally, pct) in [
        ("replica-baseline", rep_base, 0.0),
        ("replicated", rep_voted, r.masked_percent()),
    ] {
        let _ = write!(out, "{mode}\t{}", tally.executions);
        for m in Manifestation::ALL {
            let _ = write!(out, "\t{}", tally.count(m));
        }
        let _ = writeln!(out, "\t{pct:.2}");
    }
    out
}

/// Serialize an ft campaign as JSONL: one object per trial (kill trials
/// first, then replication trials), carrying every paired outcome.
pub fn ft_jsonl(r: &FtResult) -> String {
    let mut out = String::new();
    for (k, t) in r.kills.iter().enumerate() {
        let _ = writeln!(
            out,
            "{{\"app\":\"{}\",\"kind\":\"kill\",\"trial\":{k},\"detail\":\"{}\",\"baseline\":\"{}\",\"shrink\":\"{}\",\"respawn\":\"{}\",\"respawns\":{},\"app_mode\":\"{}\",\"app_shrinks\":{},\"shrink_recovered\":{},\"respawn_recovered\":{},\"app_recovered\":{}}}",
            r.app.name(),
            t.detail,
            t.baseline.slug(),
            t.shrink.slug(),
            t.respawn.slug(),
            t.respawns,
            t.app.slug(),
            t.app_shrinks,
            t.shrink_recovered(),
            t.respawn_recovered(),
            t.app_recovered(),
        );
    }
    for (k, t) in r.replicas.iter().enumerate() {
        let _ = writeln!(
            out,
            "{{\"app\":\"{}\",\"kind\":\"replica\",\"trial\":{k},\"detail\":\"{}\",\"baseline\":\"{}\",\"replicated\":\"{}\",\"votes\":{},\"masked\":{}}}",
            r.app.name(),
            t.detail,
            t.baseline.slug(),
            t.replicated.slug(),
            t.votes,
            t.masked(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::NullSink;
    use fl_apps::AppParams;

    fn ft(kind: AppKind, kills: u32, reps: u32, seed: u64) -> FtResult {
        let app = App::build(kind, AppParams::tiny(kind));
        let cfg = CampaignConfig {
            seed,
            ..Default::default()
        };
        let policy = FtPolicy::default();
        run_ft_engine(
            &app,
            &cfg,
            &policy,
            kills,
            reps,
            &NullSink,
            &EngineControl::new(),
        )
        .unwrap()
    }

    #[test]
    fn kills_always_manifest_and_recover() {
        let r = ft(AppKind::Wavetoy, 8, 0, 0xF7);
        // A kill drawn inside the victim's lifetime always fires and,
        // without a detector, always strands the world.
        assert_eq!(r.kill_errors(), 8, "{:?}", r.kills);
        assert!(r.shrink_recovery_percent() >= 90.0, "shrink: {:?}", r.kills);
        assert!(
            r.respawn_recovery_percent() >= 90.0,
            "respawn: {:?}",
            r.kills
        );
    }

    #[test]
    fn replication_masks_manifesting_message_faults() {
        let r = ft(AppKind::Wavetoy, 0, 10, 0xF8);
        assert!(r.replica_errors() > 0, "{:?}", r.replicas);
        assert!(r.masked_percent() >= 90.0, "{:?}", r.replicas);
        // Masked trials actually voted someone out.
        assert!(r
            .replicas
            .iter()
            .filter(|t| t.masked())
            .all(|t| t.votes > 0));
    }

    #[test]
    fn jacobi3d_recovers_by_itself_in_app_mode() {
        // The fl-ulfm contract: the app that carries recovery code
        // survives the kill on its own; the paper's apps do not.
        let r = ft(AppKind::Jacobi3d, 6, 0, 0xA1);
        assert_eq!(r.kill_errors(), 6, "{:?}", r.kills);
        assert!(r.app_recovery_percent() >= 90.0, "{:?}", r.kills);
        let w = ft(AppKind::Wavetoy, 3, 0, 0xA2);
        assert_eq!(w.app_recovery_percent(), 0.0, "{:?}", w.kills);
    }

    #[test]
    fn ft_campaigns_are_reproducible() {
        let a = ft(AppKind::Wavetoy, 4, 4, 9);
        let b = ft(AppKind::Wavetoy, 4, 4, 9);
        assert_eq!(a.kills, b.kills);
        assert_eq!(a.replicas, b.replicas);
    }

    #[test]
    fn focus_renderer_covers_every_discipline() {
        let r = ft(AppKind::Wavetoy, 3, 3, 13);
        for mode in FtMode::ALL {
            let text = render_ft_focus(&r, mode);
            assert!(text.starts_with("wavetoy / mode "), "{text}");
            assert!(text.contains(mode.label()), "{text}");
        }
        assert!(render_ft_focus(&r, FtMode::Shrink).contains("harness shrink"));
        assert!(render_ft_focus(&r, FtMode::App).contains("fl-ulfm"));
        assert!(render_ft_focus(&r, FtMode::Replicated).contains("message-fault"));
    }

    #[test]
    fn renderers_cover_every_mode() {
        let r = ft(AppKind::Wavetoy, 4, 4, 11);
        let table = render_ft(&r, "ft demo");
        assert!(table.contains("kill-rank"));
        assert!(table.contains("replication:"));
        let tsv = render_ft_tsv(&r);
        assert_eq!(tsv.lines().count(), 7, "{tsv}");
        assert!(tsv.starts_with("mode\ttrials\tcorrect"));
        let jsonl = ft_jsonl(&r);
        assert_eq!(jsonl.lines().count(), 8);
        assert!(jsonl
            .lines()
            .all(|l| l.starts_with('{') && l.ends_with('}')));
    }
}
