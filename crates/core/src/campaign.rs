//! Campaign execution: thousands of independent injection experiments,
//! sampled per §4.3 and run in parallel across host threads.
//!
//! One *trial* = one application execution with exactly one injected
//! fault: a (target, bit, rank, time) point drawn uniformly from the
//! fault space, exactly the three-axis sampling of §4.3. The trial's
//! world is torn down afterwards — the paper rebooted to a clean state
//! between injections; we get the same isolation by constructing fresh
//! machines.

use crate::obs::{CampaignMetrics, TrialTrace};
use crate::outcome::{classify, Manifestation, Tally};
use crate::target::{
    fp_registers, regular_registers, resolve_heap_target, resolve_stack_target, FaultDictionary,
    TargetClass,
};
use fl_apps::{App, AppKind, Golden};
use fl_machine::{ExecStats, SharedCode};
use fl_mpi::{MessageFault, MpiWorld, PendingInjection, WorldConfig};
use fl_snap::EpochCache;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Campaign parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignConfig {
    /// Injections per target class (the paper used 400–500 for most
    /// regions, up to 2000 for messages).
    pub injections: u32,
    /// Master seed; trial k uses `seed + k` so campaigns are reproducible
    /// and trials independent.
    pub seed: u64,
    /// Hang bound: per-rank instruction budget = `budget_factor` × the
    /// longest golden rank (the paper's wait-past-expected-completion).
    pub budget_factor: f64,
    /// Worker threads (0 = all available).
    pub threads: usize,
    /// Checkpoint the golden world every this many scheduler rounds and
    /// start each trial by forking from the latest checkpoint before its
    /// injection point instead of re-executing the fault-free prefix
    /// (0 = run every trial cold). Only deterministic applications fork;
    /// moldyn re-seeds its schedule per trial (§4.2.2) and always runs
    /// cold regardless of this setting.
    pub epoch_rounds: u32,
    /// Per-rank `fl-obs` event-ring capacity. 0 (the default) disables
    /// recording entirely; nonzero makes every trial record structured
    /// events and the campaign aggregate [`CampaignMetrics`]. The same
    /// capacity is applied to the golden prefix the epoch cache
    /// replays, so forked and cold trials emit bit-identical streams.
    pub obs_capacity: u32,
    /// Run trial machines with the execution fast path (software TLB +
    /// basic-block dispatch) enabled. On by default; turning it off
    /// forces every machine onto the slow per-instruction path, which
    /// is observably identical but much slower — useful only for
    /// benchmarking the fast path and for divergence hunting.
    pub fastpath: bool,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            injections: 500,
            seed: 0xFA_17,
            budget_factor: 3.0,
            threads: 0,
            epoch_rounds: 16,
            obs_capacity: 0,
            fastpath: true,
        }
    }
}

/// One trial's record: what was hit and what happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialRecord {
    /// Target class.
    pub class: TargetClass,
    /// Human-readable description of the fault point (register + bit,
    /// address, or message offset).
    pub detail: String,
    /// The observed outcome.
    pub outcome: Manifestation,
}

/// Results for one class (one row of Tables 2–4).
#[derive(Debug, Clone)]
pub struct ClassResult {
    /// The injected class.
    pub class: TargetClass,
    /// Aggregate counts.
    pub tally: Tally,
    /// Per-trial records (register analysis, §6.1.1).
    pub trials: Vec<TrialRecord>,
}

/// A full campaign's results for one application.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Which application.
    pub app: AppKind,
    /// One entry per requested class, in request order.
    pub classes: Vec<ClassResult>,
    /// The fault-free reference run.
    pub golden: Golden,
    /// Event-stream aggregates, present iff the campaign ran with
    /// `obs_capacity > 0`.
    pub metrics: Option<CampaignMetrics>,
    /// Guest instructions retired across every trial (the sum of each
    /// rank's final instruction counter). Forked trials report the same
    /// count as their cold equivalents — restored counters include the
    /// replayed prefix — so the figure is a property of the campaign,
    /// not of the execution strategy. 0 for model campaigns, which do
    /// not collect counters.
    pub insns_total: u64,
    /// Wall-clock duration of the trial-execution phase, in
    /// nanoseconds (excludes the golden run and dictionary builds).
    pub wall_nanos: u64,
    /// Decoded-code cache effectiveness summed over every trial's
    /// machines. Telemetry, like `wall_nanos`: hit/miss ratios depend
    /// on fork warmth and worker scheduling, so they are reported in
    /// the throughput footer and telemetry rows but never enter
    /// records, metrics rows or any byte-identity contract. Zero for
    /// model campaigns.
    pub exec_stats: ExecStats,
}

impl CampaignResult {
    /// The result row for a class, if it was part of the campaign.
    pub fn class(&self, c: TargetClass) -> Option<&ClassResult> {
        self.classes.iter().find(|r| r.class == c)
    }

    /// Trials executed across all classes.
    pub fn trials_total(&self) -> u64 {
        self.classes.iter().map(|c| c.trials.len() as u64).sum()
    }

    /// Campaign instruction throughput in millions of guest
    /// instructions per wall-clock second (0 if nothing was timed).
    pub fn mips(&self) -> f64 {
        if self.wall_nanos == 0 {
            return 0.0;
        }
        self.insns_total as f64 * 1e3 / self.wall_nanos as f64
    }

    /// Campaign trial throughput in trials per wall-clock second
    /// (0 if nothing was timed).
    pub fn trials_per_sec(&self) -> f64 {
        if self.wall_nanos == 0 {
            return 0.0;
        }
        self.trials_total() as f64 * 1e9 / self.wall_nanos as f64
    }
}

/// The hang bound derived from a golden run (`budget_factor` × the
/// longest rank, plus slack for fault-lengthened paths).
pub(crate) fn trial_budget(golden: &Golden, cfg: &CampaignConfig) -> u64 {
    (*golden.insns.iter().max().unwrap() as f64 * cfg.budget_factor) as u64 + 2_000_000
}

/// The seed of trial `k` of class position `ci` — recomputable, so any
/// recorded trial can be replayed bit-exactly from its campaign
/// coordinates.
pub fn trial_seed(campaign_seed: u64, ci: usize, k: u32) -> u64 {
    campaign_seed
        .wrapping_add((ci as u64) << 32)
        .wrapping_add(k as u64)
}

/// The world configuration a trial (or the epoch cache's golden prefix)
/// runs under: the app's own configuration with the campaign's event
/// recording threaded through. Forked and cold trials must use the same
/// recording capacity or their streams could not be bit-identical.
pub(crate) fn trial_world_config(
    app: &App,
    budget: u64,
    obs_capacity: u32,
    fastpath: bool,
) -> WorldConfig {
    let mut wcfg = app.world_config(budget);
    wcfg.machine.obs_capacity = obs_capacity;
    wcfg.machine.fastpath = fastpath;
    wcfg
}

/// Sum of retired guest instructions across a world's ranks — the cost
/// every trial reports.
pub fn world_insns(w: &MpiWorld) -> u64 {
    (0..w.nranks()).map(|r| w.machine(r).counters.insns).sum()
}

/// Build the epoch snapshot cache for the campaign fast path, or `None`
/// when the configuration or the application rules forking out.
pub(crate) fn build_epochs(
    app: &App,
    cfg: &CampaignConfig,
    budget: u64,
    code: Option<&SharedCode>,
) -> Option<EpochCache> {
    if cfg.epoch_rounds == 0 {
        return None;
    }
    let wcfg = trial_world_config(app, budget, cfg.obs_capacity, cfg.fastpath);
    // Forking replays the *golden* prefix; an app with nondeterministic
    // scheduling re-draws its arrival order per trial, so its prefix is
    // not shared and every trial must run cold.
    if wcfg.nondet {
        return None;
    }
    Some(EpochCache::build_with_code(
        &app.image,
        wcfg,
        cfg.epoch_rounds,
        code,
    ))
}

/// An uncontrolled engine campaign on an already-built app — the tests'
/// shorthand for [`crate::engine::run_campaign_engine`].
#[cfg(test)]
pub(crate) fn run_campaign_impl(
    app: &App,
    classes: &[TargetClass],
    cfg: &CampaignConfig,
) -> CampaignResult {
    crate::engine::run_campaign_engine(
        app,
        classes,
        cfg,
        &crate::engine::NullSink,
        &crate::engine::EngineControl::new(),
        None,
    )
    .result
    .expect("uncontrolled engine runs always complete")
}

/// Trial replay from campaign coordinates (the [`crate::CampaignBuilder`]
/// backend). Returns the full trace; event streams are empty unless
/// `cfg.obs_capacity > 0`.
pub(crate) fn replay_trial_impl(
    app: &App,
    classes: &[TargetClass],
    cfg: &CampaignConfig,
    ci: usize,
    k: u32,
) -> TrialTrace {
    assert!(ci < classes.len(), "class index {ci} out of range");
    assert!(k < cfg.injections, "trial index {k} out of range");
    let golden = app.golden(2_000_000_000);
    let budget = trial_budget(&golden, cfg);
    let dicts = Dictionaries::build(app);
    let code = app.image.pre_decode();
    let epochs = build_epochs(app, cfg, budget, Some(&code));
    let run = run_trial_inner(
        app,
        &golden,
        &dicts,
        classes[ci],
        trial_seed(cfg.seed, ci, k),
        budget,
        epochs.as_ref(),
        cfg.obs_capacity,
        cfg.fastpath,
        Some(&code),
    );
    TrialTrace {
        record: run.record,
        rank: run.rank,
        insns: run.insns,
        streams: run.world.event_streams(),
    }
}

/// Pre-built fault dictionaries for the static regions.
pub struct Dictionaries {
    text: FaultDictionary,
    data: FaultDictionary,
    bss: FaultDictionary,
}

impl Dictionaries {
    /// Build all three static-region dictionaries for an app.
    pub fn build(app: &App) -> Dictionaries {
        Dictionaries {
            text: FaultDictionary::build(&app.image, fl_machine::Region::Text),
            data: FaultDictionary::build(&app.image, fl_machine::Region::Data),
            bss: FaultDictionary::build(&app.image, fl_machine::Region::Bss),
        }
    }

    fn get(&self, class: TargetClass) -> &FaultDictionary {
        match class {
            TargetClass::Text => &self.text,
            TargetClass::Data => &self.data,
            TargetClass::Bss => &self.bss,
            _ => unreachable!("no dictionary for {class:?}"),
        }
    }
}

/// Execute one injection experiment cold: fresh machines, full prefix
/// re-execution — the paper's reboot-between-injections isolation.
#[deprecated(note = "direct driver entry point; drive campaigns through \
            `CampaignBuilder` (or `run_spec`) and single trials through \
            `CampaignBuilder::replay`")]
pub fn run_trial(
    app: &App,
    golden: &Golden,
    dicts: &Dictionaries,
    class: TargetClass,
    trial_seed: u64,
    budget: u64,
) -> TrialRecord {
    run_trial_inner(
        app, golden, dicts, class, trial_seed, budget, None, 0, true, None,
    )
    .record
}

/// The state mutation an armed machine fault applies when it fires.
type FaultAction = Box<dyn FnMut(&mut fl_machine::Machine) + Send>;

/// A fully drawn fault, ready to arm on any world.
pub(crate) enum Fault {
    Message(MessageFault),
    Machine { at_insns: u64, action: FaultAction },
}

/// A complete fault specification drawn from a trial seed: the victim
/// rank, the armable fault, and its human-readable record detail.
pub(crate) struct DrawnFault {
    pub rank: u16,
    pub fault: Fault,
    pub detail: String,
}

impl DrawnFault {
    /// Arm the fault on `world`, consuming it (a machine fault's action
    /// is a boxed closure and cannot be cloned).
    pub fn arm(self, world: &mut MpiWorld) {
        match self.fault {
            Fault::Message(f) => world.set_message_fault(f),
            Fault::Machine { at_insns, action } => world.set_injection(PendingInjection {
                rank: self.rank,
                at_insns,
                action,
                period: None,
            }),
        }
    }
}

/// Draw a trial's complete fault specification from its seed — §4.3's
/// three-axis sampling. Baseline and guarded runs of the same trial seed
/// draw the *identical* fault (the RNG is consumed before any world
/// exists), which is what makes per-trial guard-off/guard-on coverage
/// comparison meaningful.
pub(crate) fn draw_fault(
    golden: &Golden,
    dicts: &Dictionaries,
    class: TargetClass,
    trial_seed: u64,
    nranks: u16,
) -> DrawnFault {
    let mut rng = StdRng::seed_from_u64(trial_seed);
    let rank = rng.gen_range(0..nranks);

    let (fault, detail) = match class {
        TargetClass::Message => {
            let volume = golden.recv_bytes[rank as usize].max(1);
            let off = rng.gen_range(0..volume);
            let bit = rng.gen_range(0..8u8);
            (
                Fault::Message(MessageFault {
                    rank,
                    at_recv_byte: off,
                    bit,
                }),
                format!("rank {rank} recv byte {off} bit {bit}"),
            )
        }
        _ => {
            let at_insns = rng.gen_range(1..golden.insns[rank as usize].max(2));
            let (action, detail): (FaultAction, String) = match class {
                TargetClass::RegularReg | TargetClass::FpReg => {
                    let regs = if class == TargetClass::RegularReg {
                        regular_registers()
                    } else {
                        fp_registers()
                    };
                    let reg = regs[rng.gen_range(0..regs.len())];
                    let bit = rng.gen_range(0..reg.width_bits());
                    (
                        Box::new(move |m: &mut fl_machine::Machine| {
                            m.flip_register_bit(reg, bit);
                        }),
                        format!("{reg} bit {bit}"),
                    )
                }
                TargetClass::Text | TargetClass::Data | TargetClass::Bss => {
                    let addr = dicts
                        .get(class)
                        .pick(&mut rng)
                        .expect("static region must have symbols");
                    let bit = rng.gen_range(0..8u8);
                    (
                        Box::new(move |m: &mut fl_machine::Machine| {
                            m.flip_mem_bit(addr, bit);
                        }),
                        format!("{} {addr:#010x} bit {bit}", class.label()),
                    )
                }
                TargetClass::Heap => {
                    let (r1, r2) = (rng.gen::<u64>(), rng.gen::<u64>());
                    let bit = rng.gen_range(0..8u8);
                    (
                        Box::new(move |m: &mut fl_machine::Machine| {
                            if let Some(addr) = resolve_heap_target(m, r1, r2) {
                                m.flip_mem_bit(addr, bit);
                            }
                        }),
                        format!("heap draw {r1:#x} bit {bit}"),
                    )
                }
                TargetClass::Stack => {
                    let r = rng.gen::<u64>();
                    let bit = rng.gen_range(0..8u8);
                    (
                        Box::new(move |m: &mut fl_machine::Machine| {
                            if let Some(addr) = resolve_stack_target(m, r) {
                                m.flip_mem_bit(addr, bit);
                            }
                        }),
                        format!("stack draw {r:#x} bit {bit}"),
                    )
                }
                TargetClass::Message => unreachable!(),
                // Chaos classes are drawn by the chaos engine, never
                // here; the perturb class by draw_perturb.
                TargetClass::Network
                | TargetClass::Syscall
                | TargetClass::Process
                | TargetClass::Sched => {
                    unreachable!("chaos/perturb classes are drawn by their engines")
                }
            };
            (
                Fault::Machine { at_insns, action },
                format!("rank {rank} t={at_insns}: {detail}"),
            )
        }
    };
    DrawnFault {
        rank,
        fault,
        detail,
    }
}

/// Execute one injection experiment, forking from the latest eligible
/// epoch checkpoint when a cache is supplied.
///
/// Cold and forked trials consume the identical random sequence — the
/// complete fault specification is drawn before any world exists — so a
/// campaign produces the same records either way; forking only skips the
/// redundant fault-free prefix.
#[deprecated(note = "direct driver entry point; drive campaigns through \
            `CampaignBuilder` (or `run_spec`) and single trials through \
            `CampaignBuilder::replay`")]
pub fn run_trial_forked(
    app: &App,
    golden: &Golden,
    dicts: &Dictionaries,
    class: TargetClass,
    trial_seed: u64,
    budget: u64,
    epochs: Option<&EpochCache>,
) -> TrialRecord {
    run_trial_inner(
        app, golden, dicts, class, trial_seed, budget, epochs, 0, true, None,
    )
    .record
}

/// Execute one injection experiment with event recording on, returning
/// the full [`TrialTrace`]. When forking from an epoch cache, that
/// cache must have been built with the same `obs_capacity` (the golden
/// prefix's events are part of the snapshot).
#[deprecated(note = "direct driver entry point; drive campaigns through \
            `CampaignBuilder` (or `run_spec`) and traced replays through \
            `CampaignBuilder::replay_traced`")]
#[allow(clippy::too_many_arguments)]
pub fn run_trial_traced(
    app: &App,
    golden: &Golden,
    dicts: &Dictionaries,
    class: TargetClass,
    trial_seed: u64,
    budget: u64,
    epochs: Option<&EpochCache>,
    obs_capacity: u32,
) -> TrialTrace {
    let run = run_trial_inner(
        app,
        golden,
        dicts,
        class,
        trial_seed,
        budget,
        epochs,
        obs_capacity,
        true,
        None,
    );
    TrialTrace {
        record: run.record,
        rank: run.rank,
        insns: run.insns,
        streams: run.world.event_streams(),
    }
}

/// A finished trial before teardown: the record, the victim rank, the
/// guest instructions retired across all ranks, and the ended world
/// (still holding every rank's event log).
pub(crate) struct TrialRun {
    pub(crate) record: TrialRecord,
    pub(crate) rank: u16,
    pub(crate) insns: u64,
    pub(crate) world: MpiWorld,
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn run_trial_inner(
    app: &App,
    golden: &Golden,
    dicts: &Dictionaries,
    class: TargetClass,
    trial_seed: u64,
    budget: u64,
    epochs: Option<&EpochCache>,
    obs_capacity: u32,
    fastpath: bool,
    code: Option<&SharedCode>,
) -> TrialRun {
    let drawn = draw_fault(golden, dicts, class, trial_seed, app.params.nranks);
    let (rank, detail) = (drawn.rank, drawn.detail.clone());

    // Pick the latest checkpoint the injection point permits: the target
    // rank must not yet have passed the fire point (strictly, for
    // instruction-timed faults) or ingested the struck byte.
    let epoch = epochs.and_then(|e| match &drawn.fault {
        Fault::Message(f) => e.best_for_recv(rank, f.at_recv_byte),
        Fault::Machine { at_insns, .. } => e.best_for_insns(rank, *at_insns),
    });
    let mut world = match epoch {
        Some(e) => e.snap.restore(),
        None => {
            let mut cfg = trial_world_config(app, budget, obs_capacity, fastpath);
            cfg.seed = trial_seed; // vary moldyn's schedule per trial (§4.2.2)
            MpiWorld::new_with_code(&app.image, cfg, code)
        }
    };
    drawn.arm(&mut world);

    let exit = world.run();
    let output = app.comparable_output(&world);
    let outcome = classify(&exit, &output, &golden.output);
    let insns = world_insns(&world);
    TrialRun {
        record: TrialRecord {
            class,
            detail,
            outcome,
        },
        rank,
        insns,
        world,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fl_apps::AppParams;

    fn mini_campaign(kind: AppKind, classes: &[TargetClass], n: u32) -> CampaignResult {
        let app = App::build(kind, AppParams::tiny(kind));
        run_campaign_impl(
            &app,
            classes,
            &CampaignConfig {
                injections: n,
                seed: 42,
                ..Default::default()
            },
        )
    }

    #[test]
    fn campaign_is_reproducible() {
        let app = App::build(AppKind::Wavetoy, AppParams::tiny(AppKind::Wavetoy));
        let cfg = CampaignConfig {
            injections: 12,
            seed: 7,
            threads: 2,
            ..Default::default()
        };
        let a = run_campaign_impl(&app, &[TargetClass::RegularReg], &cfg);
        let b = run_campaign_impl(&app, &[TargetClass::RegularReg], &cfg);
        assert_eq!(a.classes[0].tally, b.classes[0].tally);
    }

    #[test]
    fn register_faults_manifest_often() {
        // §6.1.1: integer registers are the most vulnerable (38-63 %).
        let r = mini_campaign(AppKind::Wavetoy, &[TargetClass::RegularReg], 60);
        let rate = r.classes[0].tally.error_rate_percent();
        assert!(
            rate > 20.0,
            "regular-register error rate {rate:.1}% too low"
        );
    }

    #[test]
    fn fp_faults_manifest_rarely() {
        let r = mini_campaign(
            AppKind::Wavetoy,
            &[TargetClass::RegularReg, TargetClass::FpReg],
            60,
        );
        let regular = r.classes[0].tally.error_rate_percent();
        let fp = r.classes[1].tally.error_rate_percent();
        assert!(
            fp < regular,
            "FP rate ({fp:.1}%) must be below regular-register rate ({regular:.1}%)"
        );
    }

    #[test]
    fn trials_complete_for_every_class() {
        let r = mini_campaign(AppKind::Climsim, &TargetClass::ALL, 6);
        assert_eq!(r.classes.len(), 8);
        for c in &r.classes {
            assert_eq!(c.tally.executions, 6, "{:?}", c.class);
            assert_eq!(c.trials.len(), 6);
        }
    }

    #[test]
    fn snapshot_and_cold_paths_produce_identical_records() {
        // The tentpole invariant at campaign level: forking trials from
        // epoch checkpoints must change nothing observable — same
        // details, same manifestations, same tallies.
        let app = App::build(AppKind::Wavetoy, AppParams::tiny(AppKind::Wavetoy));
        let classes = [
            TargetClass::RegularReg,
            TargetClass::Stack,
            TargetClass::Message,
        ];
        let cold = CampaignConfig {
            injections: 10,
            seed: 0xF0,
            epoch_rounds: 0,
            ..Default::default()
        };
        let snap = CampaignConfig {
            injections: 10,
            seed: 0xF0,
            epoch_rounds: 8,
            ..Default::default()
        };
        let a = run_campaign_impl(&app, &classes, &cold);
        let b = run_campaign_impl(&app, &classes, &snap);
        for (ca, cb) in a.classes.iter().zip(&b.classes) {
            assert_eq!(
                ca.trials, cb.trials,
                "{:?}: fork path diverged from cold path",
                ca.class
            );
            assert_eq!(ca.tally, cb.tally);
        }
    }

    #[test]
    fn trial_order_is_deterministic_across_thread_counts() {
        let app = App::build(AppKind::Climsim, AppParams::tiny(AppKind::Climsim));
        let one = CampaignConfig {
            injections: 8,
            seed: 5,
            threads: 1,
            ..Default::default()
        };
        let four = CampaignConfig {
            injections: 8,
            seed: 5,
            threads: 4,
            ..Default::default()
        };
        let a = run_campaign_impl(&app, &[TargetClass::RegularReg], &one);
        let b = run_campaign_impl(&app, &[TargetClass::RegularReg], &four);
        // Not just the same multiset: record k must sit in slot k.
        assert_eq!(a.classes[0].trials, b.classes[0].trials);
    }

    #[test]
    fn replay_reproduces_recorded_trials() {
        let app = App::build(AppKind::Wavetoy, AppParams::tiny(AppKind::Wavetoy));
        let classes = [TargetClass::RegularReg, TargetClass::Message];
        let cfg = CampaignConfig {
            injections: 6,
            seed: 0xBEEF,
            ..Default::default()
        };
        let result = run_campaign_impl(&app, &classes, &cfg);
        for (ci, class_result) in result.classes.iter().enumerate() {
            for k in [0u32, 3, 5] {
                let replayed = replay_trial_impl(&app, &classes, &cfg, ci, k);
                assert_eq!(
                    replayed.record, class_result.trials[k as usize],
                    "replay of class {ci} trial {k} diverged"
                );
            }
        }
    }

    #[test]
    fn message_faults_hit_headers_and_payloads() {
        let r = mini_campaign(AppKind::Moldyn, &[TargetClass::Message], 40);
        let t = &r.classes[0].tally;
        assert_eq!(t.executions, 40);
        // Some message faults must manifest for a data-heavy app with
        // checksums; and not all of them (padding bytes, dead payloads).
        assert!(t.errors() > 0, "no message fault manifested");
        assert!(t.errors() < 40, "every message fault manifested");
    }
}
