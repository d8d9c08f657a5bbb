//! Performance-interference campaigns with degradation-aware detection
//! (fl-perturb).
//!
//! Every fault family so far corrupts *state*: bits, messages, whole
//! processes. This module injects faults that corrupt *timing* only —
//! a multiplicative tax on one rank's scheduling quantum
//! ([`FaultModel::QuantumTax`]), a co-scheduled hog stealing a share of
//! a node group's quanta ([`FaultModel::HogRank`]), and a per-access
//! latency surcharge on retired loads and stores
//! ([`FaultModel::MemStall`]). All three draw on the deterministic
//! block/instruction clocks, never wall time, so perturb campaigns keep
//! the byte-identity guarantees of every other campaign flavour.
//!
//! Interference breaks fixed-threshold liveness detection: a taxed rank
//! is silent for long stretches but *alive*, and a fixed heartbeat
//! deadline declares it dead — a false positive whose spurious recovery
//! costs more than the slowdown it "cured". The matrix this module
//! produces measures exactly that: every interference model (plus the
//! two true process failures, kill and wedge, as the detection
//! denominator) runs under three detection columns — none, the fixed
//! threshold, and an *accrual* detector whose deadline is calibrated
//! from each rank's observed worst recovered silence. The contracts at
//! the bottom are the point: the accrual column must show **zero**
//! false positives on pure interference while still detecting ≥90% of
//! real kills and wedges.
//!
//! This module is a preset of the [`crate::matrix`] engine: it keeps
//! the policy, the fault draw and the detection columns, declares the
//! doubled budget and the reference round count its trials read, and
//! splits correct output into `Correct` and `Degraded` with a
//! `[N‰ of clean]` detail suffix the engine folds back into slowdowns.

use crate::campaign::world_insns;
use crate::chaos::draw_node;
use crate::faultmodel::FaultModel;
use crate::matrix::{Contract, Grid, Preset, Reference, Trial, View};
use crate::outcome::{classify, Manifestation};
use fl_apps::Golden;
use fl_machine::MemStall;
use fl_mpi::{FailureDetector, HogRank, MpiWorld, QuantumTax, RankKill, WorldExit};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One column of the interference matrix: what stands between a slow
/// rank and a spurious failure verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Detection {
    /// No liveness detection: interference shows its bare cost and true
    /// failures become deadline misses (hangs).
    None,
    /// The fixed-threshold heartbeat detector: silence matures into a
    /// failure verdict after a static number of rounds.
    Fixed,
    /// The accrual detector: the deadline is calibrated per rank from
    /// the longest silence it ever *recovered* from, with a floor of 8x
    /// the fixed threshold.
    Accrual,
}

impl Detection {
    /// Every column, matrix order.
    pub const ALL: [Detection; 3] = [Detection::None, Detection::Fixed, Detection::Accrual];

    /// Every column name, matrix order; round-trips through
    /// [`std::str::FromStr`] and feeds its did-you-mean suggestions.
    pub const NAMES: [&'static str; 3] = ["none", "fixed", "accrual"];

    /// Canonical machine-readable name.
    pub fn name(self) -> &'static str {
        Self::NAMES[self as usize]
    }
}

impl std::fmt::Display for Detection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Detection {
    type Err = String;

    fn from_str(s: &str) -> Result<Detection, String> {
        let i = Self::NAMES.iter().position(|&n| n == s);
        i.map(|i| Self::ALL[i])
            .ok_or_else(|| crate::suggest::unknown("detection", s, &Self::NAMES))
    }
}

/// Knobs of a perturb campaign: detector cadence plus the draw ranges
/// of the three interference models. All integers — the policy rides
/// the canonical spec JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerturbPolicy {
    /// Heartbeat probe cadence for the detection columns, in rounds.
    pub probe_rounds: u64,
    /// Fixed suspicion deadline, in rounds (the accrual column floors
    /// at 8x this).
    pub suspect_rounds: u64,
    /// Interference window draw range, in scheduler rounds (inclusive;
    /// shared by the tax and hog models).
    pub tax_rounds: (u64, u64),
    /// Quantum-tax severity draw range, in permille of the victim's
    /// quantum (995 = the rank runs one round in 200).
    pub tax_permille: (u32, u32),
    /// Hog share draw range, in permille of each hogged rank's quantum.
    pub hog_share_permille: (u32, u32),
    /// Ranks per "node" for the hog model (the hog steals from a whole
    /// co-scheduled group).
    pub hog_node_ranks: u16,
    /// Memory-stall surcharge draw range, in retired-insn units charged
    /// per load/store (inclusive).
    pub stall_per_access: (u64, u64),
    /// Memory-stall window draw range, in sixteenths of the victim's
    /// golden instruction count (inclusive).
    pub stall_window_per16: (u64, u64),
    /// Slowdown threshold separating [`Manifestation::Correct`] from
    /// [`Manifestation::Degraded`], in permille of the clean reference
    /// round count (1050 = 5% slower).
    pub degraded_permille: u64,
}

impl Default for PerturbPolicy {
    fn default() -> PerturbPolicy {
        PerturbPolicy {
            probe_rounds: 8,
            suspect_rounds: 32,
            tax_rounds: (256, 1024),
            tax_permille: (900, 995),
            hog_share_permille: (300, 900),
            hog_node_ranks: 2,
            stall_per_access: (1, 6),
            stall_window_per16: (2, 8),
            degraded_permille: 1050,
        }
    }
}

/// One drawn perturb fault, armable on any world (each detection column
/// arms the identical draw).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PerturbFault {
    /// A scheduling-quantum tax on one rank.
    Tax(QuantumTax),
    /// A co-scheduled hog over a node group.
    Hog(HogRank),
    /// A per-access latency surcharge on one rank.
    Stall {
        /// The contended rank.
        rank: u16,
        /// The armed surcharge window.
        stall: MemStall,
    },
    /// A true process failure — the detection denominator rows.
    Kill(RankKill),
}

impl PerturbFault {
    /// Plant the fault in a freshly built world.
    pub fn arm(&self, w: &mut MpiWorld) {
        match self {
            PerturbFault::Tax(t) => w.set_quantum_tax(*t),
            PerturbFault::Hog(h) => w.set_hog(*h),
            PerturbFault::Stall { rank, stall } => w.machine_mut(*rank).set_mem_stall(*stall),
            PerturbFault::Kill(k) => w.set_rank_kill(*k),
        }
    }

    /// Is this a pure-interference fault (degrades timing, never
    /// state)? False for the kill/wedge denominator rows.
    pub fn is_interference(&self) -> bool {
        !matches!(self, PerturbFault::Kill(_))
    }
}

/// Draw the perturb fault for one trial seed. Fully determined by
/// `(golden, model, seed, nranks, policy)` and shared by all three
/// detection columns of the trial's row.
pub fn draw_perturb(
    golden: &Golden,
    model: FaultModel,
    seed: u64,
    nranks: u16,
    policy: &PerturbPolicy,
) -> (PerturbFault, String) {
    let mut rng = StdRng::seed_from_u64(seed);
    let window = |rng: &mut StdRng| {
        let (lo, hi) = policy.tax_rounds;
        let lo = lo.max(1);
        rng.gen_range(lo..hi.max(lo) + 1)
    };
    match model {
        FaultModel::QuantumTax => {
            let rank = rng.gen_range(0..nranks);
            let at_blocks = rng.gen_range(1..golden.blocks[rank as usize].max(2));
            let rounds = window(&mut rng);
            let (lo, hi) = policy.tax_permille;
            let tax_permille = rng.gen_range(lo..hi.max(lo) + 1).min(999);
            (
                PerturbFault::Tax(QuantumTax {
                    rank,
                    at_blocks,
                    rounds,
                    tax_permille,
                }),
                format!("tax {tax_permille}\u{2030} on rank {rank} for {rounds} rounds @ block {at_blocks}"),
            )
        }
        FaultModel::HogRank => {
            // A hog lands on one whole node.
            let (node, mask) = draw_node(&mut rng, policy.hog_node_ranks, nranks);
            let trigger_rank = mask.trailing_zeros() as u16;
            let at_blocks = rng.gen_range(1..golden.blocks[trigger_rank as usize].max(2));
            let rounds = window(&mut rng);
            let (slo, shi) = policy.hog_share_permille;
            let share_permille = rng.gen_range(slo..shi.max(slo) + 1).min(999);
            (
                PerturbFault::Hog(HogRank {
                    mask,
                    trigger_rank,
                    at_blocks,
                    rounds,
                    share_permille,
                }),
                format!(
                    "hog steals {share_permille}\u{2030} from node {node} (mask {mask:#06b}) \
                     for {rounds} rounds @ block {at_blocks}"
                ),
            )
        }
        FaultModel::MemStall => {
            let rank = rng.gen_range(0..nranks);
            let insns = golden.insns[rank as usize].max(16);
            let at_insns = rng.gen_range(1..insns);
            let (lo, hi) = policy.stall_window_per16;
            let per16 = rng.gen_range(lo.max(1)..hi.max(lo.max(1)) + 1).min(16);
            let window_insns = (insns * per16 / 16).max(1);
            let (plo, phi) = policy.stall_per_access;
            let per_access = rng.gen_range(plo.max(1)..phi.max(plo.max(1)) + 1);
            (
                PerturbFault::Stall {
                    rank,
                    stall: MemStall {
                        at_insns,
                        window_insns,
                        per_access,
                    },
                },
                format!(
                    "stall +{per_access}/access on rank {rank} for {window_insns} insns @ t={at_insns}"
                ),
            )
        }
        FaultModel::KillRank | FaultModel::WedgeRank => {
            let rank = rng.gen_range(0..nranks);
            let at_blocks = rng.gen_range(1..golden.blocks[rank as usize].max(2));
            let wedge = model == FaultModel::WedgeRank;
            (
                PerturbFault::Kill(RankKill {
                    rank,
                    at_blocks,
                    wedge,
                }),
                format!(
                    "{} rank {rank} @ block {at_blocks}",
                    if wedge { "wedge" } else { "kill" }
                ),
            )
        }
        other => unreachable!("draw_perturb only draws perturb/process models, got {other}"),
    }
}

/// The matrix rows, in slot order: the three interference models, then
/// the two true process failures as the detection denominator.
pub const fn perturb_models() -> [FaultModel; 5] {
    let p = FaultModel::perturb_models();
    let k = FaultModel::process_models();
    [p[0], p[1], p[2], k[0], k[1]]
}

/// The perturb grid: five models × three detection columns, three floors.
static GRID: Grid = Grid {
    title: "Performance-Interference Detection Matrix",
    comparison: Some("fixed vs accrual"),
    rows: &perturb_models(),
    columns: &Detection::NAMES,
    column_kind: "detection",
    // Interference inflates rounds — and the mem-stall surcharge
    // inflates retired-insn accounting — without adding real work.
    // Double the ordinary hang budget so a slow-but-correct run never
    // masquerades as non-termination.
    budget_scale: 2,
    references: &[Reference::Rounds],
    slowdown: Some(detail_permille),
    contracts: &[
        // Zero false positives: over ALL pure-interference trials under
        // the accrual detector, none may end in a failure verdict. The
        // floor is 100% — a single spurious recovery breaks the contract.
        Contract {
            name: "accrual-zero-false-positives",
            what: "pure-interference trials the accrual detector left alone",
            rows: &FaultModel::perturb_models(),
            column: "accrual",
            given: |_| true,
            covered: |m| m != Manifestation::RankLost,
            floor_percent: 100.0,
        },
        // Detection coverage: over the kill and wedge rows, each real
        // detector must convert ≥90% of trials into an explicit failure
        // verdict instead of a silent deadline miss.
        Contract {
            name: "fixed-detects-process-failures",
            what: "kill/wedge trials the detector converted into a failure verdict",
            rows: &FaultModel::process_models(),
            column: "fixed",
            given: |_| true,
            covered: |m| m == Manifestation::RankLost,
            floor_percent: 90.0,
        },
        Contract {
            name: "accrual-detects-process-failures",
            what: "kill/wedge trials the detector converted into a failure verdict",
            rows: &FaultModel::process_models(),
            column: "accrual",
            given: |_| true,
            covered: |m| m == Manifestation::RankLost,
            floor_percent: 90.0,
        },
    ],
    view: View {
        legend: "verdicts = trials ended by a failure verdict (false positives on \
                 interference rows, detections on kill/wedge rows); x = mean slowdown",
        lead_header: "trials",
        lead_width: 6,
        lead: |r, mi| format!("{:>6}", r.cell(mi, 0).tally.executions),
        first_column: 0,
        cell_width: 19,
        cell: |r, mi, di| {
            let c = r.cell(mi, di);
            format!("{:>4} verd  x{:>6.2}", c.detected(), c.mean_slowdown_x())
        },
        rule: 82,
        focus_unit: "detection column",
        focus_note: |r, mi, di| {
            let c = r.cell(mi, di);
            (c.slowdown_trials > 0).then(|| format!("mean slowdown x{:.2}", c.mean_slowdown_x()))
        },
        fields: &[
            ("verdicts", |r, mi, di| {
                r.cell(mi, di).detected().to_string()
            }),
            ("deadline_misses", |r, mi, di| {
                r.cell(mi, di).deadline_misses().to_string()
            }),
            ("slowdown_mean_permille", |r, mi, di| {
                r.cell(mi, di).mean_slowdown_permille().to_string()
            }),
        ],
    },
};

impl Preset for PerturbPolicy {
    fn grid(&self) -> &'static Grid {
        &GRID
    }

    fn run(&self, t: &Trial<'_>) -> (Manifestation, String, u64) {
        let golden = &t.refs.golden;
        let (fault, detail) = draw_perturb(golden, t.model, t.seed, t.app.params.nranks, self);
        let det = Detection::ALL[t.column];
        let mut wcfg = t.world;
        // Each column isolates exactly one detector: app-visible ULFM
        // recovery would absorb failure verdicts and hide both the
        // detections and the false positives this matrix measures.
        wcfg.ulfm = false;
        wcfg.ft = FailureDetector {
            enabled: det != Detection::None,
            probe_rounds: self.probe_rounds,
            suspect_rounds: self.suspect_rounds,
            accrual: det == Detection::Accrual,
        };
        let mut w = MpiWorld::new(&t.app.image, wcfg);
        fault.arm(&mut w);
        let exit = w.run();
        let out = t.app.comparable_output(&w);
        let (outcome, permille) = classify_perturb(
            &exit,
            &out,
            &golden.output,
            w.round(),
            t.refs
                .rounds
                .expect("perturb reads the reference round count"),
            self.degraded_permille,
        );
        let detail = format!("{detail} [{permille}\u{2030} of clean]");
        (outcome, detail, world_insns(&w))
    }
}

/// Classify one finished perturb trial: the ordinary §5.1 classes,
/// except that a correct-output clean exit further splits into
/// [`Manifestation::Correct`] vs [`Manifestation::Degraded`] on the
/// measured slowdown. Returns the classification and the slowdown in
/// permille of the clean reference.
pub fn classify_perturb(
    exit: &WorldExit,
    output: &[u8],
    golden_output: &[u8],
    rounds: u64,
    ref_rounds: u64,
    degraded_permille: u64,
) -> (Manifestation, u64) {
    let permille = rounds.saturating_mul(1000) / ref_rounds.max(1);
    let m = match exit {
        WorldExit::Clean if output == golden_output => {
            if permille > degraded_permille {
                Manifestation::Degraded
            } else {
                Manifestation::Correct
            }
        }
        e => classify(e, output, golden_output),
    };
    (m, permille)
}

/// Read the measured slowdown back out of a record's detail suffix
/// `[N\u{2030} of clean]` — the one number that must survive the record
/// stream so resumed campaigns aggregate identically to uninterrupted
/// ones.
fn detail_permille(detail: &str) -> u64 {
    detail
        .rsplit_once('[')
        .and_then(|(_, tail)| tail.split('\u{2030}').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{trial_seed, CampaignConfig};
    use crate::engine::{EngineControl, NullSink};
    use crate::matrix::{fill_tiny_matrix, run_matrix};
    use fl_apps::{App, AppKind, AppParams};

    fn tiny() -> App {
        App::build(AppKind::Wavetoy, AppParams::tiny(AppKind::Wavetoy))
    }

    #[test]
    fn perturb_draws_are_reproducible_and_model_shaped() {
        let app = tiny();
        let golden = app.golden(2_000_000_000);
        let policy = PerturbPolicy::default();
        for (mi, model) in perturb_models().iter().enumerate() {
            for k in 0..4u32 {
                let seed = trial_seed(11, mi, k);
                let a = draw_perturb(&golden, *model, seed, app.params.nranks, &policy);
                let b = draw_perturb(&golden, *model, seed, app.params.nranks, &policy);
                assert_eq!(a, b, "{model} draw must be pure in the seed");
                match (model, &a.0) {
                    (FaultModel::QuantumTax, PerturbFault::Tax(t)) => {
                        assert!((900..=995).contains(&t.tax_permille));
                        assert!((256..=1024).contains(&t.rounds));
                        assert!(t.at_blocks >= 1);
                    }
                    (FaultModel::HogRank, PerturbFault::Hog(h)) => {
                        assert!(h.mask > 0 && h.mask < (1 << app.params.nranks));
                        assert_eq!(h.mask >> h.trigger_rank & 1, 1);
                        assert!((300..=900).contains(&h.share_permille));
                    }
                    (FaultModel::MemStall, PerturbFault::Stall { rank, stall }) => {
                        assert!((*rank as usize) < app.params.nranks as usize);
                        assert!((1..=6).contains(&stall.per_access));
                        assert!(stall.window_insns >= 1);
                    }
                    (FaultModel::KillRank, PerturbFault::Kill(k)) => assert!(!k.wedge),
                    (FaultModel::WedgeRank, PerturbFault::Kill(k)) => assert!(k.wedge),
                    (m, f) => panic!("{m} drew {f:?}"),
                }
                assert_eq!(
                    a.0.is_interference(),
                    !matches!(model, FaultModel::KillRank | FaultModel::WedgeRank)
                );
            }
        }
    }

    #[test]
    fn perturb_engine_fills_the_matrix_and_streams_records() {
        let r = fill_tiny_matrix(&PerturbPolicy::default(), 0x9E27);
        assert!(r.refs.rounds > Some(0));
        assert_eq!(
            r.refs.syscalls, None,
            "perturb declares no syscall reference"
        );
        // The degradation aggregates surface as campaign metrics.
        let metrics = r.metrics().expect("perturb measures slowdowns");
        assert_eq!(metrics.classes.len(), 5 * 3);
        assert!(metrics.to_jsonl(r.app).contains("slowdown"));
    }

    #[test]
    fn accrual_contract_holds_on_the_tiny_matrix() {
        // The tentpole's acceptance floor in unit form: interference
        // trials under the accrual detector never end in a failure
        // verdict, while kills and wedges still do.
        let app = tiny();
        let cfg = CampaignConfig {
            injections: 3,
            seed: 0xACC,
            ..Default::default()
        };
        let policy = PerturbPolicy::default();
        let r = run_matrix(&app, &cfg, &policy, &NullSink, &EngineControl::new(), None).unwrap();
        for check in r.contracts() {
            assert!(
                check.passed(),
                "{}: {}/{} = {:.1}%",
                check.name,
                check.covered,
                check.denom,
                check.percent()
            );
        }
        // The fixed detector must show the problem the accrual detector
        // fixes somewhere in the interference rows: either false
        // positives or nothing to detect at all — but the quantum-tax
        // row specifically is built to starve past the fixed deadline.
        let tax_fixed = r.cell(0, 1);
        let tax_accrual = r.cell(0, 2);
        assert!(
            tax_fixed.detected() > 0,
            "a 900-995 permille tax must trip the 32-round fixed deadline"
        );
        assert_eq!(tax_accrual.detected(), 0);
    }

    #[test]
    fn classify_perturb_splits_correct_from_degraded() {
        let g = b"out".to_vec();
        let (m, p) = classify_perturb(&WorldExit::Clean, b"out", &g, 1000, 1000, 1050);
        assert_eq!((m, p), (Manifestation::Correct, 1000));
        let (m, p) = classify_perturb(&WorldExit::Clean, b"out", &g, 1500, 1000, 1050);
        assert_eq!((m, p), (Manifestation::Degraded, 1500));
        let (m, _) = classify_perturb(&WorldExit::Clean, b"bad", &g, 1500, 1000, 1050);
        assert_eq!(m, Manifestation::Incorrect);
        let (m, _) = classify_perturb(
            &WorldExit::RankFailed { rank: 1, round: 9 },
            b"",
            &g,
            1200,
            1000,
            1050,
        );
        assert_eq!(m, Manifestation::RankLost);
        let (m, _) = classify_perturb(
            &WorldExit::Hung { reason: "x".into() },
            b"",
            &g,
            4000,
            1000,
            1050,
        );
        assert_eq!(m, Manifestation::Hang);
    }

    #[test]
    fn detail_permille_round_trips_through_the_record_stream() {
        assert_eq!(
            detail_permille("fixed/quantum-tax: tax 950\u{2030} on rank 1 [1342\u{2030} of clean]"),
            1342
        );
        assert_eq!(detail_permille("no suffix"), 0);
    }
}
