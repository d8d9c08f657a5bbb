//! Scenario-diversity campaigns: system-level, network-level and
//! correlated fault models against a defense matrix.
//!
//! The paper's campaigns flip single bits; [`crate::guarded`] and
//! [`crate::ft`] measure one defense against one fault family each. This
//! module asks the cross product: every *chaos* fault class — in-flight
//! network faults (drop / duplicate / reorder / corrupt), rank-set
//! partitions, syscall failures (malloc / write denial), correlated
//! burst kills and whole-node kills — run under every defense the
//! harness has (none, channel CRC, watchdog restart, replication,
//! shrink recovery, fl-ulfm application recovery), producing the
//! defense-coverage matrix.
//!
//! This module is a preset of the [`crate::matrix`] engine: it keeps
//! the policy, the fault draw and the defense columns, declares the
//! references its trials read (syscall counts, the shrunken golden
//! output) and classifies each defense's run.

use crate::campaign::world_insns;
use crate::faultmodel::FaultModel;
use crate::ft::classify_recovery;
use crate::guarded::classify_guarded;
use crate::matrix::{Contract, Grid, Preset, Reference, SyscallCounts, Trial, View};
use crate::outcome::Manifestation;
use fl_apps::Golden;
use fl_ft::{run_app, run_replicated, run_shrink, FtPolicy, RankKill};
use fl_guard::{run_guarded, GuardPolicy};
use fl_machine::{SyscallFault, SyscallFaultKind};
use fl_mpi::{MpiWorld, NetFault, NetFaultKind, NodeKill, Partition};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// One column of the coverage matrix: which mechanism stands between the
/// drawn fault and the application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Defense {
    /// Nothing — the fault's bare manifestation (the row's denominator).
    Baseline,
    /// Channel CRC + NACK retransmission only (no watchdog, no
    /// checkpointing).
    Crc,
    /// The full fl-guard harness: watchdog, checkpoints,
    /// rollback-and-re-execute (which includes the CRC channel).
    Watchdog,
    /// N-replica lockstep voting (fl-ft).
    Replica,
    /// Heartbeat detector + shrink-to-survivors recovery (fl-ft).
    Shrink,
    /// App-visible ULFM mode: the application owns recovery (fl-ulfm).
    App,
}

impl Defense {
    /// Every column, matrix order. Baseline is always first — coverage
    /// is measured against its errors.
    pub const ALL: [Defense; 6] = [
        Defense::Baseline,
        Defense::Crc,
        Defense::Watchdog,
        Defense::Replica,
        Defense::Shrink,
        Defense::App,
    ];

    /// Every column name, matrix order; round-trips through
    /// [`std::str::FromStr`] and feeds its did-you-mean suggestions.
    pub const NAMES: [&'static str; 6] =
        ["baseline", "crc", "watchdog", "replica", "shrink", "app"];

    /// Canonical machine-readable name.
    pub fn name(self) -> &'static str {
        Self::NAMES[self as usize]
    }
}

impl std::fmt::Display for Defense {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Defense {
    type Err = String;

    fn from_str(s: &str) -> Result<Defense, String> {
        let i = Self::NAMES.iter().position(|&n| n == s);
        i.map(|i| Self::ALL[i])
            .ok_or_else(|| crate::suggest::unknown("defense", s, &Self::NAMES))
    }
}

/// Knobs of a chaos campaign: the defense configurations plus the draw
/// ranges of the new fault classes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosPolicy {
    /// Guard configuration for the `crc` (channel part only) and
    /// `watchdog` (full harness) columns.
    pub guard: GuardPolicy,
    /// Ft configuration for the `replica`, `shrink` and `app` columns.
    pub ft: FtPolicy,
    /// Partition window draw range, in scheduler rounds (inclusive).
    pub partition_rounds: (u64, u64),
    /// Largest reorder delay, in scheduler rounds.
    pub reorder_max_delay: u64,
    /// Most ranks one burst may kill (clamped to leave a survivor).
    pub burst_max: u16,
    /// Ranks per "node" for the node-kill model.
    pub node_ranks: u16,
}

impl Default for ChaosPolicy {
    fn default() -> ChaosPolicy {
        ChaosPolicy {
            guard: GuardPolicy::default(),
            ft: FtPolicy::default(),
            partition_rounds: (64, 512),
            reorder_max_delay: 64,
            burst_max: 3,
            node_ranks: 2,
        }
    }
}

/// Draw one node: contiguous groups of `per` ranks form the nodes.
/// Returns the node's index and its rank mask.
pub(crate) fn draw_node(rng: &mut StdRng, per: u16, nranks: u16) -> (u16, u32) {
    let per = per.clamp(1, nranks);
    let node = rng.gen_range(0..nranks.div_ceil(per));
    let ranks = node * per..((node + 1) * per).min(nranks);
    (node, ranks.fold(0, |mask, r| mask | 1 << r))
}

/// One drawn chaos fault, armable on any world (each defense column arms
/// the identical draw).
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosFault {
    /// An in-flight message fault.
    Net(NetFault),
    /// A rank-set partition window.
    Partition(Partition),
    /// A syscall failure on one rank.
    Syscall {
        /// Which rank's kernel says no.
        rank: u16,
        /// The armed failure.
        fault: SyscallFault,
    },
    /// A correlated burst of rank kills, each on its own block clock.
    Burst(Vec<RankKill>),
    /// A whole-node kill.
    Node(NodeKill),
}

impl ChaosFault {
    /// Plant the fault in a freshly built world.
    pub fn arm(&self, w: &mut MpiWorld) {
        match self {
            ChaosFault::Net(f) => w.set_net_fault(*f),
            ChaosFault::Partition(p) => w.set_partition(*p),
            ChaosFault::Syscall { rank, fault } => w.machine_mut(*rank).set_syscall_fault(*fault),
            ChaosFault::Burst(kills) => {
                for k in kills {
                    w.add_rank_kill(*k);
                }
            }
            ChaosFault::Node(nk) => w.set_node_kill(*nk),
        }
    }
}

/// Draw the chaos fault for one trial seed. Fully determined by
/// `(golden, sys, model, seed, nranks, policy)` — recomputable from the
/// campaign coordinates like every other fault draw, and shared by all
/// defense columns of the trial's row.
pub fn draw_chaos(
    golden: &Golden,
    sys: &SyscallCounts,
    model: FaultModel,
    seed: u64,
    nranks: u16,
    policy: &ChaosPolicy,
) -> (ChaosFault, String) {
    let mut rng = StdRng::seed_from_u64(seed);
    match model {
        FaultModel::NetDrop
        | FaultModel::NetDuplicate
        | FaultModel::NetReorder
        | FaultModel::NetCorrupt => {
            // Target a rank that actually receives traffic.
            let eligible: Vec<u16> = (0..nranks)
                .filter(|&r| golden.recv_bytes[r as usize] > 0)
                .collect();
            let rank = eligible[rng.gen_range(0..eligible.len())];
            let at_recv_byte = rng.gen_range(0..golden.recv_bytes[rank as usize]);
            let (kind, what) = match model {
                FaultModel::NetDrop => (NetFaultKind::Drop, "drop".to_string()),
                FaultModel::NetDuplicate => (NetFaultKind::Duplicate, "duplicate".to_string()),
                FaultModel::NetReorder => {
                    let delay = rng.gen_range(1..policy.reorder_max_delay.max(1) + 1);
                    (
                        NetFaultKind::Reorder {
                            delay_rounds: delay,
                        },
                        format!("reorder +{delay} rounds"),
                    )
                }
                _ => (NetFaultKind::Corrupt, "corrupt".to_string()),
            };
            (
                ChaosFault::Net(NetFault {
                    rank,
                    at_recv_byte,
                    kind,
                }),
                format!("{what} into rank {rank} @ recv byte {at_recv_byte}"),
            )
        }
        FaultModel::Partition => {
            // Any mask in (0, 2^n - 1) splits the ranks into two
            // non-empty groups.
            let mask = rng.gen_range(1..(1u32 << nranks) - 1);
            let trigger_rank = rng.gen_range(0..nranks);
            let at_blocks = rng.gen_range(1..golden.blocks[trigger_rank as usize].max(2));
            let (lo, hi) = policy.partition_rounds;
            let lo = lo.max(1);
            let rounds = rng.gen_range(lo..hi.max(lo) + 1);
            (
                ChaosFault::Partition(Partition {
                    mask,
                    trigger_rank,
                    at_blocks,
                    rounds,
                }),
                format!(
                    "partition mask {mask:#06b} for {rounds} rounds @ rank {trigger_rank} \
                     block {at_blocks}"
                ),
            )
        }
        FaultModel::SyscallMalloc | FaultModel::SyscallWrite => {
            let rank = rng.gen_range(0..nranks);
            let (kind, counts, what) = if model == FaultModel::SyscallMalloc {
                (SyscallFaultKind::Malloc, &sys.mallocs, "malloc")
            } else {
                (SyscallFaultKind::Write, &sys.io_writes, "write")
            };
            let at_call = rng.gen_range(1..counts[rank as usize].max(1) + 1);
            let persist = rng.gen_range(0..2u32) == 1;
            (
                ChaosFault::Syscall {
                    rank,
                    fault: SyscallFault {
                        kind,
                        at_call,
                        persist,
                    },
                },
                format!(
                    "{what} denied on rank {rank} @ call {at_call}{}",
                    if persist { " (persistent)" } else { "" }
                ),
            )
        }
        FaultModel::Burst => {
            // One arrival process emits K kills across distinct ranks.
            // Integer pseudo-MTBF: successive gaps of mtbf/2 + U[0,mtbf)
            // block clocks, no survivor-free bursts.
            let hi = policy.burst_max.min(nranks.saturating_sub(1)).max(1);
            let lo = 2u16.min(hi);
            let k = rng.gen_range(lo as u32..hi as u32 + 1) as u16;
            let mut pool: Vec<u16> = (0..nranks).collect();
            let mut kills = Vec::with_capacity(k as usize);
            let mut detail = String::from("burst:");
            let first = pool.remove(rng.gen_range(0..pool.len()));
            let mtbf = (golden.blocks[first as usize] / 8).max(4);
            let mut t = rng.gen_range(1..golden.blocks[first as usize].max(2));
            for i in 0..k {
                let victim = if i == 0 {
                    first
                } else {
                    pool.remove(rng.gen_range(0..pool.len()))
                };
                let wedge = rng.gen_range(0..2u32) == 1;
                let at_blocks = t.clamp(1, golden.blocks[victim as usize].max(2) - 1);
                kills.push(RankKill {
                    rank: victim,
                    at_blocks,
                    wedge,
                });
                let _ = write!(
                    detail,
                    " {} r{victim}@{at_blocks}",
                    if wedge { "wedge" } else { "kill" }
                );
                t += mtbf / 2 + rng.gen_range(0..mtbf);
            }
            (ChaosFault::Burst(kills), detail)
        }
        FaultModel::NodeKill => {
            // One node dies whole. Never take the last survivor.
            let (node, mut mask) = draw_node(&mut rng, policy.node_ranks, nranks);
            if mask.count_ones() == nranks as u32 {
                mask &= !(1 << (nranks - 1)); // leave one rank alive
            }
            let trigger_rank = mask.trailing_zeros() as u16;
            let at_blocks = rng.gen_range(1..golden.blocks[trigger_rank as usize].max(2));
            let wedge = rng.gen_range(0..2u32) == 1;
            (
                ChaosFault::Node(NodeKill {
                    mask,
                    trigger_rank,
                    at_blocks,
                    wedge,
                }),
                format!(
                    "node {} down (mask {mask:#06b}) @ block {at_blocks}{}",
                    node,
                    if wedge { ", wedged" } else { "" }
                ),
            )
        }
        FaultModel::Transient
        | FaultModel::Held
        | FaultModel::StuckAt0
        | FaultModel::StuckAt1
        | FaultModel::KillRank
        | FaultModel::WedgeRank
        | FaultModel::QuantumTax
        | FaultModel::HogRank
        | FaultModel::MemStall => {
            unreachable!("draw_chaos only draws chaos models, got {model}")
        }
    }
}

/// The chaos grid: nine chaos models × six defense columns, three floors.
static GRID: Grid = Grid {
    title: "Chaos Defense-Coverage Matrix",
    comparison: None,
    rows: &FaultModel::chaos_models(),
    columns: &Defense::NAMES,
    column_kind: "defense",
    budget_scale: 1,
    references: &[Reference::Syscalls, Reference::Shrunken],
    slowdown: None,
    contracts: &[
        // The channel CRC catches every in-flight corruption: masked by
        // retransmit, or detected when the budget runs out. Over ALL
        // net-corrupt trials — the fault always fires.
        Contract {
            name: "crc-catches-net-corrupt",
            what: "net-corrupt trials the CRC channel masked or detected",
            rows: &[FaultModel::NetCorrupt],
            column: "crc",
            given: |_| true,
            covered: |m| {
                matches!(
                    m,
                    Manifestation::MaskedByChannel | Manifestation::DetectedByGuard
                )
            },
            floor_percent: 90.0,
        },
        // The watchdog catches partition-induced hangs: a restart
        // replays the identical partition, so the budget exhausts into a
        // detection — or the re-run recovers.
        Contract {
            name: "watchdog-catches-partition-hangs",
            what: "baseline-hang partition trials the watchdog detected or recovered",
            rows: &[FaultModel::Partition],
            column: "watchdog",
            given: |m| m == Manifestation::Hang,
            covered: |m| matches!(m, Manifestation::DetectedByGuard | Manifestation::Recovered),
            floor_percent: 90.0,
        },
        // Shrink recovery covers node kills: the heartbeat detector
        // raises the first dead member and the world is rebuilt over
        // survivors.
        Contract {
            name: "shrink-recovers-node-kill",
            what: "baseline-error node-kill trials shrink recovery converted",
            rows: &[FaultModel::NodeKill],
            column: "shrink",
            given: Manifestation::is_error,
            covered: |m| m == Manifestation::Recovered,
            floor_percent: 90.0,
        },
    ],
    view: View {
        legend: "coverage = % of baseline-error trials the defense masked, recovered or detected",
        lead_header: "base-err",
        lead_width: 9,
        lead: |r, mi| {
            let trials = r.cell(mi, 0).tally.executions;
            format!("{:>5}/{:<3}", r.baseline_errors(mi), trials)
        },
        first_column: 1,
        cell_width: 9,
        cell: |r, mi, di| format!("{:>8.1}%", r.coverage_percent(mi, di)),
        rule: 77,
        focus_unit: "defense",
        focus_note: |r, mi, di| {
            (di > 0).then(|| format!("{:.1}% coverage", r.coverage_percent(mi, di)))
        },
        fields: &[
            ("base_errors", |r, mi, _| r.baseline_errors(mi).to_string()),
            ("covered", |r, mi, di| r.covered(mi, di).to_string()),
            ("coverage_pct", |r, mi, di| {
                format!("{:.2}", r.coverage_percent(mi, di))
            }),
        ],
    },
};

impl Preset for ChaosPolicy {
    fn grid(&self) -> &'static Grid {
        &GRID
    }

    fn run(&self, t: &Trial<'_>) -> (Manifestation, String, u64) {
        let (app, golden) = (t.app, &t.refs.golden);
        let sys = t
            .refs
            .syscalls
            .as_ref()
            .expect("chaos reads syscall counts");
        let (fault, detail) = draw_chaos(golden, sys, t.model, t.seed, app.params.nranks, self);
        // Each column isolates exactly one defense: app-visible ULFM and
        // the heartbeat detector are off unless they ARE the defense.
        let mut bare = t.world;
        bare.ulfm = false;
        bare.ft.enabled = false;
        // Each arm yields the run, the class the defense earns if it
        // acted, and the output a run it acted on must reproduce.
        let golden_output = golden.output.as_slice();
        let (w, exit, acted, expected) = match Defense::ALL[t.column] {
            Defense::Baseline => {
                let mut w = MpiWorld::new(&app.image, bare);
                fault.arm(&mut w);
                let exit = w.run();
                (w, exit, None, golden_output)
            }
            Defense::Crc => {
                let mut c = bare;
                c.guard = self.guard.channel_guard();
                let mut w = MpiWorld::new(&app.image, c);
                fault.arm(&mut w);
                let exit = w.run();
                let masked = (w.retransmits() > 0).then_some(Manifestation::MaskedByChannel);
                (w, exit, masked, golden_output)
            }
            Defense::Watchdog => {
                let (w, rep) = run_guarded(&app.image, bare, &self.guard, |w| fault.arm(w));
                let m = classify_guarded(&rep, &app.comparable_output(&w), golden_output);
                return (m, detail, world_insns(&w));
            }
            Defense::Replica => {
                let arm = |replica, w: &mut MpiWorld| {
                    if replica == 0 {
                        fault.arm(w);
                    }
                };
                let out = |w: &MpiWorld| app.comparable_output(w);
                let (w, rep) = run_replicated(&app.image, bare, &self.ft, arm, out);
                let masked = (rep.votes > 0).then_some(Manifestation::MaskedByReplica);
                (w, rep.exit, masked, golden_output)
            }
            Defense::Shrink => {
                let mut c = t.world;
                c.ulfm = false;
                let (w, rep) = run_shrink(&app.image, c, &self.ft, |w| fault.arm(w));
                let recovered = rep.intervened().then_some(Manifestation::Recovered);
                let shrunken = t.refs.shrunken_output.as_deref();
                (
                    w,
                    rep.exit,
                    recovered,
                    shrunken.expect("chaos reads the shrunken run"),
                )
            }
            Defense::App => {
                let (w, rep) = run_app(&app.image, t.world, &self.ft, |w| fault.arm(w));
                let recovered = (rep.shrinks > 0).then_some(Manifestation::RecoveredByApp);
                (w, rep.exit, recovered, golden_output)
            }
        };
        let out = app.comparable_output(&w);
        let outcome = classify_recovery(&exit, &out, acted, expected, golden_output);
        (outcome, detail, world_insns(&w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{trial_budget, trial_seed, CampaignConfig};
    use crate::matrix::{fill_tiny_matrix, syscall_counts};
    use fl_apps::{App, AppKind, AppParams};

    fn tiny() -> App {
        App::build(AppKind::Wavetoy, AppParams::tiny(AppKind::Wavetoy))
    }

    #[test]
    fn chaos_draws_are_reproducible_and_model_shaped() {
        let app = tiny();
        let golden = app.golden(2_000_000_000);
        let cfg = CampaignConfig::default();
        let budget = trial_budget(&golden, &cfg);
        let sys = syscall_counts(&app, budget, cfg.fastpath);
        let policy = ChaosPolicy::default();
        for (mi, model) in FaultModel::chaos_models().iter().enumerate() {
            for k in 0..4u32 {
                let seed = trial_seed(7, mi, k);
                let a = draw_chaos(&golden, &sys, *model, seed, app.params.nranks, &policy);
                let b = draw_chaos(&golden, &sys, *model, seed, app.params.nranks, &policy);
                assert_eq!(a, b, "{model} draw must be pure in the seed");
                match (model, &a.0) {
                    (FaultModel::NetDrop, ChaosFault::Net(f)) => {
                        assert_eq!(f.kind, NetFaultKind::Drop)
                    }
                    (FaultModel::NetDuplicate, ChaosFault::Net(f)) => {
                        assert_eq!(f.kind, NetFaultKind::Duplicate)
                    }
                    (FaultModel::NetReorder, ChaosFault::Net(f)) => {
                        assert!(matches!(f.kind, NetFaultKind::Reorder { .. }))
                    }
                    (FaultModel::NetCorrupt, ChaosFault::Net(f)) => {
                        assert_eq!(f.kind, NetFaultKind::Corrupt)
                    }
                    (FaultModel::Partition, ChaosFault::Partition(p)) => {
                        assert!(p.mask > 0 && p.mask < (1 << app.params.nranks));
                        assert!(p.rounds >= 64);
                    }
                    (FaultModel::SyscallMalloc, ChaosFault::Syscall { fault, .. }) => {
                        assert_eq!(fault.kind, SyscallFaultKind::Malloc);
                        assert!(fault.at_call >= 1);
                    }
                    (FaultModel::SyscallWrite, ChaosFault::Syscall { fault, .. }) => {
                        assert_eq!(fault.kind, SyscallFaultKind::Write)
                    }
                    (FaultModel::Burst, ChaosFault::Burst(kills)) => {
                        assert!(kills.len() >= 2, "{kills:?}");
                        assert!(kills.len() < app.params.nranks as usize);
                        let mut ranks: Vec<u16> = kills.iter().map(|k| k.rank).collect();
                        ranks.sort_unstable();
                        ranks.dedup();
                        assert_eq!(ranks.len(), kills.len(), "distinct victims");
                    }
                    (FaultModel::NodeKill, ChaosFault::Node(nk)) => {
                        assert!(nk.mask > 0 && nk.mask < (1 << app.params.nranks));
                        assert_eq!(nk.mask >> nk.trigger_rank & 1, 1);
                    }
                    (m, f) => panic!("{m} drew {f:?}"),
                }
            }
        }
    }

    #[test]
    fn chaos_engine_fills_the_matrix_and_streams_records() {
        let r = fill_tiny_matrix(&ChaosPolicy::default(), 0xC0FFEE);
        assert!(r.refs.syscalls.is_some() && r.refs.shrunken_output.is_some());
        assert_eq!(r.refs.rounds, None, "chaos declares no rounds reference");
        assert!(r.metrics().is_none());
    }
}
