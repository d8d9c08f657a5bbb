//! The model × column matrix engine.
//!
//! The paper's result is a grid — fault region × manifestation class —
//! filled one seeded trial at a time. The lab's matrix campaigns fill
//! grids of their own: fault-model rows against defense or detection
//! columns, `injections` trials per cell. This module is the one engine
//! behind all of them. A [`Preset`] ([`crate::chaos`],
//! [`crate::perturb`]) contributes only what differs:
//!
//! * its policy knobs and its fault draw;
//! * its [`Grid`]: rows, columns, the fault-free [`Reference`] runs its
//!   trials read, its [`Contract`] floors and its [`View`];
//! * how one trial runs and is classified under one column.
//!
//! The slot space is `rows × columns × injections`, flattened onto the
//! shared engine pool. Trial `(mi, di, k)` draws its fault from
//! `trial_seed(seed, mi, k)` — the row index only — so every column of
//! a row faces the byte-identical draw and the matrix compares columns,
//! not luck. Records stream through the ordinary sink/record machinery,
//! so matrix campaigns resume and sort exactly like plain ones.

use crate::campaign::{trial_budget, trial_seed, trial_world_config, CampaignConfig, TrialRecord};
use crate::engine::{run_pool, CompletedSlots, EngineControl, EngineSink, TrialOutput};
use crate::faultmodel::FaultModel;
use crate::obs::{CampaignMetrics, ClassMetrics};
use crate::outcome::{percent, Manifestation, Tally};
use crate::report::Report;
use crate::target::TargetClass;
use fl_apps::{App, AppKind, Golden};
use fl_mpi::{MpiWorld, WorldConfig, WorldExit};
use std::fmt::Write as _;

/// A fault-free reference run a preset's trials read, beyond the golden
/// run every matrix has. The engine runs only the references a preset
/// declares, so no preset pays for another's setup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reference {
    /// Per-rank syscall activity — the syscall fault draw's denominators.
    Syscalls,
    /// Output of the fault-free world with one rank fewer — what a
    /// shrink recovery, which solves the survivors' problem, must print.
    Shrunken,
    /// Scheduler rounds of the bare (detector-off) fault-free run — the
    /// slowdown denominator.
    Rounds,
}

/// Fault-free per-rank syscall activity, read off one extra
/// golden-configuration run (the [`Golden`] profile predates these
/// counters).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyscallCounts {
    /// `malloc` calls served per rank.
    pub mallocs: Vec<u64>,
    /// Output syscalls issued per rank.
    pub io_writes: Vec<u64>,
}

/// Run one fault-free world and collect [`SyscallCounts`].
pub fn syscall_counts(app: &App, budget: u64, fastpath: bool) -> SyscallCounts {
    let w = clean_run(app, trial_world_config(app, budget, 0, fastpath));
    let n = app.params.nranks;
    SyscallCounts {
        mallocs: (0..n).map(|r| w.machine(r).counters.mallocs).collect(),
        io_writes: (0..n).map(|r| w.machine(r).counters.io_writes).collect(),
    }
}

/// Output of the fault-free world with one rank fewer — the answer a
/// shrink recovery, which solves the survivors' weak-scaled problem,
/// must print.
pub(crate) fn shrunken_output(app: &App, budget: u64, fastpath: bool) -> Vec<u8> {
    let mut c = trial_world_config(app, budget, 0, fastpath);
    c.nranks -= 1;
    app.comparable_output(&clean_run(app, c))
}

/// Run a fault-free world that must exit cleanly.
fn clean_run(app: &App, cfg: WorldConfig) -> MpiWorld {
    let mut w = MpiWorld::new(&app.image, cfg);
    assert_eq!(w.run(), WorldExit::Clean, "reference runs must be clean");
    w
}

/// The references one matrix campaign measured: the golden run, the
/// trial budget, and whichever [`Reference`] runs its preset declared.
#[derive(Debug, Clone)]
pub struct References {
    /// The fault-free golden profile.
    pub golden: Golden,
    /// The per-trial instruction budget.
    pub budget: u64,
    /// [`Reference::Syscalls`], if declared.
    pub syscalls: Option<SyscallCounts>,
    /// [`Reference::Shrunken`], if declared.
    pub shrunken_output: Option<Vec<u8>>,
    /// [`Reference::Rounds`], if declared.
    pub rounds: Option<u64>,
}

impl References {
    fn measure(app: &App, cfg: &CampaignConfig, grid: &Grid) -> References {
        let golden = app.golden(2_000_000_000);
        let budget = trial_budget(&golden, cfg).saturating_mul(grid.budget_scale);
        let wants = |r| grid.references.contains(&r);
        References {
            syscalls: wants(Reference::Syscalls).then(|| syscall_counts(app, budget, cfg.fastpath)),
            shrunken_output: wants(Reference::Shrunken)
                .then(|| shrunken_output(app, budget, cfg.fastpath)),
            rounds: wants(Reference::Rounds).then(|| {
                let mut c = trial_world_config(app, budget, 0, cfg.fastpath);
                c.ulfm = false;
                c.ft.enabled = false;
                clean_run(app, c).round()
            }),
            golden,
            budget,
        }
    }
}

/// A coverage floor declared as data: over the trials of `rows` whose
/// column-0 outcome satisfies `given`, at least `floor_percent` must end
/// with an outcome satisfying `covered` in `column`.
#[derive(Debug)]
pub struct Contract {
    /// Stable contract identifier.
    pub name: &'static str,
    /// What the numerator counts.
    pub what: &'static str,
    /// The rows the floor ranges over.
    pub rows: &'static [FaultModel],
    /// The column whose outcomes are judged.
    pub column: &'static str,
    /// Which trials enter the denominator, judged on the same trial's
    /// column-0 outcome.
    pub given: fn(Manifestation) -> bool,
    /// Which outcomes in `column` count as covered.
    pub covered: fn(Manifestation) -> bool,
    /// The floor, in percent.
    pub floor_percent: f64,
}

/// One provable-coverage floor and the evidence for it.
#[derive(Debug, Clone, PartialEq)]
pub struct ContractCheck {
    /// Stable contract identifier.
    pub name: &'static str,
    /// What the numerator counts.
    pub what: &'static str,
    /// Trials covered.
    pub covered: u32,
    /// Trials in the denominator.
    pub denom: u32,
    /// The floor, in percent.
    pub floor_percent: f64,
}

impl ContractCheck {
    /// Coverage in percent (0 with an empty denominator).
    pub fn percent(&self) -> f64 {
        percent(self.covered.into(), self.denom.into())
    }

    /// A floor holds only on evidence: an empty denominator fails.
    pub fn passed(&self) -> bool {
        self.denom > 0 && self.percent() + 1e-9 >= self.floor_percent
    }
}

/// A value of cell `(mi, di)` of a matrix, as text.
pub type CellText = fn(&MatrixResult, usize, usize) -> String;

/// How a preset's matrix renders: the layout and per-cell fields the
/// one renderer ([`Report`] for [`MatrixResult`],
/// [`MatrixResult::focus`]) lays out.
#[derive(Debug)]
pub struct View {
    /// Legend printed under the table title.
    pub legend: &'static str,
    /// Header of the table column after the model name.
    pub lead_header: &'static str,
    /// Its width.
    pub lead_width: usize,
    /// Its text in row `mi`.
    pub lead: fn(&MatrixResult, usize) -> String,
    /// First column the table shows (1 when column 0 is only the
    /// denominator the others are measured against).
    pub first_column: usize,
    /// Width of a table column header.
    pub cell_width: usize,
    /// Table text of cell `(mi, di)`.
    pub cell: CellText,
    /// Length of the table's horizontal rules.
    pub rule: usize,
    /// What the focus view's heading counts trials per.
    pub focus_unit: &'static str,
    /// Bracketed note after a focus line's outcome tallies.
    pub focus_note: fn(&MatrixResult, usize, usize) -> Option<String>,
    /// Named per-cell values of the TSV and JSONL summaries.
    pub fields: &'static [(&'static str, CellText)],
}

/// The static half of a preset: everything about its matrix but the
/// policy values.
#[derive(Debug)]
pub struct Grid {
    /// Table title.
    pub title: &'static str,
    /// The comparison the CLI names after the title, if any.
    pub comparison: Option<&'static str>,
    /// The matrix rows, in slot order.
    pub rows: &'static [FaultModel],
    /// The column names, in slot order.
    pub columns: &'static [&'static str],
    /// What a column is (the column key of the TSV/JSONL summaries).
    pub column_kind: &'static str,
    /// Multiplier on the ordinary hang budget.
    pub budget_scale: u64,
    /// The fault-free reference runs the trials read.
    pub references: &'static [Reference],
    /// Reads a correct-output trial's slowdown (permille of the clean
    /// reference) back out of its record detail; `None` for presets
    /// that measure none.
    pub slowdown: Option<fn(&str) -> u64>,
    /// The floors the matrix is contracted to hold.
    pub contracts: &'static [Contract],
    /// How the matrix renders.
    pub view: View,
}

impl Grid {
    /// The position of `model` among the rows.
    ///
    /// # Panics
    /// If `model` is not a row of this grid.
    fn row(&self, model: FaultModel) -> usize {
        self.rows
            .iter()
            .position(|&m| m == model)
            .unwrap_or_else(|| panic!("{model} is not a row of the {} grid", self.title))
    }

    fn column(&self, name: &str) -> usize {
        self.columns
            .iter()
            .position(|&c| c == name)
            .expect("contracts name grid columns")
    }

    /// The per-slot record class vector, `rows × columns` long — what
    /// [`CompletedSlots::from_jsonl`] validates resumes against.
    pub fn classes(&self) -> Vec<TargetClass> {
        self.rows
            .iter()
            .flat_map(|&m| std::iter::repeat_n(row_class(m), self.columns.len()))
            .collect()
    }
}

/// The record class of a matrix row: the kill/wedge rows are process
/// failures, every other matrix model carries its chaos class.
fn row_class(model: FaultModel) -> TargetClass {
    match model {
        FaultModel::KillRank | FaultModel::WedgeRank => TargetClass::Process,
        m => m.chaos_class().expect("matrix rows carry a record class"),
    }
}

/// Everything one trial cell gets from the engine.
pub struct Trial<'a> {
    /// The application.
    pub app: &'a App,
    /// The campaign's references.
    pub refs: &'a References,
    /// The row's fault model.
    pub model: FaultModel,
    /// The column index.
    pub column: usize,
    /// The trial seed, shared by every column of the row.
    pub seed: u64,
    /// The world every column starts from: the trial budget, the
    /// fast-path switch and the trial seed.
    pub world: WorldConfig,
}

/// A matrix preset: a policy that knows its grid and runs one cell.
pub trait Preset: Sync {
    /// The preset's grid.
    fn grid(&self) -> &'static Grid;

    /// Draw row `t.model`'s fault from `t.seed`, run it under column
    /// `t.column` and classify the run. Returns the outcome, the record
    /// detail after its `column/model: ` prefix, and the guest
    /// instructions retired.
    fn run(&self, t: &Trial<'_>) -> (Manifestation, String, u64);
}

/// One cell of a matrix: every trial of one row under one column.
#[derive(Debug, Clone)]
pub struct MatrixCell {
    /// Row.
    pub model: FaultModel,
    /// Column.
    pub column: &'static str,
    /// Outcome tally of the cell.
    pub tally: Tally,
    /// Per-trial records, slot order.
    pub trials: Vec<TrialRecord>,
    /// Sum of measured slowdown over trials that finished with correct
    /// output, in permille of the clean reference (presets with a
    /// [`Grid::slowdown`] reader only).
    pub slowdown_permille_sum: u64,
    /// Trials contributing to [`MatrixCell::slowdown_permille_sum`].
    pub slowdown_trials: u32,
}

impl MatrixCell {
    /// Mean slowdown in permille of clean (0 with no contributing
    /// trials).
    pub fn mean_slowdown_permille(&self) -> u64 {
        self.slowdown_permille_sum / self.slowdown_trials.max(1) as u64
    }

    /// Mean slowdown factor (1.0 = clean pace; 0.0 with no contributing
    /// trials).
    pub fn mean_slowdown_x(&self) -> f64 {
        if self.slowdown_trials == 0 {
            return 0.0;
        }
        self.slowdown_permille_sum as f64 / (1000.0 * self.slowdown_trials as f64)
    }

    /// Trials that ended in a failure verdict.
    pub fn detected(&self) -> u32 {
        self.tally.count(Manifestation::RankLost)
    }

    /// Trials that missed their deadline entirely (hung or ran out of
    /// budget).
    pub fn deadline_misses(&self) -> u32 {
        self.tally.count(Manifestation::Hang)
    }
}

/// A finished matrix campaign.
#[derive(Debug, Clone)]
pub struct MatrixResult {
    /// Which application.
    pub app: AppKind,
    /// The preset's grid.
    pub grid: &'static Grid,
    /// Cells in row-major order: `cells[mi * columns + di]`.
    pub cells: Vec<MatrixCell>,
    /// The fault-free references the trials were judged against.
    pub refs: References,
    /// Guest instructions retired across every trial.
    pub insns_total: u64,
}

/// Every outcome `tally` counted, with its count, in
/// [`Manifestation::ALL`] order.
fn counted(tally: &Tally) -> impl Iterator<Item = (Manifestation, u32)> + '_ {
    Manifestation::ALL
        .into_iter()
        .map(|m| (m, tally.count(m)))
        .filter(|&(_, n)| n > 0)
}

/// Did a column's outcome neutralize the fault — masked, recovered, or
/// at least *detected*? (Measured against column-0 error draws, so a
/// plain `Correct` means the column's environment kept the identical
/// draw from manifesting.)
pub fn is_covered(m: Manifestation) -> bool {
    matches!(
        m,
        Manifestation::Correct
            | Manifestation::Recovered
            | Manifestation::RecoveredByApp
            | Manifestation::MaskedByReplica
            | Manifestation::MaskedByChannel
            | Manifestation::DetectedByGuard
    )
}

impl MatrixResult {
    /// The cell at row `mi`, column `di`.
    pub fn cell(&self, mi: usize, di: usize) -> &MatrixCell {
        &self.cells[mi * self.grid.columns.len() + di]
    }

    /// Trials of row `mi` whose column-0 run manifested an error (the
    /// coverage denominator of the row).
    pub fn baseline_errors(&self, mi: usize) -> u32 {
        self.cell(mi, 0).tally.errors()
    }

    /// Column-0 error trials of row `mi` that column `di` covered.
    pub fn covered(&self, mi: usize, di: usize) -> u32 {
        let base = &self.cell(mi, 0).trials;
        let under = &self.cell(mi, di).trials;
        base.iter()
            .zip(under)
            .filter(|(b, u)| b.outcome.is_error() && is_covered(u.outcome))
            .count() as u32
    }

    /// Coverage of column `di` over row `mi`, in percent of the row's
    /// column-0 errors.
    pub fn coverage_percent(&self, mi: usize, di: usize) -> f64 {
        percent(self.covered(mi, di).into(), self.baseline_errors(mi).into())
    }

    /// Evaluate the grid's [`Contract`] floors.
    pub fn contracts(&self) -> Vec<ContractCheck> {
        self.grid
            .contracts
            .iter()
            .map(|c| {
                let di = self.grid.column(c.column);
                let (mut covered, mut denom) = (0, 0);
                for &model in c.rows {
                    let mi = self.grid.row(model);
                    let base = &self.cell(mi, 0).trials;
                    for (b, t) in base.iter().zip(&self.cell(mi, di).trials) {
                        if (c.given)(b.outcome) {
                            denom += 1;
                            covered += u32::from((c.covered)(t.outcome));
                        }
                    }
                }
                ContractCheck {
                    name: c.name,
                    what: c.what,
                    covered,
                    denom,
                    floor_percent: c.floor_percent,
                }
            })
            .collect()
    }

    /// The slowdown aggregates as [`CampaignMetrics`], one
    /// [`ClassMetrics`] row per cell — `None` for presets that measure
    /// no slowdown.
    pub fn metrics(&self) -> Option<CampaignMetrics> {
        self.grid.slowdown?;
        let classes = self
            .cells
            .iter()
            .map(|c| {
                let mut m = ClassMetrics::new(row_class(c.model));
                m.trials = c.tally.executions;
                m.deadline_misses = c.deadline_misses();
                m.slowdown_permille_sum = c.slowdown_permille_sum;
                m.slowdown_trials = c.slowdown_trials;
                m
            })
            .collect();
        Some(CampaignMetrics { classes })
    }

    /// The single-row focus view (the CLI's `--model M`): one row's
    /// outcome tallies under every column.
    pub fn focus(&self, model: FaultModel) -> String {
        let (grid, view) = (self.grid, &self.grid.view);
        let mi = grid.row(model);
        let w = grid.columns.iter().map(|c| c.len()).max().unwrap_or(0) + 1;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} / model {model}: {} trials per {}",
            self.app.name(),
            self.cell(mi, 0).tally.executions,
            view.focus_unit
        );
        for (di, name) in grid.columns.iter().enumerate() {
            let tally = &self.cell(mi, di).tally;
            let _ = write!(out, "  {name:<w$}");
            for (i, (m, n)) in counted(tally).enumerate() {
                let _ = write!(out, "{}{m} {n}", if i == 0 { " " } else { ", " });
            }
            if let Some(note) = (view.focus_note)(self, mi, di) {
                let _ = write!(out, "  [{note}]");
            }
            out.push('\n');
        }
        out
    }
}

impl Report for MatrixResult {
    /// Per row, the lead column and each shown column's cell text, then
    /// the contract verdicts.
    fn table(&self, title: &str) -> String {
        let (grid, view) = (self.grid, &self.grid.view);
        let w = grid.rows.iter().map(|m| m.label().len()).max().unwrap_or(0) + 2;
        let lw = view.lead_width;
        let mut out = String::new();
        let _ = writeln!(out, "{title}");
        let _ = writeln!(out, "{}", view.legend);
        let _ = write!(out, "{:<w$} {:>lw$} |", "model", view.lead_header);
        for c in &grid.columns[view.first_column..] {
            let _ = write!(out, " {c:>cw$}", cw = view.cell_width);
        }
        out.push('\n');
        let rule = "-".repeat(view.rule);
        let _ = writeln!(out, "{rule}");
        for (mi, model) in grid.rows.iter().enumerate() {
            let _ = write!(out, "{:<w$} {} |", model.label(), (view.lead)(self, mi));
            for di in view.first_column..grid.columns.len() {
                let _ = write!(out, " {}", (view.cell)(self, mi, di));
            }
            out.push('\n');
        }
        let _ = writeln!(out, "{rule}");
        for c in self.contracts() {
            let _ = writeln!(
                out,
                "contract {:<34} {:>3}/{:<3} = {:>5.1}% (floor {:.0}%) {}",
                c.name,
                c.covered,
                c.denom,
                c.percent(),
                c.floor_percent,
                if c.passed() { "PASS" } else { "FAIL" }
            );
        }
        out
    }

    /// One row per cell: the view's fields, then full outcome counts.
    fn tsv(&self) -> String {
        let mut out = format!("model\t{}\ttrials", self.grid.column_kind);
        for (name, _) in self.grid.view.fields {
            let _ = write!(out, "\t{name}");
        }
        for m in Manifestation::ALL {
            let _ = write!(out, "\t{}", m.slug());
        }
        out.push('\n');
        for (mi, model) in self.grid.rows.iter().enumerate() {
            for (di, column) in self.grid.columns.iter().enumerate() {
                let tally = &self.cell(mi, di).tally;
                let _ = write!(out, "{model}\t{column}\t{}", tally.executions);
                for (_, field) in self.grid.view.fields {
                    let _ = write!(out, "\t{}", field(self, mi, di));
                }
                for m in Manifestation::ALL {
                    let _ = write!(out, "\t{}", tally.count(m));
                }
                out.push('\n');
            }
        }
        out
    }

    /// One object per cell: the view's fields, then the non-zero
    /// outcome counts.
    fn jsonl(&self) -> String {
        let mut out = String::new();
        for (mi, model) in self.grid.rows.iter().enumerate() {
            for (di, column) in self.grid.columns.iter().enumerate() {
                let tally = &self.cell(mi, di).tally;
                let _ = write!(
                    out,
                    "{{\"app\":\"{}\",\"model\":\"{model}\",\"{}\":\"{column}\",\"trials\":{}",
                    self.app.name(),
                    self.grid.column_kind,
                    tally.executions,
                );
                for (name, field) in self.grid.view.fields {
                    let _ = write!(out, ",\"{name}\":{}", field(self, mi, di));
                }
                let outcomes: Vec<String> = counted(tally)
                    .map(|(m, n)| format!("\"{}\":{n}", m.slug()))
                    .collect();
                let _ = writeln!(out, ",\"outcomes\":{{{}}}}}", outcomes.join(","));
            }
        }
        out
    }
}

/// Run a matrix campaign on the shared engine pool: `cfg.injections`
/// trials per `row × column` cell; pause/stop via `control`, records and
/// progress through `sink`, optional record-level resume. Returns `None`
/// when stopped before every slot completed.
pub fn run_matrix(
    app: &App,
    cfg: &CampaignConfig,
    preset: &dyn Preset,
    sink: &dyn EngineSink,
    control: &EngineControl,
    resume: Option<CompletedSlots>,
) -> Option<MatrixResult> {
    let grid = preset.grid();
    let refs = References::measure(app, cfg, grid);
    let ncol = grid.columns.len();
    let resume = resume.unwrap_or_default();
    let counts = vec![cfg.injections; grid.rows.len() * ncol];
    let exec = |ci: usize, k: u32| {
        let (model, di) = (grid.rows[ci / ncol], ci % ncol);
        let seed = trial_seed(cfg.seed, ci / ncol, k);
        let mut world = trial_world_config(app, refs.budget, 0, cfg.fastpath);
        world.seed = seed;
        let trial = Trial {
            app,
            refs: &refs,
            model,
            column: di,
            seed,
            world,
        };
        let (outcome, detail, insns) = preset.run(&trial);
        let t = TrialOutput {
            ci,
            k,
            record: TrialRecord {
                class: row_class(model),
                detail: format!("{}/{model}: {detail}", grid.columns[di]),
                outcome,
            },
            insns,
            metrics: None,
        };
        sink.trial(&t);
        t
    };
    let (slots, progress) = run_pool(
        &counts,
        cfg.threads,
        control,
        sink,
        resume.len() as u64,
        |ci, k| resume.take(ci, k).unwrap_or_else(|| exec(ci, k)),
    );
    if !progress.complete() {
        return None;
    }

    // Fold in slot order: the same sums regardless of worker count or
    // resume point.
    let mut insns_total = 0u64;
    let mut cells = Vec::with_capacity(counts.len());
    for (ci, cell_slots) in slots.into_iter().enumerate() {
        let mut cell = MatrixCell {
            model: grid.rows[ci / ncol],
            column: grid.columns[ci % ncol],
            tally: Tally::default(),
            trials: Vec::with_capacity(cell_slots.len()),
            slowdown_permille_sum: 0,
            slowdown_trials: 0,
        };
        for s in cell_slots {
            let t = s.expect("complete run fills every slot");
            insns_total += t.insns;
            cell.tally.record(t.record.outcome);
            if let Some(read) = grid.slowdown {
                // The record stream is the wire: a resumed slot carries
                // its slowdown only in its detail.
                if matches!(
                    t.record.outcome,
                    Manifestation::Correct | Manifestation::Degraded
                ) {
                    cell.slowdown_permille_sum += read(&t.record.detail);
                    cell.slowdown_trials += 1;
                }
            }
            cell.trials.push(t.record);
        }
        cells.push(cell);
    }
    Some(MatrixResult {
        app: app.kind,
        grid,
        cells,
        refs,
        insns_total,
    })
}

/// Run `preset` on tiny wavetoy, 2 trials per cell, and check what every
/// preset owes the engine: every cell full, every record streamed with
/// its row's class, every renderer covering the whole grid, and every
/// contract in the table.
#[cfg(test)]
pub(crate) fn fill_tiny_matrix(preset: &dyn Preset, seed: u64) -> MatrixResult {
    use crate::engine::{parse_record_line, VecSink};
    let app = App::build(AppKind::Wavetoy, fl_apps::AppParams::tiny(AppKind::Wavetoy));
    let cfg = CampaignConfig {
        injections: 2,
        seed,
        ..Default::default()
    };
    let sink = VecSink::new(app.kind);
    let r = run_matrix(&app, &cfg, preset, &sink, &EngineControl::new(), None).unwrap();
    let cells = r.grid.rows.len() * r.grid.columns.len();
    assert_eq!(r.cells.len(), cells);
    assert!(r
        .cells
        .iter()
        .all(|c| c.trials.len() == 2 && c.tally.executions == 2));
    let (lines, classes) = (sink.into_lines(), r.grid.classes());
    assert_eq!(lines.len(), cells * 2);
    for l in &lines {
        let t = parse_record_line(l).expect("matrix records parse back");
        assert_eq!(t.record.class, classes[t.ci]);
    }
    let table = r.table("demo");
    for name in r.grid.rows.iter().map(|m| m.label()) {
        assert!(table.contains(name), "{table}");
    }
    for c in r.grid.contracts {
        assert!(table.contains(&format!("contract {}", c.name)), "{table}");
    }
    assert_eq!(r.tsv().lines().count(), 1 + cells);
    assert_eq!(r.jsonl().lines().count(), cells);
    let focus = r.focus(r.grid.rows[0]);
    assert!(
        focus.contains(&format!("model {}", r.grid.rows[0])),
        "{focus}"
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_floors_need_evidence() {
        let c = ContractCheck {
            name: "x",
            what: "y",
            covered: 0,
            denom: 0,
            floor_percent: 90.0,
        };
        assert!(!c.passed(), "an empty denominator proves nothing");
        let c = ContractCheck {
            covered: 9,
            denom: 10,
            ..c
        };
        assert!(c.passed());
        let c = ContractCheck {
            covered: 8,
            denom: 10,
            ..c
        };
        assert!(!c.passed());
    }
}
