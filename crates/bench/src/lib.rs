//! # fl-bench — the experiment harness
//!
//! One binary per table/figure of the paper (see DESIGN.md's experiment
//! index), plus Criterion micro/macro benchmarks and the design-choice
//! ablations. Every binary prints its table to stdout and, when a
//! `results/` directory exists at the workspace root, writes a copy
//! there.
//!
//! ```sh
//! cargo run --release -p fl-bench --bin table1          # profiles
//! cargo run --release -p fl-bench --bin table2 -- 200   # wavetoy campaign
//! cargo run --release -p fl-bench --bin table3 -- 200   # moldyn campaign
//! cargo run --release -p fl-bench --bin table4 -- 200   # climsim campaign
//! cargo run --release -p fl-bench --bin table5          # wavetoy trace
//! cargo run --release -p fl-bench --bin table6          # moldyn trace
//! cargo run --release -p fl-bench --bin table7          # climsim trace
//! cargo run --release -p fl-bench --bin message_analysis
//! cargo run --release -p fl-bench --bin all_tables -- 200
//! cargo bench -p fl-bench                               # perf + ablations
//! ```

use fl_apps::{App, AppKind, AppParams};
use fl_inject::{
    estimation_error, render_table, render_tsv, CampaignBuilder, CampaignResult, MatrixResult,
    Report,
};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Default instruction budget for golden/traced runs.
pub const BUDGET: u64 = 2_000_000_000;

/// Build an application with its experiment-scale parameters.
pub fn experiment_app(kind: AppKind) -> App {
    App::build(kind, AppParams::default_for(kind))
}

/// Run the full eight-region campaign for an application — the engine
/// behind Tables 2, 3 and 4.
pub fn full_campaign(kind: AppKind, injections: u32, seed: u64) -> CampaignResult {
    let app = experiment_app(kind);
    CampaignBuilder::new(&app)
        .injections(injections)
        .seed(seed)
        .run()
}

/// What distinguishes one injection-results table from another: its
/// number in the paper, the app under test, the per-region trial count
/// and the campaign seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableSpec {
    /// Paper table number (2, 3 or 4).
    pub number: u32,
    /// Application under test.
    pub kind: AppKind,
    /// Injections per region.
    pub injections: u32,
    /// Campaign seed.
    pub seed: u64,
}

/// Run one Tables 2–4 style campaign and emit `table<N>.txt` /
/// `table<N>.tsv` — the shared engine the `table2`/`table3`/`table4`
/// and `all_tables` binaries all call.
pub fn table_campaign(spec: &TableSpec) {
    let TableSpec {
        number,
        kind,
        injections,
        seed,
    } = *spec;
    eprintln!(
        "table{number}: {} x {injections} injections per region (wall time scales with n) ...",
        kind.name()
    );
    let result = full_campaign(kind, injections, seed);
    let title = format!(
        "Table {number}: Fault Injection Results ({} / {} analogue), n = {injections}, d = {:.1}% @95%",
        kind.name(),
        kind.paper_name(),
        estimation_error(0.95, injections) * 100.0
    );
    emit(
        &format!("table{number}.txt"),
        &render_table(&result, &title),
    );
    emit(&format!("table{number}.tsv"), &render_tsv(&result));
}

/// Injections per region taken from the first CLI argument, defaulting
/// to `default_n`. The paper used 400–500 (d = 4.4–4.9 % at 95 %); on a
/// single-core host smaller counts with a correspondingly larger d keep
/// table regeneration to minutes.
pub fn injections_from_args(default_n: u32) -> u32 {
    std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(default_n)
}

/// The workspace `results/` directory, if present.
pub fn results_dir() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let candidate = dir.join("results");
        if candidate.is_dir() {
            return Some(candidate);
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Print a report and mirror it into `results/<name>`.
pub fn emit(name: &str, content: &str) {
    print!("{content}");
    if let Some(dir) = results_dir() {
        if let Err(e) = std::fs::write(dir.join(name), content) {
            eprintln!("warning: could not write results/{name}: {e}");
        }
    }
}

/// The artifacts of a coverage binary, gathered one app at a time:
/// titled tables, one TSV (one header, rows tagged with the app), JSONL,
/// and the contracts the results broke.
#[derive(Default)]
pub struct Coverage {
    tables: Vec<String>,
    tsv: String,
    jsonl: String,
    /// Broken contracts, one line each.
    pub broken: Vec<String>,
}

impl Coverage {
    /// Add one app's report.
    pub fn add(&mut self, kind: AppKind, title: &str, r: &dyn Report) {
        self.tables.push(r.table(title));
        for (li, line) in r.tsv().lines().enumerate() {
            match li {
                0 if self.tsv.is_empty() => _ = writeln!(self.tsv, "app\t{line}"),
                0 => {}
                _ => _ = writeln!(self.tsv, "{}\t{line}", kind.name()),
            }
        }
        self.jsonl.push_str(&r.jsonl());
    }

    /// Print and write `results/<bin>.{txt,tsv,jsonl}`, then exit 1 if
    /// any contract broke: the binary's exit status is the contract
    /// check.
    pub fn emit(self, bin: &str) {
        emit(&format!("{bin}.txt"), &self.tables.join("\n"));
        emit(&format!("{bin}.tsv"), &self.tsv);
        emit(&format!("{bin}.jsonl"), &self.jsonl);
        if !self.broken.is_empty() {
            for b in &self.broken {
                eprintln!("{bin}: CONTRACT BROKEN: {b}");
            }
            std::process::exit(1);
        }
    }
}

/// Regenerate one matrix preset's coverage artifacts: `run` on a
/// builder for each tiny app, `injections_from_args(10)` trials per
/// cell, every contract floor checked.
pub fn matrix_coverage(
    bin: &str,
    apps: &[AppKind],
    seed: u64,
    run: impl Fn(CampaignBuilder) -> MatrixResult,
) {
    let injections = injections_from_args(10);
    let mut out = Coverage::default();
    for &kind in apps {
        eprintln!(
            "{bin}: {} x {injections} injections per matrix cell ...",
            kind.name()
        );
        let app = App::build(kind, AppParams::tiny(kind));
        let r = run(CampaignBuilder::new(&app).injections(injections).seed(seed));
        let title = format!(
            "{} ({} / {} analogue), n = {injections} per cell",
            r.grid.title,
            kind.name(),
            kind.paper_name()
        );
        out.add(kind, &title, &r);
        for c in r.contracts().iter().filter(|c| !c.passed()) {
            out.broken.push(format!(
                "{}: {} ({}) {}/{} = {:.1}% < {:.0}%",
                kind.name(),
                c.name,
                c.what,
                c.covered,
                c.denom,
                c.percent(),
                c.floor_percent
            ));
        }
    }
    out.emit(bin);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_apps_build() {
        // Building at experiment scale is slow-ish; just check one.
        let app = experiment_app(AppKind::Climsim);
        assert!(
            app.image.text.len() > 50_000,
            "experiment-scale text should be substantial"
        );
    }

    #[test]
    fn injections_default_applies() {
        assert_eq!(injections_from_args(123), 123);
    }
}
