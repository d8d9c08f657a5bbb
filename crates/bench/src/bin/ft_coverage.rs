//! Regenerate the **process-failure recovery report**: every rank kill
//! run baseline / shrink / respawn and every message fault run baseline
//! / replicated, for all three applications — the fl-ft answer to the
//! paper's "what would it take to survive these faults" question.
//!
//! ```sh
//! cargo run --release -p fl-bench --bin ft_coverage -- 40
//! ```
//!
//! Exits non-zero if any recovery discipline misses its contract:
//! shrink and respawn must each convert at least 90 % of manifesting
//! rank kills into `Recovered`, and the replica vote must mask at least
//! 90 % of manifesting single-replica message corruptions.

use fl_apps::{App, AppKind, AppParams};
use fl_bench::{injections_from_args, Coverage};
use fl_inject::{CampaignBuilder, FtPolicy};

fn main() {
    let injections = injections_from_args(40);
    let seed = 0xF7_AB1;
    let policy = FtPolicy::default();
    let mut out = Coverage::default();
    for kind in AppKind::PAPER {
        eprintln!(
            "ft_coverage: {} x {injections} rank kills + {injections} message faults ...",
            kind.name()
        );
        let app = App::build(kind, AppParams::tiny(kind));
        let result = CampaignBuilder::new(&app)
            .injections(injections)
            .seed(seed)
            .ft(policy)
            .run_ft();
        let title = format!(
            "Process-Level Fault Tolerance ({} / {} analogue), n = {injections} per fault kind",
            kind.name(),
            kind.paper_name()
        );
        out.add(kind, &title, &result);
        for (what, pct) in [
            ("shrink recovery", result.shrink_recovery_percent()),
            ("respawn recovery", result.respawn_recovery_percent()),
        ] {
            if pct < 90.0 {
                out.broken
                    .push(format!("{}: {what} {pct:.1}% < 90%", kind.name()));
            }
        }
        if result.replica_errors() == 0 {
            out.broken.push(format!(
                "{}: no baseline message-fault errors to mask (n too small)",
                kind.name()
            ));
        } else if result.masked_percent() < 90.0 {
            out.broken.push(format!(
                "{}: replica masking {:.1}% < 90%",
                kind.name(),
                result.masked_percent()
            ));
        }
    }
    out.emit("ft_coverage");
}
