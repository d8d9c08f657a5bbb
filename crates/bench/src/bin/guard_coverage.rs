//! Regenerate the **detection-coverage report**: every trial's fault run
//! guard-off and guard-on, per region, for all three applications —
//! the paper's closing argument (message-level detection plus
//! checkpoint/recovery) measured inside the lab.
//!
//! ```sh
//! cargo run --release -p fl-bench --bin guard_coverage -- 100
//! ```

use fl_apps::{App, AppKind, AppParams};
use fl_bench::{injections_from_args, Coverage};
use fl_inject::{CampaignBuilder, GuardPolicy, TargetClass};

fn main() {
    let injections = injections_from_args(100);
    let seed = 0x6A_12D;
    let policy = GuardPolicy {
        checkpoint_rounds: 32,
        ..GuardPolicy::default()
    };
    // Tiny app parameters: each fault runs twice, and guarded runs may
    // re-execute up to max_restarts times, so the trial cost is ~2-5x a
    // plain campaign's.
    let mut out = Coverage::default();
    for kind in AppKind::PAPER {
        eprintln!(
            "guard_coverage: {} x {injections} paired trials per region ...",
            kind.name()
        );
        let app = App::build(kind, AppParams::tiny(kind));
        let result = CampaignBuilder::new(&app)
            .classes(&TargetClass::ALL)
            .injections(injections)
            .seed(seed)
            .guarded(policy)
            .run_coverage();
        let title = format!(
            "Detection Coverage ({} / {} analogue), n = {injections} paired trials per region",
            kind.name(),
            kind.paper_name()
        );
        out.add(kind, &title, &result);
    }
    out.emit("guard_coverage");
}
