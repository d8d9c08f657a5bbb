//! Regenerate the **chaos defense-coverage matrix**: every chaos fault
//! model (network drop/duplicate/reorder/corrupt, partitions, syscall
//! failures, correlated bursts, node kills) run against every defense
//! column (none, CRC channel, watchdog harness, replication, shrink
//! recovery, app-owned ULFM) on the byte-identical fault draw — the
//! fl-chaos answer to "which defense actually covers which fault
//! class".
//!
//! ```sh
//! cargo run --release -p fl-bench --bin chaos_coverage -- 10
//! ```
//!
//! Runs wavetoy (no app-side recovery) and jacobi3d (fl-ulfm app-side
//! recovery) so the matrix shows the app-column asymmetry. Exits
//! non-zero if any provable-coverage floor misses its contract: the CRC
//! channel must neutralize at least 90 % of in-flight corruptions, the
//! watchdog must catch at least 90 % of partition-induced hangs, and
//! shrink recovery must recover at least 90 % of manifesting node
//! kills.

use fl_apps::AppKind;
use fl_inject::ChaosPolicy;

fn main() {
    fl_bench::matrix_coverage(
        "chaos_coverage",
        &[AppKind::Wavetoy, AppKind::Jacobi3d],
        0x51C2,
        |b| b.chaos(ChaosPolicy::default()).run_chaos(),
    );
}
